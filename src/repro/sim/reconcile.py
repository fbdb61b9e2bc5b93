"""Desired-vs-actual reconciliation for fallible placement actions.

With a fault model configured
(:class:`~repro.virt.faults.ActionFaultModel`), the placement the
controller *desires* and the placement the cluster *actually* reaches
can diverge: a boot errors out, a migration stalls and never converges.
This module is the supervision core that closes the gap:

* :class:`PendingAction` records one issued action — what it wants to
  do, where the instance was before, and how many attempts have been
  made — enough to retry the action or to put the world back when it is
  given up;
* :class:`Reconciler` drives the per-action state machine: each attempt
  is sampled against the fault model; failures are retried with capped
  exponential backoff (:class:`~repro.virt.faults.RetryPolicy`); stalls
  hold their resources until the action timeout fires; after
  ``max_attempts`` failures the action is *abandoned* and the instance
  stays in its last known-good position, to be re-planned from the
  actual placement at the next control cycle.

The reconciler is pure decision logic plus accounting: it never touches
the cluster.  The simulator owns all state mutation and interprets the
:class:`Directive` returned for each attempt, which keeps this state
machine independently testable and the simulator's event handling flat.

State machine per issued action::

    ISSUED --sample--> COMMIT                      (apply, done)
            --sample--> STALL --timeout--> FAILED  (resources held meanwhile)
            --sample--> FAILED
    FAILED  --attempts left--> RETRY (backoff)  --> ISSUED
            --attempts exhausted--> ABANDON        (stay put; re-plan next cycle)
    any in-flight state --new control cycle--> SUPERSEDED
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.batch.job import JobStatus
from repro.sim.metrics import ActionFaultStats
from repro.virt.actions import ActionType
from repro.virt.faults import FaultSampler, RetryPolicy


class Decision(enum.Enum):
    """What the simulator must do with an action attempt."""

    COMMIT = "commit"        #: apply the action (with ``extra_delay``)
    STALL = "stall"          #: hold resources; timeout event at ``at``
    RETRY = "retry"          #: revert to fallback; retry event at ``at``
    ABANDON = "abandon"      #: revert to fallback; give up for good


@dataclass(frozen=True)
class Directive:
    """One step of the state machine, for the simulator to interpret."""

    decision: Decision
    #: COMMIT: stall time to add on top of the action's base duration.
    extra_delay: float = 0.0
    #: STALL / RETRY: absolute simulation time of the follow-up event.
    at: float = 0.0


@dataclass
class PendingAction:
    """One issued placement action under supervision.

    Captures the desired destination (nodes, instance counts, CPU
    shares) and the pre-action situation (nodes, CPU, job status) so a
    failed or abandoned action can leave the instance exactly where it
    was — the *actual* placement never silently double-counts capacity.
    """

    action: ActionType
    app_id: str
    #: Desired placement: node -> instance count / CPU share (MHz).
    dest_nodes: Dict[str, int] = field(default_factory=dict)
    dest_cpu: Dict[str, float] = field(default_factory=dict)
    #: Pre-action placement (empty for boots of queued jobs).
    prior_nodes: Dict[str, int] = field(default_factory=dict)
    prior_cpu: Dict[str, float] = field(default_factory=dict)
    prior_status: JobStatus = JobStatus.NOT_STARTED
    prior_node_attr: Optional[str] = None
    memory_mb: float = 0.0
    #: Base action duration from the virtualization cost model.
    base_delay: float = 0.0
    issued_at: float = 0.0
    attempts: int = 0
    #: Cancellable engine-event handle for the pending retry or stall
    #: timeout (owned by the simulator; cleared when it fires).
    event_handle: Optional[object] = None
    #: Resources currently held at the destination by a stalled attempt.
    holding: bool = False

    @property
    def target_node(self) -> str:
        """Deterministic representative node the action acts on.

        Falls back to the source side for actions with no destination
        (a suspend frees its nodes rather than claiming new ones).
        """
        if self.dest_nodes:
            return sorted(self.dest_nodes)[0]
        if self.prior_nodes:
            return sorted(self.prior_nodes)[0]
        return self.prior_node_attr or ""

    @property
    def action_name(self) -> str:
        return self.action.value

    # ------------------------------------------------------------------
    # Snapshot / restore (crash-safe simulations)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain JSON form of everything needed to resume supervision.

        ``event_handle`` is deliberately excluded — it is a live engine
        handle; the simulator relinks it when the serialized retry/stall
        event is re-injected into the restored event queue.
        """
        return {
            "action": self.action.value,
            "app_id": self.app_id,
            "dest_nodes": dict(self.dest_nodes),
            "dest_cpu": dict(self.dest_cpu),
            "prior_nodes": dict(self.prior_nodes),
            "prior_cpu": dict(self.prior_cpu),
            "prior_status": self.prior_status.value,
            "prior_node_attr": self.prior_node_attr,
            "memory_mb": self.memory_mb,
            "base_delay": self.base_delay,
            "issued_at": self.issued_at,
            "attempts": self.attempts,
            "holding": self.holding,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PendingAction":
        return cls(
            action=ActionType(data["action"]),
            app_id=data["app_id"],
            dest_nodes={n: int(c) for n, c in data["dest_nodes"].items()},
            dest_cpu={n: float(c) for n, c in data["dest_cpu"].items()},
            prior_nodes={n: int(c) for n, c in data["prior_nodes"].items()},
            prior_cpu={n: float(c) for n, c in data["prior_cpu"].items()},
            prior_status=JobStatus(data["prior_status"]),
            prior_node_attr=data["prior_node_attr"],
            memory_mb=data["memory_mb"],
            base_delay=data["base_delay"],
            issued_at=data["issued_at"],
            attempts=data["attempts"],
            holding=data["holding"],
        )


class Reconciler:
    """Drives retry/backoff/abandon decisions for pending actions.

    Parameters
    ----------
    sampler:
        The run's seeded fault sampler (shared RNG with retry jitter).
    retry_policy:
        Backoff schedule and the attempt budget.
    action_timeout:
        Patience for stalled actions: a stall longer than this is
        detected (and treated as a failure) when the timeout fires.
    stats:
        The metrics sink (``MetricsRecorder.faults``).
    tracer:
        Optional causal job tracer (``repro.obs.tracing.JobTracer``):
        every state-machine step is mirrored as a ``reconcile-*`` trace
        event on the affected application's trace.  Decisions are
        unaffected either way.
    """

    def __init__(
        self,
        sampler: FaultSampler,
        retry_policy: RetryPolicy,
        action_timeout: float,
        stats: ActionFaultStats,
        tracer=None,
    ) -> None:
        if action_timeout <= 0:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"action timeout must be positive, got {action_timeout}"
            )
        self._sampler = sampler
        self._retry = retry_policy
        self._timeout = action_timeout
        self._stats = stats
        self._tracer = tracer
        #: In-flight actions by app id (at most one per application).
        self.pending: Dict[str, PendingAction] = {}

    @property
    def sampler(self) -> FaultSampler:
        return self._sampler

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._retry

    @property
    def action_timeout(self) -> float:
        return self._timeout

    # ------------------------------------------------------------------
    # State machine steps
    # ------------------------------------------------------------------
    def attempt(self, pending: PendingAction, now: float) -> Directive:
        """Sample one attempt of ``pending`` and decide the next step."""
        pending.attempts += 1
        name = pending.action_name
        self._stats.record_attempt(name)
        outcome = self._sampler.sample(pending.action, pending.target_node)
        if outcome.failed:
            self._stats.record_failure(name)
            self._trace(pending, now, "fail", reason="fault")
            return self._after_failure(pending, now)
        if outcome.stalled:
            self._stats.record_stall(name)
            if outcome.stall_duration <= self._timeout:
                # The action drags but completes before the supervisor
                # loses patience: success with the stall as extra delay.
                self._record_success(pending, now)
                self._trace(
                    pending, now, "commit", stall=round(outcome.stall_duration, 2)
                )
                return Directive(Decision.COMMIT, extra_delay=outcome.stall_duration)
            self.pending[pending.app_id] = pending
            self._trace(
                pending, now, "stall", timeout_at=round(now + self._timeout, 2)
            )
            return Directive(Decision.STALL, at=now + self._timeout)
        self._record_success(pending, now)
        self._trace(pending, now, "commit")
        return Directive(Decision.COMMIT)

    def on_stall_timeout(self, pending: PendingAction, now: float) -> Directive:
        """A stalled attempt exceeded the timeout: count the failure."""
        self._stats.record_failure(pending.action_name)
        self._trace(pending, now, "fail", reason="stall-timeout")
        return self._after_failure(pending, now)

    def force_failure(self, pending: PendingAction, now: float) -> Directive:
        """An attempt sampled OK but could not be committed (for example
        the destination node died mid-flight): treat it as failed."""
        self._stats.record_failure(pending.action_name)
        self._trace(pending, now, "fail", reason="forced")
        return self._after_failure(pending, now)

    def supersede(self, pending: PendingAction, now: float) -> None:
        """A new control cycle re-plans from the actual placement: any
        in-flight retry/stall for the old plan is cancelled."""
        self._stats.record_superseded(pending.action_name)
        self._trace(pending, now, "supersede")
        self.pending.pop(pending.app_id, None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _after_failure(self, pending: PendingAction, now: float) -> Directive:
        if pending.attempts >= self._retry.max_attempts:
            self._stats.record_abandon(pending.action_name)
            self.pending.pop(pending.app_id, None)
            self._trace(pending, now, "abandon")
            return Directive(Decision.ABANDON)
        delay = self._retry.backoff(pending.attempts, self._sampler.rng)
        self._stats.record_retry(pending.action_name, backoff=delay)
        self.pending[pending.app_id] = pending
        self._trace(pending, now, "retry", retry_at=round(now + delay, 2))
        return Directive(Decision.RETRY, at=now + delay)

    def _trace(
        self, pending: PendingAction, now: float, outcome: str, **detail: object
    ) -> None:
        if self._tracer is not None:
            self._tracer.reconcile(
                now,
                pending.app_id,
                outcome,
                action=pending.action_name,
                attempt=pending.attempts,
                node=pending.target_node,
                **detail,
            )

    def _record_success(self, pending: PendingAction, now: float) -> None:
        lag = now - pending.issued_at if pending.attempts > 1 else 0.0
        self._stats.record_success(pending.action_name, time_to_reconcile=lag)
        self.pending.pop(pending.app_id, None)


__all__ = ["Decision", "Directive", "PendingAction", "Reconciler"]
