"""Structured simulation event trace.

Debugging a placement controller means answering "what did the system do
at t = 31,800 and why" — a metrics series is too coarse for that.  The
trace records typed events (arrivals, placement actions, completions,
cycle summaries) with bounded memory, and renders filtered views.

Attach a :class:`SimulationTrace` to the simulator via
:meth:`MixedWorkloadSimulator` composition (the simulator emits events if
a trace is configured) or use it standalone from custom policies.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional



class TraceEventKind(enum.Enum):
    ARRIVAL = "arrival"
    BOOT = "boot"
    SUSPEND = "suspend"
    RESUME = "resume"
    MIGRATE = "migrate"
    COMPLETION = "completion"
    CYCLE = "cycle"
    #: One-line per-cycle summary from the decision flight recorder
    #: (:class:`repro.obs.audit.DecisionAudit`): did the controller
    #: change the placement, how many candidates it evaluated, and the
    #: worst relative performance before/after.
    DECISION = "decision"
    #: Fallible-actuator events (fault-injection extension): an action
    #: attempt failed, a retry was scheduled, a stalled action is holding
    #: resources, or the reconciler gave up on the action entirely.
    ACTION_FAILED = "action_failed"
    ACTION_RETRIED = "action_retried"
    ACTION_STALLED = "action_stalled"
    ACTION_ABANDONED = "action_abandoned"


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped simulation event."""

    time: float
    kind: TraceEventKind
    subject: str
    detail: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:>12.1f}s] {self.kind.value:<10} {self.subject:<24} {detail}".rstrip()


class SimulationTrace:
    """Bounded in-memory event log with filtered rendering.

    The deque bound means long runs evict their oldest events; the
    ``dropped_events`` counter makes that loss visible, and an attached
    :class:`~repro.obs.sink.JsonlSink` streams every event to disk at
    emit time — before the bound applies — so full history survives
    regardless of capacity.
    """

    def __init__(self, capacity: int = 100_000, sink=None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._dropped = 0
        #: Optional streaming sink (``repro.obs.sink.JsonlSink``).
        self.sink = sink

    def emit(
        self,
        time: float,
        kind: TraceEventKind,
        subject: str,
        **detail: object,
    ) -> None:
        if self.sink is not None:
            self.sink.event(time, kind.value, subject, dict(detail))
        if len(self._events) == self._events.maxlen:
            self._dropped += 1
        self._events.append(TraceEvent(time, kind, subject, dict(detail)))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def dropped_events(self) -> int:
        """Events evicted by the capacity bound (oldest-first).

        Non-zero means the in-memory view is incomplete; attach a sink
        to keep full history on disk.
        """
        return self._dropped

    def __len__(self) -> int:
        return len(self._events)

    def events(
        self,
        kinds: Optional[Iterable[TraceEventKind]] = None,
        subject: Optional[str] = None,
        start: float = float("-inf"),
        end: float = float("inf"),
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[TraceEvent]:
        """Events filtered by kind set, subject, time window, predicate."""
        kind_set = set(kinds) if kinds is not None else None
        out: List[TraceEvent] = []
        for event in self._events:
            if kind_set is not None and event.kind not in kind_set:
                continue
            if subject is not None and event.subject != subject:
                continue
            if not start <= event.time <= end:
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return out

    def history_of(self, subject: str) -> List[TraceEvent]:
        """Everything that ever happened to one application/job."""
        return self.events(subject=subject)

    def counts(self) -> Dict[TraceEventKind, int]:
        out: Dict[TraceEventKind, int] = {}
        for event in self._events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def summary(self) -> Dict[str, int]:
        """Per-kind counts of retained events plus the drop counter."""
        out = {kind.value: count for kind, count in self.counts().items()}
        out["retained_events"] = len(self._events)
        out["dropped_events"] = self._dropped
        return out

    # ------------------------------------------------------------------
    # Snapshot / restore (crash-safe simulations)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Retained events, drop counter, and capacity as JSON data.

        Only the in-memory window is captured; events already evicted by
        the capacity bound live (at most) in the streaming sink, which is
        an append-only file and needs no restoring.
        """
        return {
            "capacity": self._events.maxlen,
            "dropped": self._dropped,
            "events": [
                {
                    "time": e.time,
                    "kind": e.kind.value,
                    "subject": e.subject,
                    "detail": dict(e.detail),
                }
                for e in self._events
            ],
        }

    def restore_state(self, data: Dict[str, object]) -> None:
        """Overwrite this trace in place from :meth:`state_dict` output.

        In place because the simulator, audit, and CLI hold the trace by
        reference.  The sink is left untouched: restored events were
        already streamed when first emitted, so replaying them would
        duplicate lines in the JSONL file.
        """
        self._events = deque(
            (
                TraceEvent(
                    time=e["time"],
                    kind=TraceEventKind(e["kind"]),
                    subject=e["subject"],
                    detail=dict(e["detail"]),
                )
                for e in data["events"]
            ),
            maxlen=int(data["capacity"]),
        )
        self._dropped = int(data["dropped"])

    def render(self, **filters) -> str:
        """A text log of the (filtered) events."""
        lines = [event.render() for event in self.events(**filters)]
        if self._dropped:
            note = f"... ({self._dropped} older events dropped"
            if self.sink is not None:
                note += "; full history streamed to sink"
            lines.append(note + ")")
        return "\n".join(lines)
