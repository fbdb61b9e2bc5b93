"""Tests for the fallible-actuator extension: fault injection, the
retry/backoff reconciliation loop, and failure accounting."""

import random

import pytest

from repro.batch.job import JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.core.placement import PlacementState
from repro.cluster import Cluster
from repro.errors import ConfigurationError
from repro.sim.metrics import ActionFaultStats
from repro.sim.monitoring import ActuatorHealthMonitor
from repro.policies import APCPolicy, ScriptedPolicy
from repro.sim.reconcile import Decision, PendingAction, Reconciler
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.sim.trace import SimulationTrace, TraceEventKind
from repro.virt.actions import ActionType
from repro.virt.faults import (
    ActionFaultModel,
    FaultOutcome,
    FaultSpec,
    OUTCOME_OK,
    RetryPolicy,
)

from tests.conftest import make_job


# ----------------------------------------------------------------------
# Model configuration
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_defaults_are_inactive(self):
        spec = FaultSpec()
        assert not spec.active

    def test_active_when_any_probability_set(self):
        assert FaultSpec(failure_probability=0.1).active
        assert FaultSpec(stall_probability=0.1).active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_probability": -0.1},
            {"failure_probability": 1.1},
            {"stall_probability": -0.1},
            {"stall_probability": 1.5},
            {"stall_duration_mean": 0.0},
            {"stall_duration_mean": -5.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(**kwargs)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": 0.0},
            {"multiplier": 0.5},
            {"jitter": -0.1},
            {"base_delay": 10.0, "max_delay": 5.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(base_delay=10.0, multiplier=2.0, jitter=0.0,
                             max_delay=35.0)
        rng = random.Random(0)
        assert policy.backoff(1, rng) == pytest.approx(10.0)
        assert policy.backoff(2, rng) == pytest.approx(20.0)
        assert policy.backoff(3, rng) == pytest.approx(35.0)  # capped
        assert policy.backoff(9, rng) == pytest.approx(35.0)

    def test_jitter_stays_within_bound(self):
        policy = RetryPolicy(base_delay=10.0, multiplier=1.0, jitter=0.25)
        rng = random.Random(42)
        for _ in range(200):
            delay = policy.backoff(1, rng)
            assert 10.0 <= delay <= 12.5

    def test_backoff_rejects_zero_failures(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff(0, random.Random(0))


class TestActionFaultModel:
    def test_rejects_non_actiontype_keys(self):
        with pytest.raises(ConfigurationError):
            ActionFaultModel(specs={"migrate": FaultSpec(0.5)})

    def test_rejects_negative_flakiness(self):
        with pytest.raises(ConfigurationError):
            ActionFaultModel(node_flakiness={"node0": -1.0})

    def test_enabled_requires_an_active_spec(self):
        assert not ActionFaultModel().enabled
        assert not ActionFaultModel.uniform(0.0).enabled
        assert ActionFaultModel.uniform(0.1).enabled
        assert ActionFaultModel.flaky_migrations(0.5).enabled

    def test_uniform_covers_every_action_type(self):
        model = ActionFaultModel.uniform(0.3)
        assert set(model.specs) == set(ActionType)

    def test_flaky_migrations_only_affects_migrate(self):
        model = ActionFaultModel.flaky_migrations(1.0)
        sampler = model.sampler()
        assert sampler.sample(ActionType.BOOT, "node0") is OUTCOME_OK
        assert sampler.sample(ActionType.MIGRATE, "node0").failed


class TestFaultSampler:
    def test_certain_failure_and_certain_success(self):
        always = ActionFaultModel.uniform(1.0).sampler()
        never = ActionFaultModel.uniform(0.0).sampler()
        for _ in range(20):
            assert always.sample(ActionType.MIGRATE, "n").failed
            assert not never.sample(ActionType.MIGRATE, "n").failed

    def test_same_seed_gives_identical_outcome_stream(self):
        model = ActionFaultModel.uniform(0.4, stall_probability=0.3, seed=11)
        a, b = model.sampler(), model.sampler()
        for _ in range(100):
            assert a.sample(ActionType.BOOT, "n0") == b.sample(ActionType.BOOT, "n0")

    def test_node_flakiness_scales_probability(self):
        # Base probability 0.5 with flakiness 0 on nodeA: nodeA never
        # fails, while a 2x-flaky node always does (clamped to 1).
        model = ActionFaultModel.uniform(
            0.5, node_flakiness={"calm": 0.0, "flaky": 2.0}, seed=1
        )
        sampler = model.sampler()
        for _ in range(20):
            assert not sampler.sample(ActionType.BOOT, "calm").failed
            assert sampler.sample(ActionType.BOOT, "flaky").failed

    def test_stall_carries_positive_duration(self):
        model = ActionFaultModel.uniform(
            0.0, stall_probability=1.0, stall_duration_mean=60.0, seed=3
        )
        sampler = model.sampler()
        outcome = sampler.sample(ActionType.MIGRATE, "n")
        assert outcome.stalled and not outcome.failed
        assert outcome.stall_duration > 0.0


# ----------------------------------------------------------------------
# Reconciler state machine (pure decision logic, no simulator)
# ----------------------------------------------------------------------
class StubSampler:
    """Scripted outcomes with the sampler's interface."""

    def __init__(self, outcomes):
        self._outcomes = list(outcomes)
        self.rng = random.Random(0)

    def sample(self, action, node):
        return self._outcomes.pop(0)


def make_pending(action=ActionType.MIGRATE, app_id="j1"):
    return PendingAction(
        action=action, app_id=app_id,
        dest_nodes={"node1": 1}, dest_cpu={"node1": 1000.0},
        prior_nodes={"node0": 1}, prior_cpu={"node0": 1000.0},
        prior_status=JobStatus.RUNNING, prior_node_attr="node0",
        memory_mb=750.0, base_delay=9.9, issued_at=100.0,
    )


def make_reconciler(outcomes, max_attempts=3, timeout=120.0):
    stats = ActionFaultStats()
    rec = Reconciler(
        StubSampler(outcomes),
        RetryPolicy(max_attempts=max_attempts, base_delay=10.0, jitter=0.0),
        timeout,
        stats,
    )
    return rec, stats


class TestReconciler:
    def test_clean_commit(self):
        rec, stats = make_reconciler([OUTCOME_OK])
        pending = make_pending()
        directive = rec.attempt(pending, now=100.0)
        assert directive.decision is Decision.COMMIT
        assert directive.extra_delay == 0.0
        assert stats.attempts == {"migrate": 1}
        assert stats.successes == {"migrate": 1}
        assert pending.app_id not in rec.pending

    def test_failure_schedules_backoff_retry(self):
        rec, stats = make_reconciler([FaultOutcome(failed=True)])
        pending = make_pending()
        directive = rec.attempt(pending, now=100.0)
        assert directive.decision is Decision.RETRY
        assert directive.at == pytest.approx(110.0)  # base_delay, no jitter
        assert stats.failures == {"migrate": 1}
        assert stats.retries == {"migrate": 1}
        assert rec.pending["j1"] is pending

    def test_retries_back_off_exponentially_then_abandon(self):
        rec, stats = make_reconciler([FaultOutcome(failed=True)] * 3)
        pending = make_pending()
        d1 = rec.attempt(pending, now=0.0)
        d2 = rec.attempt(pending, now=d1.at)
        d3 = rec.attempt(pending, now=d2.at)
        assert (d1.decision, d2.decision) == (Decision.RETRY, Decision.RETRY)
        assert d1.at == pytest.approx(10.0)
        assert d2.at == pytest.approx(10.0 + 20.0)
        assert d3.decision is Decision.ABANDON
        assert stats.abandoned == {"migrate": 1}
        assert pending.app_id not in rec.pending

    def test_short_stall_commits_with_extra_delay(self):
        rec, stats = make_reconciler(
            [FaultOutcome(stalled=True, stall_duration=45.0)], timeout=120.0
        )
        directive = rec.attempt(make_pending(), now=0.0)
        assert directive.decision is Decision.COMMIT
        assert directive.extra_delay == pytest.approx(45.0)
        assert stats.stalls == {"migrate": 1}
        assert stats.successes == {"migrate": 1}

    def test_long_stall_waits_for_timeout_then_fails(self):
        rec, stats = make_reconciler(
            [FaultOutcome(stalled=True, stall_duration=500.0)],
            max_attempts=1, timeout=120.0,
        )
        pending = make_pending()
        directive = rec.attempt(pending, now=10.0)
        assert directive.decision is Decision.STALL
        assert directive.at == pytest.approx(130.0)
        assert rec.pending["j1"] is pending  # held while stalled
        verdict = rec.on_stall_timeout(pending, now=130.0)
        assert verdict.decision is Decision.ABANDON
        assert stats.failures == {"migrate": 1}
        assert stats.abandoned == {"migrate": 1}

    def test_success_after_retries_records_reconcile_lag(self):
        rec, stats = make_reconciler([FaultOutcome(failed=True), OUTCOME_OK])
        pending = make_pending()
        pending.issued_at = 100.0
        rec.attempt(pending, now=100.0)
        directive = rec.attempt(pending, now=160.0)
        assert directive.decision is Decision.COMMIT
        assert stats.reconcile_times == [pytest.approx(60.0)]
        assert stats.mean_time_to_reconcile() == pytest.approx(60.0)

    def test_supersede_cancels_inflight_action(self):
        rec, stats = make_reconciler([FaultOutcome(failed=True)])
        pending = make_pending()
        rec.attempt(pending, now=0.0)
        rec.supersede(pending, now=5.0)
        assert pending.app_id not in rec.pending
        assert stats.superseded == {"migrate": 1}

    def test_force_failure_counts_like_a_failure(self):
        rec, stats = make_reconciler([OUTCOME_OK], max_attempts=1)
        pending = make_pending()
        pending.attempts = 1
        directive = rec.force_failure(pending, now=0.0)
        assert directive.decision is Decision.ABANDON
        assert stats.failures == {"migrate": 1}

    def test_suspend_target_falls_back_to_source_node(self):
        pending = PendingAction(
            action=ActionType.SUSPEND, app_id="j",
            prior_nodes={"node2": 1}, prior_status=JobStatus.RUNNING,
        )
        assert pending.target_node == "node2"


# ----------------------------------------------------------------------
# Simulator integration
# ----------------------------------------------------------------------
def pin(job_id, node, cpu=1000.0, memory=750.0):
    """A ScriptedPolicy step placing one job on one node."""

    def step(current, now):
        state = PlacementState(current.cluster)
        state.place(job_id, node, memory)
        state.set_cpu(job_id, node, cpu)
        return state

    return step


def normalized_trace(trace):
    """Trace events with the wall-clock decision timing masked (the only
    legitimately machine-dependent detail)."""
    return [
        (e.time, e.kind, e.subject,
         {k: v for k, v in e.detail.items() if k != "decision_ms"})
        for e in trace.events()
    ]


def run_flaky_migration(fault_model, retry_policy, action_timeout=120.0,
                        work=2_000_000.0):
    """Boot j1 on node0 at t=0, then ask for a node0 -> node1 migration
    at the t=600 cycle, under the given fault model."""
    cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=2000)
    job = make_job("j1", work=work, max_speed=1000, memory=750, goal_factor=50)
    queue = JobQueue()
    batch = BatchWorkloadModel(queue)
    policy = ScriptedPolicy([pin("j1", "node0"), pin("j1", "node1")])
    trace = SimulationTrace()
    sim = MixedWorkloadSimulator(
        cluster, policy, queue, arrivals=[job], batch_model=batch,
        config=SimulationConfig(
            cycle_length=600.0, fault_model=fault_model,
            retry_policy=retry_policy, action_timeout=action_timeout,
        ),
        trace=trace,
    )
    metrics = sim.run()
    return job, metrics, trace


class TestFallibleSimulation:
    def test_always_failing_migration_is_absorbed(self):
        # The ISSUE acceptance scenario: migration failure probability
        # 1.0 with a 3-attempt budget must complete without raising —
        # the job finishes on its original node, the metrics report the
        # three failed attempts and the abandonment, and the trace holds
        # the matching events.
        job, metrics, trace = run_flaky_migration(
            ActionFaultModel.flaky_migrations(1.0, seed=7),
            RetryPolicy(max_attempts=3, base_delay=10.0),
        )
        assert len(metrics.completions) == 1
        record = metrics.completions[0]
        assert job.node == "node0"          # never left the source node
        assert record.migration_count == 0
        faults = metrics.faults
        assert faults.attempts == {"boot": 1, "migrate": 3}
        assert faults.failures == {"migrate": 3}
        assert faults.retries == {"migrate": 2}
        assert faults.abandoned == {"migrate": 1}
        counts = trace.counts()
        assert counts[TraceEventKind.ACTION_FAILED] == 3
        assert counts[TraceEventKind.ACTION_RETRIED] == 2
        assert counts[TraceEventKind.ACTION_ABANDONED] == 1
        assert TraceEventKind.MIGRATE not in counts

    def test_flaky_migration_eventually_succeeds(self):
        # 100% failure on the first draw of seed 7 is specific to that
        # seed; with probability 0 the migration commits first try.
        job, metrics, trace = run_flaky_migration(
            ActionFaultModel.flaky_migrations(0.0, seed=7),
            RetryPolicy(max_attempts=3),
        )
        # An all-zero model is disabled: the infallible path ran.
        assert metrics.faults.total_attempts == 0
        assert metrics.completions[0].migration_count == 1
        assert job.node == "node1"

    def test_same_seed_runs_are_byte_identical(self):
        def run():
            return run_flaky_migration(
                ActionFaultModel.uniform(
                    0.6, stall_probability=0.2, stall_duration_mean=40.0,
                    seed=13,
                ),
                RetryPolicy(max_attempts=4, base_delay=15.0, jitter=0.2),
            )

        _, m1, t1 = run()
        _, m2, t2 = run()
        assert normalized_trace(t1) == normalized_trace(t2)
        assert m1.faults.as_dict() == m2.faults.as_dict()
        assert [(c.job_id, c.completion_time) for c in m1.completions] == \
               [(c.job_id, c.completion_time) for c in m2.completions]

    def test_long_stall_holds_then_times_out(self):
        # A migration that stalls far beyond the timeout: the stall is
        # detected when the timeout fires, and with a 1-attempt budget
        # the action is abandoned; the job finishes on the source node.
        job, metrics, trace = run_flaky_migration(
            ActionFaultModel(
                specs={ActionType.MIGRATE: FaultSpec(
                    stall_probability=1.0, stall_duration_mean=1e6)},
                seed=5,
            ),
            RetryPolicy(max_attempts=1),
            action_timeout=30.0,
        )
        assert len(metrics.completions) == 1
        assert job.node == "node0"
        assert metrics.faults.stalls == {"migrate": 1}
        assert metrics.faults.abandoned == {"migrate": 1}
        stalled = trace.events(kinds=[TraceEventKind.ACTION_STALLED])
        failed = trace.events(kinds=[TraceEventKind.ACTION_FAILED])
        assert len(stalled) == 1 and stalled[0].time == pytest.approx(600.0)
        assert len(failed) == 1 and failed[0].time == pytest.approx(630.0)
        assert failed[0].detail["reason"] == "stall-timeout"
        # The job was frozen for the 30 s stall window: completion slips
        # by exactly that hold (plus the boot delay).
        assert metrics.completions[0].completion_time == pytest.approx(
            2000.0 + 3.6 + 30.0
        )

    def test_short_stall_is_just_extra_delay(self):
        # Mean stall of 1 s against a 120 s timeout: the sampled stall is
        # (deterministically, at this seed) below the timeout, so the
        # migration commits late but successfully.
        job, metrics, trace = run_flaky_migration(
            ActionFaultModel(
                specs={ActionType.MIGRATE: FaultSpec(
                    stall_probability=1.0, stall_duration_mean=1.0)},
                seed=5,
            ),
            RetryPolicy(max_attempts=3),
        )
        assert job.node == "node1"
        assert metrics.completions[0].migration_count == 1
        assert metrics.faults.stalls == {"migrate": 1}
        assert metrics.faults.failures == {}
        assert trace.counts().get(TraceEventKind.ACTION_FAILED, 0) == 0

    def test_hopeless_boots_do_not_hang_or_crash(self):
        # Boots always fail: the job can never start.  The run must
        # terminate (bounded by max_time), keep the job queued, and
        # count an abandonment per exhausted attempt budget.
        cluster = Cluster.homogeneous(1, cpu_capacity=1000, memory_capacity=2000)
        job = make_job("j1", work=5000, max_speed=500, memory=750)
        queue = JobQueue()
        batch = BatchWorkloadModel(queue)
        policy = APCPolicy(
            ApplicationPlacementController(cluster, APCConfig(cycle_length=10.0)),
            [batch],
        )
        sim = MixedWorkloadSimulator(
            cluster, policy, queue, arrivals=[job], batch_model=batch,
            config=SimulationConfig(
                cycle_length=10.0, max_time=100.0,
                fault_model=ActionFaultModel(
                    specs={ActionType.BOOT: FaultSpec(failure_probability=1.0)},
                    seed=0,
                ),
                retry_policy=RetryPolicy(max_attempts=2, base_delay=1.0),
            ),
        )
        metrics = sim.run()
        assert metrics.completions == []
        assert job.status is JobStatus.NOT_STARTED
        assert metrics.faults.total_abandoned >= 1
        assert metrics.faults.successes == {}


class TestFaultModelStrictlyOptIn:
    """Fault model off (the default) must be byte-identical to the seed
    behavior — same trace, same metrics, no RNG consulted."""

    def run_apc_scenario(self, fault_model):
        cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=2000)
        jobs = [
            make_job("a", work=5000, max_speed=500, memory=1500, goal_factor=40),
            make_job("b", work=5000, max_speed=500, memory=1500, submit=5.0,
                     goal_factor=40),
            make_job("c", work=5000, max_speed=500, memory=1500, submit=12.0,
                     goal_factor=40),
        ]
        queue = JobQueue()
        batch = BatchWorkloadModel(queue)
        policy = APCPolicy(
            ApplicationPlacementController(cluster, APCConfig(cycle_length=10.0)),
            [batch],
        )
        trace = SimulationTrace()
        sim = MixedWorkloadSimulator(
            cluster, policy, queue, arrivals=jobs, batch_model=batch,
            config=SimulationConfig(cycle_length=10.0, fault_model=fault_model),
            trace=trace,
        )
        return sim.run(), trace

    def test_none_and_all_zero_model_are_byte_identical(self):
        m_none, t_none = self.run_apc_scenario(None)
        m_zero, t_zero = self.run_apc_scenario(ActionFaultModel.uniform(0.0))
        assert normalized_trace(t_none) == normalized_trace(t_zero)
        assert [(c.job_id, c.completion_time, c.migration_count)
                for c in m_none.completions] == \
               [(c.job_id, c.completion_time, c.migration_count)
                for c in m_zero.completions]
        assert len(m_none.cycles) == len(m_zero.cycles)
        for a, b in zip(m_none.cycles, m_zero.cycles):
            assert a.placement_changes == b.placement_changes
        assert m_none.faults.total_attempts == 0
        assert m_zero.faults.total_attempts == 0

    def test_off_path_emits_no_fault_events(self):
        _, trace = self.run_apc_scenario(None)
        counts = trace.counts()
        for kind in (TraceEventKind.ACTION_FAILED, TraceEventKind.ACTION_RETRIED,
                     TraceEventKind.ACTION_STALLED, TraceEventKind.ACTION_ABANDONED):
            assert kind not in counts


# ----------------------------------------------------------------------
# Health monitoring over fault statistics
# ----------------------------------------------------------------------
class TestActuatorHealthMonitor:
    def make_stats(self, attempts, failures, abandoned=0):
        stats = ActionFaultStats()
        for _ in range(attempts):
            stats.record_attempt("migrate")
        for _ in range(failures):
            stats.record_failure("migrate")
        for _ in range(attempts - failures):
            stats.record_success("migrate")
        for _ in range(abandoned):
            stats.record_abandon("migrate")
        return stats

    def test_healthy_when_failure_rate_low(self):
        monitor = ActuatorHealthMonitor(self.make_stats(10, 2))
        report = monitor.report()
        assert report.healthy
        assert report.unhealthy_actions == []
        assert "healthy" in report.render()

    def test_degraded_when_failure_rate_high(self):
        monitor = ActuatorHealthMonitor(
            self.make_stats(10, 8), failure_rate_threshold=0.5
        )
        report = monitor.report()
        assert not report.healthy
        assert report.unhealthy_actions == ["migrate"]
        assert "DEGRADED" in report.render()

    def test_min_attempts_gate_suppresses_noise(self):
        # Two attempts, both failed: far too little data to flag.
        monitor = ActuatorHealthMonitor(self.make_stats(2, 2), min_attempts=5)
        assert monitor.report().healthy

    def test_abandonment_flags_degraded(self):
        monitor = ActuatorHealthMonitor(self.make_stats(10, 1, abandoned=1))
        report = monitor.report()
        assert not report.healthy
        assert report.abandoned == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_rate_threshold": 0.0},
            {"failure_rate_threshold": 1.5},
            {"min_attempts": 0},
            {"max_abandoned": -1},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            ActuatorHealthMonitor(ActionFaultStats(), **kwargs)


# ----------------------------------------------------------------------
# Supporting pieces
# ----------------------------------------------------------------------
class TestScriptedPolicy:
    def test_steps_run_in_order_then_placement_freezes(self):
        cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=2000)
        state = PlacementState(cluster)
        policy = ScriptedPolicy([pin("j", "node0"), pin("j", "node1")])
        s1 = policy.decide(state, 0.0)
        assert s1.instances("j") == {"node0": 1}
        s2 = policy.decide(s1, 1.0)
        assert s2.instances("j") == {"node1": 1}
        s3 = policy.decide(s2, 2.0)
        assert s3.instances("j") == {"node1": 1}  # copy of current
        assert s3 is not s2


class TestAPCPlansFromActualPlacement:
    def test_prune_unavailable_drops_instances_on_dead_nodes(self):
        cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=2000)
        state = PlacementState(cluster)
        state.place("j", "node0", 750.0)
        state.set_cpu("j", "node0", 500.0)
        cluster.node("node0").available = False
        ApplicationPlacementController._prune_unavailable(state)
        assert state.instances("j") == {}
        cluster.node("node0").available = True
