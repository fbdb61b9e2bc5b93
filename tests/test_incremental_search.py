"""The incremental APC fast path must be *byte-identical* to the naive
three-nested-loop solver — same placements, every cycle — while doing
less work (eval-memo hits, short-circuits).

The rolling-cycle driver comes from :mod:`repro.experiments.benchmark`
(the same loop ``repro bench`` times); identity is asserted on the full
per-cycle placement matrices.
"""

import pytest

from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.core.placement import PlacementState
from repro.experiments.benchmark import _bench_scenario, _run_cycles
from repro.obs.registry import MetricRegistry
from repro.obs.spans import SpanProfiler
from repro.scenario import Scenario

from tests.conftest import assert_solver_path


def _identity_case(scenario, cycles):
    naive_spans, fast_spans = SpanProfiler(), SpanProfiler()
    naive = _run_cycles(scenario, cycles, naive=True, profiler=naive_spans)
    fast = _run_cycles(scenario, cycles, profiler=fast_spans)
    assert_solver_path(naive_spans, fast=False)
    assert_solver_path(fast_spans, fast=True)
    assert naive["matrices"] == fast["matrices"]


@pytest.mark.parametrize("seed", [7, 11])
def test_identity_saturated_mixed_50_nodes(seed):
    """The benchmark's own regime: saturated mixed-class workload where
    the full search actually runs."""
    _identity_case(_bench_scenario(50, seed), cycles=8)


def test_identity_identical_jobs_50_nodes():
    """Experiment One's regime: identical jobs, where the controller's
    internal shortcut skips the search on most cycles."""
    scenario = Scenario(
        name="ident-e1",
        nodes=50,
        workload="experiment1",
        job_count=200,
        interarrival=120.0,
        seed=5,
        queue_window=48,
    )
    _identity_case(scenario, cycles=8)


def test_identity_memo_hit_regime():
    """Identity must survive eval-memo *hits* (replayed load matrices),
    not just misses: multi-sweep search on a deeply saturated small
    cluster revisits placements an earlier sweep already scored."""
    scenario = Scenario(
        name="ident-memo",
        nodes=5,
        workload="experiment2",
        job_count=40,
        interarrival=30.0,
        seed=7,
        queue_window=16,
        # fast_path_min_nodes=0: engage the fast path on the 5-node
        # cluster, below the default engagement threshold.
        apc=APCConfig(search_sweeps=3, fast_path_min_nodes=0),
    )
    _identity_case(scenario, cycles=8)


def test_identity_underloaded_small_cluster():
    scenario = Scenario(
        name="ident-small",
        nodes=5,
        workload="experiment2",
        job_count=10,
        interarrival=900.0,
        seed=2,
        queue_window=48,
        apc=APCConfig(fast_path_min_nodes=0),
    )
    _identity_case(scenario, cycles=6)


def _counter_total(registry, name, **labels):
    total = 0.0
    for sample in registry.collect():
        if sample["name"] != name or sample.get("kind") != "counter":
            continue
        sample_labels = sample.get("labels") or {}
        if all(sample_labels.get(k) == v for k, v in labels.items()):
            total += sample["value"]
    return total


def test_fast_path_actually_engages():
    """Cache hits and short-circuits are observable: the speedup is not
    an accident of the workload.

    The eval memo pays off when distinct search trials converge to the
    same placement matrix (remove-then-refill recreating a layout an
    earlier sweep already scored) — a deeply saturated small cluster
    with several sweeps is such a regime."""
    scenario = Scenario(
        name="memo-regime",
        nodes=5,
        workload="experiment2",
        job_count=40,
        interarrival=30.0,
        seed=7,
        queue_window=16,
    )
    cluster = scenario.build_cluster()
    queue = JobQueue()
    model = BatchWorkloadModel(queue, queue_window=scenario.queue_window)
    registry = MetricRegistry()
    controller = ApplicationPlacementController(
        cluster,
        # fast_path_min_nodes=0: engage the fast path despite the small
        # (5-node) memo-regime cluster.
        APCConfig(search_sweeps=3, fast_path_min_nodes=0),
        registry=registry,
    )
    state = PlacementState(cluster)
    pending = sorted(scenario.build_jobs(), key=lambda j: j.submit_time)
    now, horizon = 0.0, 600.0
    cache_hits = 0
    for _ in range(6):
        while pending and pending[0].submit_time <= now:
            queue.submit(pending.pop(0))
        result = controller.place([model], state, now)
        state = result.state
        cache_hits += result.cache_hits
        now += horizon
    assert cache_hits > 0
    assert _counter_total(registry, "repro_apc_cache_total", outcome="hit") > 0
    assert (
        _counter_total(registry, "repro_apc_cache_total", outcome="miss") > 0
    )
    shortcuts = _counter_total(registry, "repro_apc_shortcircuit_total")
    assert shortcuts > 0


def test_naive_solver_reports_no_cache_hits():
    scenario = _bench_scenario(10, seed=7)
    run = _run_cycles(scenario, cycles=4, naive=True)
    assert len(run["timings"]) == 4  # naive path still times every cycle


# ----------------------------------------------------------------------
# Decision flight recorder vs the fast path
# ----------------------------------------------------------------------
MEMO_SCENARIO = Scenario(
    name="audit-memo",
    nodes=5,
    workload="experiment2",
    job_count=40,
    interarrival=30.0,
    seed=7,
    queue_window=16,
)


def _run_audited(scenario, cycles, *, fast, audit=None, sweeps=3):
    """Drive the controller loop directly (as ``repro bench`` does) with
    an optional audit attached; returns the per-cycle matrices.

    ``fast`` picks the solver path through the two size thresholds: 0
    engages the fast path (and the model's array kernels) on the 5-node
    cluster; a threshold above the cluster and job counts forces the
    reference path."""
    cluster = scenario.build_cluster()
    jobs = scenario.build_jobs()
    queue = JobQueue()
    model = BatchWorkloadModel(
        queue,
        queue_window=scenario.queue_window,
        vectorize_min_jobs=0 if fast else len(jobs) + 1,
    )
    profiler = SpanProfiler()
    controller = ApplicationPlacementController(
        cluster,
        APCConfig(
            search_sweeps=sweeps,
            fast_path_min_nodes=0 if fast else len(cluster) + 1,
        ),
        audit=audit,
        profiler=profiler,
    )
    state = PlacementState(cluster)
    pending = sorted(jobs, key=lambda j: j.submit_time)
    now, horizon = 0.0, 600.0
    matrices = []
    for _ in range(cycles):
        while pending and pending[0].submit_time <= now:
            queue.submit(pending.pop(0))
        result = controller.place([model], state, now)
        state = result.state
        matrices.append(state.as_matrix())
        now += horizon
    assert_solver_path(profiler, fast)
    return matrices


def _scrub(record):
    """Strip the fields that legitimately differ between the naive and
    incremental paths: memo-hit flags, the refill-order stash (the naive
    path refills zero-removal trials the fast path proves no-ops without
    running), and the per-cycle work accounting (fewer evaluations is
    exactly what the fast path buys)."""
    skip = ("cached", "fill_order", "evaluations", "cache_hits")
    return {k: v for k, v in record.items() if k not in skip}


@pytest.mark.parametrize("fast", [False, True])
def test_audit_attachment_never_changes_placements(fast):
    from repro.obs.audit import DecisionAudit

    plain = _run_audited(MEMO_SCENARIO, 6, fast=fast)
    audit = DecisionAudit()
    audited = _run_audited(MEMO_SCENARIO, 6, fast=fast, audit=audit)
    assert plain == audited
    assert len(audit) > 0


def test_audit_decision_records_identical_across_paths():
    """The decision *content* the recorder captures — accepted
    candidates, admission verdicts, RPF inputs — must agree between the
    naive and incremental solvers; only bookkeeping-only fields and
    short-circuit markers may differ."""
    from repro.obs.audit import DecisionAudit

    naive, fast = DecisionAudit(), DecisionAudit()
    m0 = _run_audited(MEMO_SCENARIO, 6, fast=False, audit=naive)
    m1 = _run_audited(MEMO_SCENARIO, 6, fast=True, audit=fast)
    assert m0 == m1

    def decisions(audit):
        keep = []
        for r in audit.records:
            if r["type"] in ("audit_cycle", "audit_admission", "audit_rpf"):
                keep.append(_scrub(r))
            elif r["type"] == "audit_candidate" and r["accepted"]:
                keep.append(_scrub(r))
        return keep

    assert decisions(naive) == decisions(fast)


def test_audit_marks_memo_hits_in_memo_regime():
    from repro.obs.audit import DecisionAudit

    audit = DecisionAudit()
    _run_audited(MEMO_SCENARIO, 6, fast=True, audit=audit)
    candidates = [r for r in audit.records if r["type"] == "audit_candidate"]
    assert any(r.get("cached") for r in candidates)
    assert any(r.get("cached") is False for r in candidates)
