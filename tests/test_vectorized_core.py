"""The fast path's vectorized numpy core must be *byte-identical* to
the reference scalar path it replaces — same placements, same audit
stream, same snapshots — with faults and checkpoint/restore active.

Three layers of pinning:

* full-simulation byte-identity (``json.dumps`` of metrics, trace and
  final snapshot) between fast-path and reference-path runs, including
  a checkpoint taken mid-run on the fast path;
* a hypothesis property: random placement edit sequences keep the dense
  array mirrors in bitwise lockstep with the authoritative dicts;
* scalar/vector parity of :func:`~repro.core.objective.lex_explain` and
  the :class:`~repro.core.objective.UtilityVector` stable sort.

``fast_path_min_nodes=0`` forces the fast path (and, via
:class:`~repro.scenario.Simulation`, the model's vectorized paths) on
the deliberately tiny test clusters; a threshold above the cluster size
forces the reference path.  Every run asserts from its span profile
which path it took.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import (
    APCConfig,
    ApplicationPlacementController,
    SPAN_PHASES,
)
from repro.core.objective import UtilityVector, lex_explain
from repro.core.placement import PlacementState
from repro.errors import CapacityError, PlacementError
from repro.obs.spans import SpanProfiler
from repro.scenario import Scenario, Simulation
from repro.sim.simulator import SimulationConfig
from repro.sim.trace import SimulationTrace
from repro.virt.faults import ActionFaultModel, RetryPolicy

from tests.conftest import assert_solver_path, solver_config

ZERO_CLOCK = lambda: 0.0  # noqa: E731 - deterministic decision timing

CYCLE = 600.0


def vec_scenario(*, fast, faults=True, seed=0):
    """test_snapshot's fault-injected scenario on one solver path.

    ``fast_path_min_nodes=0`` both engages the controller fast path on
    the 3-node cluster and (propagated by ``Simulation.build``) lifts
    the batch model's job-count floor, so the numpy kernels actually
    run; the reference side keeps both thresholds above the run's size.
    """
    fault_model = (
        ActionFaultModel.uniform(
            failure_probability=0.45,
            stall_probability=0.3,
            stall_duration_mean=400.0,
            seed=seed,
        )
        if faults
        else None
    )
    return Scenario(
        name="vec-core-test",
        nodes=3,
        job_count=14,
        interarrival=100.0,
        seed=seed,
        sim=SimulationConfig(
            cycle_length=CYCLE,
            fault_model=fault_model,
            retry_policy=RetryPolicy(max_attempts=4, base_delay=60.0),
            action_timeout=150.0,
        ),
        apc=solver_config(fast),
    )


def _scrub_path_setting(obj):
    """Drop ``fast_path_min_nodes`` config keys: the snapshot embeds the
    scenario's APCConfig, so the threshold *setting* is the single
    legitimate difference between the two runs — everything downstream
    of it must be equal."""
    if isinstance(obj, dict):
        return {
            k: _scrub_path_setting(v)
            for k, v in obj.items()
            if k != "fast_path_min_nodes"
        }
    if isinstance(obj, list):
        return [_scrub_path_setting(v) for v in obj]
    return obj


def final_state_json(sim):
    """Everything observable about a finished run, as one JSON string."""
    return json.dumps(
        _scrub_path_setting(
            {
                "metrics": sim.simulator.metrics.state_dict(),
                "trace": None
                if sim.simulator.trace is None
                else sim.simulator.trace.state_dict(),
                "final": sim.snapshot(),
            }
        ),
        sort_keys=True,
    )


def run_full(*, fast, faults=True):
    profiler = SpanProfiler()
    sim = Simulation.from_scenario(
        vec_scenario(fast=fast, faults=faults),
        decision_clock=ZERO_CLOCK,
        trace=SimulationTrace(),
        profiler=profiler,
    )
    sim.run()
    assert_solver_path(profiler, fast)
    return sim


# ----------------------------------------------------------------------
# Full-simulation byte-identity, fast vs reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("faults", [True, False])
def test_vectorized_run_is_byte_identical_to_scalar(faults):
    """The tentpole contract: switching solver paths changes nothing
    observable — metrics, trace, queue, placement matrices, RNG stream —
    with or without fault injection."""
    fast = run_full(fast=True, faults=faults)
    reference = run_full(fast=False, faults=faults)
    assert final_state_json(fast) == final_state_json(reference)


def test_vectorized_snapshot_restore_matches_scalar_uninterrupted():
    """Checkpoint the fast path mid-run (while retries and stall timers
    are in flight), resume it, and compare against an *uninterrupted
    reference* run: identity must hold through the snapshot format too."""
    partial = Simulation.from_scenario(
        vec_scenario(fast=True),
        decision_clock=ZERO_CLOCK,
        trace=SimulationTrace(),
    )
    partial.run(until=3 * CYCLE + 20.0)
    snapshot = json.loads(json.dumps(partial.snapshot()))
    profiler = SpanProfiler()
    resumed = Simulation.from_snapshot(
        snapshot,
        decision_clock=ZERO_CLOCK,
        trace=SimulationTrace(),
        profiler=profiler,
    )
    resumed.run()
    assert_solver_path(profiler, fast=True)
    reference = run_full(fast=False)
    assert final_state_json(resumed) == final_state_json(reference)


# ----------------------------------------------------------------------
# Audit-stream identity, model array kernels vs scalar
# ----------------------------------------------------------------------
def _run_audited_model_kernels(vector_model, cycles=6):
    """The controller-loop harness from test_incremental_search on the
    fast path, with the batch model on its array kernels
    (``vectorize_min_jobs=0``) or its scalar reference (a floor above
    the job count, so the controller tabulates specs itself)."""
    from repro.obs.audit import DecisionAudit

    scenario = Scenario(
        name="audit-vec",
        nodes=5,
        workload="experiment2",
        job_count=40,
        interarrival=30.0,
        seed=7,
        queue_window=16,
    )
    cluster = scenario.build_cluster()
    jobs = scenario.build_jobs()
    queue = JobQueue()
    model = BatchWorkloadModel(
        queue,
        queue_window=scenario.queue_window,
        vectorize_min_jobs=0 if vector_model else len(jobs) + 1,
    )
    audit = DecisionAudit()
    profiler = SpanProfiler()
    controller = ApplicationPlacementController(
        cluster,
        APCConfig(search_sweeps=3, fast_path_min_nodes=0),
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
    assert_solver_path(profiler, fast=True)
    return matrices, audit


def test_audit_stream_identical_across_vectorize():
    """The flight recorder sees the same decisions — candidates,
    admission verdicts, RPF inputs — whether the batch model's kernels
    are numpy or scalar.  Both runs are on the same (fast) solver path,
    so even the work-accounting fields must agree; nothing is scrubbed."""
    m_vec, a_vec = _run_audited_model_kernels(True)
    m_scalar, a_scalar = _run_audited_model_kernels(False)
    assert m_vec == m_scalar
    assert a_vec.records == a_scalar.records


# ----------------------------------------------------------------------
# Span phase names
# ----------------------------------------------------------------------
def test_span_phase_names_are_stable():
    """Pinned: dashboards and the ``--profile`` renderer key on these."""
    assert SPAN_PHASES == (
        "apc.place",
        "apc.model_specs",
        "apc.spec_tables",
        "apc.admission",
        "apc.search",
        "apc.frontier",
        "apc.evaluate",
        "apc.loadbalance",
        "apc.predict",
        "apc.objective",
    )


def test_profiled_vectorized_run_emits_only_known_phases():
    scenario = Scenario(
        name="span-vec",
        nodes=5,
        workload="experiment2",
        job_count=40,
        interarrival=30.0,
        seed=7,
        queue_window=16,
        apc=APCConfig(fast_path_min_nodes=0),
    )
    cluster = scenario.build_cluster()
    queue = JobQueue()
    model = BatchWorkloadModel(
        queue, queue_window=scenario.queue_window, vectorize_min_jobs=0
    )
    profiler = SpanProfiler()
    controller = ApplicationPlacementController(
        cluster, scenario.apc, profiler=profiler
    )
    state = PlacementState(cluster)
    pending = sorted(scenario.build_jobs(), key=lambda j: j.submit_time)
    now = 0.0
    for _ in range(4):
        while pending and pending[0].submit_time <= now:
            queue.submit(pending.pop(0))
        state = controller.place([model], state, now).state
        now += 600.0
    names = {r.name for r in profiler.records}
    assert names <= set(SPAN_PHASES)
    # The vectorized-core phases actually fire in this regime.
    assert "apc.spec_tables" in names
    assert "apc.place" in names


# ----------------------------------------------------------------------
# Hypothesis: dense mirrors stay in lockstep with the dicts
# ----------------------------------------------------------------------
_APPS = ("a0", "a1", "a2", "a3")
_NODES = ("n0", "n1", "n2")
_MEM = {"a0": 256.0, "a1": 512.0, "a2": 1024.0, "a3": 128.0}

_op = st.one_of(
    st.tuples(
        st.just("place"),
        st.sampled_from(_APPS),
        st.sampled_from(_NODES),
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(
        st.just("remove"),
        st.sampled_from(_APPS),
        st.sampled_from(_NODES),
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(
        st.just("set_cpu"),
        st.sampled_from(_APPS),
        st.sampled_from(_NODES),
        st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
    ),
    st.tuples(st.just("clear_load"), st.none(), st.none(), st.none()),
)


def _fresh_state():
    cluster = Cluster.homogeneous(
        len(_NODES),
        cpu_capacity=4000.0,
        memory_capacity=4096.0,
        name_prefix="n",
    )
    return PlacementState(cluster)


def _assert_lockstep(state):
    """Dense mirrors and O(1) totals agree with the authoritative dicts
    — bitwise for the float arrays."""
    node_index = state.node_index
    mem_arr = state.memory_used_array()
    cpu_arr = state.cpu_used_array()
    for node, col in node_index.items():
        assert mem_arr[col] == state.memory_used(node)
        assert cpu_arr[col] == state.cpu_used(node)
    dense = state.dense_view()
    assert dense.node_names == tuple(node_index)
    for app_id in dense.app_ids:
        row = dense.app_index[app_id]
        for node, col in node_index.items():
            assert dense.instances[row, col] == state.instances_on(app_id, node)
            assert dense.load[row, col] == state.cpu_on(app_id, node)
        assert state.instance_count(app_id) == int(dense.instances[row].sum())
    # validate() re-derives every cache from scratch and raises on drift.
    state.validate()


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_random_edit_sequences_keep_dense_backing_in_lockstep(ops):
    state = _fresh_state()
    applied = 0
    for kind, app, node, arg in ops:
        try:
            if kind == "place":
                state.place(app, node, _MEM[app], count=arg)
            elif kind == "remove":
                state.remove(app, node, count=arg)
            elif kind == "set_cpu":
                state.set_cpu(app, node, arg)
            else:
                state.clear_load()
            applied += 1
        except (PlacementError, CapacityError):
            continue  # invalid edits must leave the state untouched
        _assert_lockstep(state)
    _assert_lockstep(state)
    # copy() must clone the mirrors, not alias them.
    clone = state.copy()
    _assert_lockstep(clone)
    assert clone.memory_used_array() is not state.memory_used_array()
    assert clone.cpu_used_array() is not state.cpu_used_array()


# ----------------------------------------------------------------------
# lex_explain / UtilityVector scalar-vs-vector parity
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=12),
)
def test_lex_explain_vector_path_matches_scalar(data, n):
    values = st.floats(
        min_value=0.0, max_value=2.0, allow_nan=False, width=64
    )
    a = data.draw(st.lists(values, min_size=n, max_size=n))
    # Near-ties exercise the tolerance band, not just clear winners.
    b = [
        x + data.draw(st.floats(min_value=-1e-6, max_value=1e-6))
        for x in a
    ]
    cand, inc = UtilityVector(a), UtilityVector(b)
    forced_vec = lex_explain(cand, inc, vectorize=True)
    forced_scalar = lex_explain(cand, inc, vectorize=False)
    assert json.dumps(forced_vec) == json.dumps(forced_scalar)


def test_lex_explain_parity_above_vector_threshold():
    """Long vectors take the numpy kernel by default; the explanation —
    including its JSON serialization — must match the scalar scan."""
    rng = random.Random(13)
    for _ in range(20):
        n = 600  # above _VECTOR_MIN_LEN: auto-vectorized
        a = [rng.uniform(0.0, 1.5) for _ in range(n)]
        b = [x + rng.uniform(-1e-7, 1e-7) for x in a]
        rng.shuffle(b)
        cand, inc = UtilityVector(a), UtilityVector(b)
        assert json.dumps(lex_explain(cand, inc, vectorize=True)) == json.dumps(
            lex_explain(cand, inc, vectorize=False)
        )


def test_utility_vector_stable_sort_matches_sorted():
    """Above the length threshold UtilityVector sorts with numpy's
    stable sort; the tuple must be bitwise what ``sorted`` produces —
    including the relative order of ``-0.0`` and ``0.0``."""
    rng = random.Random(7)
    values = [rng.choice([rng.uniform(0, 1), 0.0, -0.0, 0.5]) for _ in range(700)]
    vec = UtilityVector(values)
    expected = tuple(sorted(values))
    assert vec.values == expected
    assert all(
        repr(x) == repr(y) for x, y in zip(vec.values, expected)
    )  # -0.0 vs 0.0 agree positionally
