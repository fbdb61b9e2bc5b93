"""Tests for the node failure-injection extension."""

import pytest

from repro.batch.job import JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.errors import ConfigurationError, SimulationError
from repro.policies import APCPolicy, EDFPolicy, FCFSPolicy, PartitionedPolicy
from repro.sim.simulator import (
    MixedWorkloadSimulator,
    NodeFailure,
    SimulationConfig,
)
from repro.sim.trace import SimulationTrace, TraceEventKind
from repro.txn.application import TransactionalApp
from repro.txn.workload import ConstantTrace
from repro.virt.costs import FREE_COST_MODEL

from tests.conftest import make_job


def run_sim(jobs, failures, policy_name="APC", nodes=2, cycle=10.0, trace=None):
    cluster = Cluster.homogeneous(nodes, cpu_capacity=1000, memory_capacity=2000)
    queue = JobQueue()
    batch = BatchWorkloadModel(queue)
    if policy_name == "APC":
        policy = APCPolicy(
            ApplicationPlacementController(cluster, APCConfig(cycle_length=cycle)),
            [batch],
        )
    elif policy_name == "EDF":
        policy = EDFPolicy(cluster, queue)
    else:
        policy = FCFSPolicy(cluster, queue)
    sim = MixedWorkloadSimulator(
        cluster, policy, queue, arrivals=jobs, batch_model=batch,
        config=SimulationConfig(
            cycle_length=cycle, cost_model=FREE_COST_MODEL, failures=failures
        ),
        trace=trace,
    )
    return sim, sim.run()


def node_restores(trace, node):
    return trace.events(
        kinds=[TraceEventKind.RESUME], subject=node,
        predicate=lambda e: e.detail.get("event") == "node-restore",
    )


class TestNodeFailureValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            NodeFailure("node0", fail_time=-1.0)
        with pytest.raises(ConfigurationError):
            NodeFailure("node0", fail_time=0.0, duration=0.0)

    def test_unknown_node_rejected_at_run(self):
        sim, _ = None, None
        cluster = Cluster.homogeneous(1, cpu_capacity=1000, memory_capacity=2000)
        queue = JobQueue()
        sim = MixedWorkloadSimulator(
            cluster, FCFSPolicy(cluster, queue), queue,
            arrivals=[make_job("j", memory=750, max_speed=500)],
            config=SimulationConfig(
                cycle_length=10.0,
                failures=[NodeFailure("ghost", fail_time=1.0)],
            ),
        )
        with pytest.raises(SimulationError):
            sim.run()


class TestCrashSemantics:
    def test_crash_restarts_job_and_it_still_completes(self):
        # One job, one node, crash mid-run with a quick recovery.
        job = make_job("j", work=5000, max_speed=500, memory=750,
                       submit=0.0, goal_factor=20)
        failures = [NodeFailure("node0", fail_time=5.0, duration=4.0)]
        sim, metrics = run_sim([job], failures, nodes=1)
        assert len(metrics.completions) == 1
        record = metrics.completions[0]
        # Progress was lost at t=5 and the node was back by t=9; the job
        # restarted at the t=10 cycle: completion at 10 + 10 = 20.
        assert record.completion_time == pytest.approx(20.0)

    def test_graceful_drain_keeps_progress(self):
        job = make_job("j", work=5000, max_speed=500, memory=750,
                       submit=0.0, goal_factor=20)
        failures = [
            NodeFailure("node0", fail_time=5.0, duration=4.0, lose_progress=False)
        ]
        sim, metrics = run_sim([job], failures, nodes=1)
        record = metrics.completions[0]
        # 5 s of work kept; 5 s left; resumes at t=10: completes at 15.
        assert record.completion_time == pytest.approx(15.0)
        assert record.resume_count >= 1

    def test_survivors_unaffected(self):
        a = make_job("a", work=5000, max_speed=500, memory=1500,
                     submit=0.0, goal_factor=20)
        b = make_job("b", work=5000, max_speed=500, memory=1500,
                     submit=0.0, goal_factor=20)
        failures = [NodeFailure("node1", fail_time=5.0, duration=1e9)]
        sim, metrics = run_sim([a, b], failures, nodes=2)
        by_id = {c.job_id: c for c in metrics.completions}
        times = sorted(c.completion_time for c in by_id.values())
        # One job sailed through (t=10); the other restarted on the
        # surviving node once capacity freed.
        assert times[0] == pytest.approx(10.0)
        assert times[1] > 10.0

    def test_permanent_failure_halves_throughput(self):
        jobs = [
            make_job(f"j{i}", work=5000, max_speed=500, memory=1500,
                     submit=0.0, goal_factor=40)
            for i in range(4)
        ]
        failures = [NodeFailure("node1", fail_time=0.0)]
        sim, metrics = run_sim(jobs, failures, nodes=2)
        assert len(metrics.completions) == 4
        # Serial on one node: completions at 10, 20, 30, 40.
        assert max(c.completion_time for c in metrics.completions) == pytest.approx(40.0)
        assert not sim.state.cluster.node("node1").available

    def test_failed_node_contributes_no_capacity(self):
        cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=2000)
        node = cluster.node("node0")
        node.available = False
        assert node.cpu_capacity == 0.0
        assert node.memory_capacity == 0.0
        assert cluster.total_cpu_capacity == 1000.0
        node.available = True
        assert node.cpu_capacity == 1000.0


class TestOverlappingOutageWindows:
    def test_nested_window_end_does_not_restore_node(self):
        # Outer window covers t=5..19; a nested one covers t=6..9.  The
        # nested window ending must NOT bring the node back at t=9 — the
        # job can only restart at the t=20 cycle (first after t=19).
        job = make_job("j", work=5000, max_speed=500, memory=750,
                       submit=0.0, goal_factor=40)
        failures = [
            NodeFailure("node0", fail_time=5.0, duration=14.0),
            NodeFailure("node0", fail_time=6.0, duration=3.0),
        ]
        trace = SimulationTrace()
        sim, metrics = run_sim([job], failures, nodes=1, trace=trace)
        record = metrics.completions[0]
        assert record.completion_time == pytest.approx(30.0)
        assert sim.state.cluster.node("node0").available
        # Exactly one restore, when the *last* window ends.
        assert [e.time for e in node_restores(trace, "node0")] == [19.0]

    def test_back_to_back_windows_keep_node_down(self):
        # Two abutting windows: 5..10 and 10..15.  The restore of the
        # first and the failure of the second coincide at t=10; the node
        # must still be down for the t=10 control cycle, so the job
        # restarts only at t=20.
        job = make_job("j", work=5000, max_speed=500, memory=750,
                       submit=0.0, goal_factor=40)
        failures = [
            NodeFailure("node0", fail_time=5.0, duration=5.0),
            NodeFailure("node0", fail_time=10.0, duration=5.0),
        ]
        sim, metrics = run_sim([job], failures, nodes=1)
        assert metrics.completions[0].completion_time == pytest.approx(30.0)
        assert sim.state.cluster.node("node0").available

    def test_back_to_back_windows_order_independent(self):
        # Same two windows listed in reverse order: the second failure's
        # event then fires *before* the first's restore at t=10 and the
        # reference count alone keeps the node down.
        job = make_job("j", work=5000, max_speed=500, memory=750,
                       submit=0.0, goal_factor=40)
        failures = [
            NodeFailure("node0", fail_time=10.0, duration=5.0),
            NodeFailure("node0", fail_time=5.0, duration=5.0),
        ]
        trace = SimulationTrace()
        sim, metrics = run_sim([job], failures, nodes=1, trace=trace)
        assert metrics.completions[0].completion_time == pytest.approx(30.0)
        # The t=10 restore is swallowed by the still-open second window.
        assert [e.time for e in node_restores(trace, "node0")] == [15.0]

    def test_identical_duplicate_windows(self):
        job = make_job("j", work=5000, max_speed=500, memory=750,
                       submit=0.0, goal_factor=40)
        failures = [
            NodeFailure("node0", fail_time=5.0, duration=4.0),
            NodeFailure("node0", fail_time=5.0, duration=4.0),
        ]
        trace = SimulationTrace()
        sim, metrics = run_sim([job], failures, nodes=1, trace=trace)
        # Identical to the single-window crash test: restart at t=10.
        assert metrics.completions[0].completion_time == pytest.approx(20.0)
        assert [e.time for e in node_restores(trace, "node0")] == [9.0]
        assert sim.state.cluster.node("node0").available


class TestPartitionedPolicyUnderFailure:
    def test_txn_partition_survives_node_loss(self):
        cluster = Cluster.homogeneous(3, cpu_capacity=1000, memory_capacity=2000)
        queue = JobQueue()
        app = TransactionalApp(
            app_id="web", memory_mb=200, demand_mcycles=10.0,
            response_time_goal=0.1, trace=ConstantTrace(20.0),
            single_thread_speed_mhz=1000.0,
        )
        policy = PartitionedPolicy(cluster, ["node0", "node1"], app, queue)
        sim = MixedWorkloadSimulator(
            cluster, policy, queue,
            arrivals=[make_job("j", work=2000, max_speed=500, memory=750,
                               submit=0.0, goal_factor=20)],
            txn_apps=[app],
            config=SimulationConfig(
                cycle_length=10.0, cost_model=FREE_COST_MODEL,
                failures=[NodeFailure("node0", fail_time=5.0)],
            ),
        )
        metrics = sim.run()
        assert len(metrics.completions) == 1
        # After the failure the app still serves from node1.
        final_alloc = metrics.cycles[-1].txn_allocation_mhz
        assert 0 < final_alloc <= 1000.0
