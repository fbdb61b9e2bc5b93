"""Edge-case coverage across modules: empty systems, saturation corners,
boundary arithmetic, and interactions between extensions."""

import math

import numpy as np
import pytest

from repro.batch.hypothetical import HypotheticalRPF
from repro.batch.job import Job, JobProfile, JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.batch.rpf import JobAllocationRPF
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.core.loadbalance import AllocatableApp, distribute_load
from repro.core.placement import AppDemand, PlacementState
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.sim.export import completions_to_csv, cycles_to_csv, metrics_to_json
from repro.sim.metrics import MetricsRecorder
from repro.policies import APCPolicy, FCFSPolicy
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.txn.router import RequestRouter
from repro.virt.costs import FREE_COST_MODEL

from tests.conftest import make_job


class TestEmptySystems:
    def test_simulation_with_no_jobs(self, small_cluster):
        queue = JobQueue()
        sim = MixedWorkloadSimulator(
            small_cluster, FCFSPolicy(small_cluster, queue), queue, arrivals=[],
            config=SimulationConfig(cycle_length=10.0),
        )
        metrics = sim.run()
        assert metrics.completions == []
        assert len(metrics.cycles) == 1  # the t=0 cycle, then quiescence

    def test_apc_on_empty_models(self, small_cluster):
        apc = ApplicationPlacementController(small_cluster, APCConfig())
        result = apc.place([], PlacementState(small_cluster), 0.0)
        assert result.utilities == {}
        assert not result.changed

    def test_export_of_empty_metrics(self):
        metrics = MetricsRecorder()
        assert cycles_to_csv(metrics).strip().startswith("time")
        assert completions_to_csv(metrics).count("\n") == 1
        import json

        doc = json.loads(metrics_to_json(metrics))
        assert doc["summary"]["completions"] == 0


class TestSaturationCorners:
    def test_job_rpf_at_exact_deadline_boundary(self):
        """A job whose earliest completion is exactly its goal: u_max = 0."""
        job = make_job("j", work=1000, max_speed=500, goal_factor=1.0)
        rpf = JobAllocationRPF(job, now=0.0)
        assert rpf.max_utility == pytest.approx(0.0)
        assert rpf.required_cpu(0.0) == pytest.approx(500.0)
        assert rpf.required_cpu(0.01) == math.inf

    def test_job_past_deadline_has_negative_ceiling(self):
        job = make_job("j", work=1000, max_speed=500, goal_factor=1.0)
        rpf = JobAllocationRPF(job, now=5.0)
        assert rpf.max_utility < 0
        # The ceiling is still reachable: max speed is demanded for any
        # level at or above it.
        assert rpf.required_cpu(rpf.max_utility) == pytest.approx(500.0)

    def test_hypothetical_with_every_job_complete(self):
        jobs = [make_job(f"j{i}", work=100) for i in range(3)]
        for job in jobs:
            job.advance(100)
        hypo = HypotheticalRPF([JobAllocationRPF(j, 0.0) for j in jobs])
        assert hypo.max_aggregate_demand == 0.0
        assert all(u == 1.0 for u in hypo.utilities_array(0.0))
        assert hypo.equalized_level(123.0) == 1.0

    def test_distribute_load_all_apps_unplaced(self, small_cluster):
        state = PlacementState(small_cluster)
        app = AllocatableApp(
            demand=AppDemand(app_id="ghost", memory_mb=10),
            rpf=JobAllocationRPF(make_job("ghost"), 0.0),
        )
        result = distribute_load(state, {"ghost": app})
        assert result.allocations == {}


class TestQueueWindowEdges:
    def test_window_of_zero_blocks_all_waiting_jobs(self, single_node_cluster):
        queue = JobQueue()
        for i in range(3):
            queue.submit(make_job(f"j{i}", memory=750))
        model = BatchWorkloadModel(queue, queue_window=0)
        assert model.placement_candidates(0.0) == []
        apc = ApplicationPlacementController(
            single_node_cluster, APCConfig(cycle_length=1.0)
        )
        result = apc.place([model], PlacementState(single_node_cluster), 0.0)
        assert result.state.app_ids == []

    def test_window_prioritizes_urgency_not_submission(self):
        queue = JobQueue()
        queue.submit(make_job("early-slack", submit=0.0, goal_factor=8))
        queue.submit(make_job("late-tight", submit=1.0, goal_factor=1.1))
        model = BatchWorkloadModel(queue, queue_window=1)
        assert model.placement_candidates(2.0) == ["late-tight"]


class TestRouterEdges:
    def test_single_instance_gets_everything(self):
        decision = RequestRouter(max_utilization=1.0).route(
            10.0, 5.0, {"n": 1000.0}, 1000.0
        )
        assert decision.admitted == {"n": pytest.approx(10.0)}

    def test_zero_speed_instances_ignored(self):
        decision = RequestRouter().route(
            10.0, 5.0, {"a": 0.0, "b": 500.0}, 1000.0
        )
        assert "a" not in decision.admitted
        assert decision.admitted_rate + decision.shed_rate == pytest.approx(10.0)


class TestParallelAndFailureInteraction:
    def test_parallel_job_survives_partial_node_loss(self):
        """A 2-way parallel job loses one of its two nodes mid-run but
        keeps executing on the survivor."""
        from repro.sim.simulator import NodeFailure

        cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=1000)
        queue = JobQueue()
        batch = BatchWorkloadModel(queue)
        profile = JobProfile.single_stage(20_000, 1000, memory_mb=700)
        job = Job.with_goal_factor(
            "p", profile, submit_time=0.0, goal_factor=6.0, parallelism=2
        )
        policy = APCPolicy(
            ApplicationPlacementController(cluster, APCConfig(cycle_length=5.0)),
            [batch],
        )
        sim = MixedWorkloadSimulator(
            cluster, policy, queue, arrivals=[job], batch_model=batch,
            config=SimulationConfig(
                cycle_length=5.0, cost_model=FREE_COST_MODEL,
                failures=[NodeFailure("node1", fail_time=5.0, duration=1e9)],
            ),
        )
        metrics = sim.run()
        assert len(metrics.completions) == 1
        record = metrics.completions[0]
        # 10 s of 2-way work; one instance lost at t=5 after 10,000 Mcy
        # done; the remaining 10,000 Mcy run at 1000 MHz: done at 15.
        assert record.completion_time == pytest.approx(15.0)


class TestNumericalRobustness:
    def test_huge_aggregate_does_not_overflow(self):
        jobs = [make_job(f"j{i}", work=1e9, max_speed=1e6, goal_factor=2)
                for i in range(4)]
        hypo = HypotheticalRPF([JobAllocationRPF(j, 0.0) for j in jobs])
        utilities = hypo.utilities_array(1e12)
        assert np.isfinite(utilities).all()

    def test_tiny_remaining_work_rounds_cleanly(self):
        job = make_job("j", work=1000, max_speed=500, goal_factor=5)
        job.advance(1000 - 1e-9)
        rpf = JobAllocationRPF(job, 0.0)
        assert rpf.utility(500) <= rpf.max_utility
        assert np.isfinite(rpf.required_cpu(0.0))

    def test_floor_utility_is_the_shared_constant(self):
        job = make_job("j", work=1000, max_speed=500, goal_factor=5)
        rpf = JobAllocationRPF(job, 0.0)
        assert rpf.utility(0.0) == NEGATIVE_INFINITY_UTILITY
