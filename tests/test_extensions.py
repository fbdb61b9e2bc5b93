"""Tests for the paper's future-work extensions implemented here:
moldable parallel jobs and the standalone LRPF policy."""

import pytest

from repro.batch.job import Job, JobProfile, JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.policies import lrpf_assign
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.core.placement import PlacementState
from repro.errors import ConfigurationError
from repro.policies import LRPFPolicy
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.virt.costs import FREE_COST_MODEL

from tests.conftest import make_job


def parallel_job(job_id="p", parallelism=4, hours=1.0, goal_factor=2.0,
                 max_speed=3900.0, memory=4000.0, submit=0.0):
    profile = JobProfile.single_stage(
        work_mcycles=max_speed * 3600.0 * hours * parallelism,
        max_speed_mhz=max_speed,
        memory_mb=memory,
    )
    return Job.with_goal_factor(
        job_id=job_id, profile=profile, submit_time=submit,
        goal_factor=goal_factor, parallelism=parallelism,
    )


class TestParallelJobModel:
    def test_aggregate_speed_scales_with_parallelism(self):
        job = parallel_job(parallelism=4)
        assert job.max_speed == pytest.approx(4 * 3900.0)
        assert job.max_speed_per_instance == pytest.approx(3900.0)

    def test_best_time_scales_with_parallelism(self):
        job = parallel_job(parallelism=4, hours=1.0)
        assert job.best_execution_time == pytest.approx(3600.0)
        assert job.remaining_best_time == pytest.approx(3600.0)

    def test_goal_factor_accounts_for_parallelism(self):
        job = parallel_job(parallelism=4, goal_factor=2.0)
        assert job.goal_factor == pytest.approx(2.0)
        assert job.completion_goal == pytest.approx(7200.0)

    def test_parallelism_validation(self):
        with pytest.raises(ConfigurationError):
            parallel_job(parallelism=0)

    def test_sequential_default_unchanged(self):
        job = make_job()
        assert job.parallelism == 1
        assert job.max_speed == job.max_speed_per_instance

    def test_model_spec_is_divisible(self):
        queue = JobQueue()
        queue.submit(parallel_job())
        spec = BatchWorkloadModel(queue).app_specs(0.0)["p"]
        assert spec.demand.divisible
        assert spec.demand.max_instances == 4
        assert spec.demand.max_cpu_per_instance_mhz == pytest.approx(3900.0)


class TestParallelJobPlacement:
    def test_apc_spreads_parallel_job(self, small_cluster):
        queue = JobQueue()
        queue.submit(parallel_job(parallelism=4))
        batch = BatchWorkloadModel(queue)
        apc = ApplicationPlacementController(
            small_cluster, APCConfig(cycle_length=600.0)
        )
        result = apc.place([batch], PlacementState(small_cluster), 0.0)
        # Spread across all four nodes, one instance each, at full speed.
        assert result.state.instance_count("p") == 4
        assert result.allocations["p"] == pytest.approx(4 * 3900.0, rel=1e-3)

    def test_simulated_completion_uses_all_instances(self, small_cluster):
        queue = JobQueue()
        batch = BatchWorkloadModel(queue)
        apc = ApplicationPlacementController(
            small_cluster, APCConfig(cycle_length=600.0)
        )
        from repro.policies import APCPolicy

        sim = MixedWorkloadSimulator(
            small_cluster,
            APCPolicy(apc, [batch]),
            queue,
            arrivals=[parallel_job(parallelism=4, hours=1.0)],
            batch_model=batch,
            config=SimulationConfig(cycle_length=600.0, cost_model=FREE_COST_MODEL),
        )
        metrics = sim.run()
        assert metrics.completions[0].completion_time == pytest.approx(3600.0)


class TestLRPFPolicy:
    def test_assign_prioritizes_least_headroom(self):
        cluster = Cluster.homogeneous(1, cpu_capacity=2000, memory_capacity=800)
        slack = make_job("slack", memory=750, max_speed=500, submit=0.0, goal_factor=8)
        tight = make_job("tight", memory=750, max_speed=500, submit=1.0, goal_factor=1.1)
        assignment = lrpf_assign([slack, tight], cluster, current={}, now=1.0)
        assert list(assignment) == ["tight"]

    def test_assign_keeps_current_node(self):
        cluster = Cluster.homogeneous(2, cpu_capacity=2000, memory_capacity=1600)
        job = make_job("j", memory=750, max_speed=500)
        job.status = JobStatus.RUNNING
        assignment = lrpf_assign([job], cluster, current={"j": "node1"}, now=0.0)
        assert assignment["j"] == "node1"

    def test_policy_runs_end_to_end(self):
        cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=2000)
        queue = JobQueue()
        jobs = [
            make_job(f"j{i}", work=5000, max_speed=500, memory=750,
                     submit=float(i), goal_factor=6)
            for i in range(5)
        ]
        policy = LRPFPolicy(cluster, queue)
        sim = MixedWorkloadSimulator(
            cluster, policy, queue, arrivals=jobs,
            config=SimulationConfig(cycle_length=10.0, cost_model=FREE_COST_MODEL),
        )
        metrics = sim.run()
        assert len(metrics.completions) == 5
        assert metrics.deadline_satisfaction_rate() == 1.0
