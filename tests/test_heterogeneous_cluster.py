"""Tests on clusters of *heterogeneous* nodes (§3.2 allows them; the
paper's experiments use homogeneous ones, so this coverage guards the
general case)."""

import pytest

from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster, Node, NodeSpec
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.core.placement import PlacementState
from repro.policies import APCPolicy, FCFSPolicy
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.virt.costs import FREE_COST_MODEL

from tests.conftest import make_job


@pytest.fixture
def mixed_cluster() -> Cluster:
    """A big node, a small node, and a memory-rich but slow node."""
    return Cluster(
        [
            Node("big", NodeSpec(cpu_capacity=4000, memory_capacity=2000)),
            Node("small", NodeSpec(cpu_capacity=1000, memory_capacity=1000)),
            Node("slowfat", NodeSpec(cpu_capacity=500, memory_capacity=8000)),
        ]
    )


class TestPlacementOnMixedNodes:
    def test_greedy_prefers_cpu_headroom(self, mixed_cluster):
        queue = JobQueue()
        queue.submit(make_job("j", work=4000, max_speed=2000, memory=750))
        batch = BatchWorkloadModel(queue)
        apc = ApplicationPlacementController(mixed_cluster, APCConfig(cycle_length=10.0))
        result = apc.place([batch], PlacementState(mixed_cluster), 0.0)
        assert result.state.nodes_of("j") == ["big"]
        assert result.allocations["j"] == pytest.approx(2000.0)

    def test_memory_bound_job_lands_on_fat_node(self, mixed_cluster):
        queue = JobQueue()
        queue.submit(make_job("fatjob", work=1000, max_speed=400, memory=5000))
        batch = BatchWorkloadModel(queue)
        apc = ApplicationPlacementController(mixed_cluster, APCConfig(cycle_length=10.0))
        result = apc.place([batch], PlacementState(mixed_cluster), 0.0)
        assert result.state.nodes_of("fatjob") == ["slowfat"]
        # CPU capped by the slow node, below the job's max speed.
        assert result.allocations["fatjob"] == pytest.approx(400.0)

    def test_mixed_population_never_overcommits(self, mixed_cluster):
        queue = JobQueue()
        for i, (mem, speed) in enumerate(
            [(750, 2000), (750, 1000), (5000, 400), (900, 800), (900, 800)]
        ):
            queue.submit(
                make_job(f"j{i}", work=speed * 10, max_speed=speed, memory=mem,
                         goal_factor=4)
            )
        batch = BatchWorkloadModel(queue)
        apc = ApplicationPlacementController(mixed_cluster, APCConfig(cycle_length=10.0))
        result = apc.place([batch], PlacementState(mixed_cluster), 0.0)
        result.state.validate()

    def test_full_simulation_on_mixed_nodes(self, mixed_cluster):
        queue = JobQueue()
        batch = BatchWorkloadModel(queue)
        jobs = [
            make_job(f"j{i}", work=2000, max_speed=500, memory=700,
                     submit=float(i), goal_factor=8)
            for i in range(6)
        ]
        policy = APCPolicy(
            ApplicationPlacementController(mixed_cluster, APCConfig(cycle_length=5.0)),
            [batch],
        )
        sim = MixedWorkloadSimulator(
            mixed_cluster, policy, queue, arrivals=jobs, batch_model=batch,
            config=SimulationConfig(cycle_length=5.0, cost_model=FREE_COST_MODEL),
        )
        metrics = sim.run()
        assert len(metrics.completions) == 6
        assert metrics.deadline_satisfaction_rate() == 1.0

    def test_fcfs_first_fit_respects_per_node_limits(self, mixed_cluster):
        queue = JobQueue()
        # Needs 1500 MHz at full speed: only "big" qualifies.
        queue.submit(make_job("wide", work=3000, max_speed=1500, memory=500))
        policy = FCFSPolicy(mixed_cluster, queue)
        state = policy.decide(PlacementState(mixed_cluster), 0.0)
        assert state.nodes_of("wide") == ["big"]
