"""Tests for multi-stage jobs end to end (stage speed/memory changes)."""

import pytest

from repro.batch.job import Job, JobProfile, JobStage
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.core.placement import PlacementState
from repro.policies import APCPolicy
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.virt.costs import FREE_COST_MODEL


def staged_job(job_id="staged", submit=0.0, goal_factor=3.0):
    """Stage 1: fast and small; stage 2: slow and memory-hungry."""
    return Job.with_goal_factor(
        job_id=job_id,
        profile=JobProfile(
            [
                JobStage(work_mcycles=5000, max_speed_mhz=1000, memory_mb=400),
                JobStage(work_mcycles=2000, max_speed_mhz=200, memory_mb=1200),
            ]
        ),
        submit_time=submit,
        goal_factor=goal_factor,
    )


class TestStageTransitions:
    def test_best_time_accounts_for_stage_speeds(self):
        job = staged_job()
        # 5000/1000 + 2000/200 = 5 + 10 = 15 s
        assert job.profile.best_execution_time == pytest.approx(15.0)

    def test_speed_capped_by_current_stage(self):
        job = staged_job()
        assert job.max_speed == 1000
        job.advance(5000)
        assert job.max_speed == 200
        assert job.memory_mb == 1200

    def test_simulation_respects_stage_speed_cap(self):
        """The simulator re-reads the stage cap each cycle: with 2 s
        cycles the job runs stage 1 at 1000 MHz, then stage 2 at 200."""
        cluster = Cluster.homogeneous(1, cpu_capacity=2000, memory_capacity=2000)
        queue = JobQueue()
        batch = BatchWorkloadModel(queue)
        policy = APCPolicy(
            ApplicationPlacementController(cluster, APCConfig(cycle_length=2.0)),
            [batch],
        )
        sim = MixedWorkloadSimulator(
            cluster, policy, queue, arrivals=[staged_job()], batch_model=batch,
            config=SimulationConfig(cycle_length=2.0, cost_model=FREE_COST_MODEL),
        )
        metrics = sim.run()
        completion = metrics.completions[0].completion_time
        # Ideal is 15 s; cycle granularity may add up to ~2 cycles of
        # cap carryover (the boundary-crossing cycle runs at the old cap).
        assert 15.0 - 1e-6 <= completion <= 21.0

    def test_apc_refreshes_memory_demand_between_stages(self):
        """A carried-over placement must adopt the new stage's memory:
        two staged jobs fit together in stage 1 (400 MB each) but not in
        stage 2 (1200 MB each on a 2000 MB node)."""
        cluster = Cluster.homogeneous(1, cpu_capacity=2000, memory_capacity=2000)
        queue = JobQueue()
        a, b = staged_job("a"), staged_job("b")
        queue.submit(a)
        queue.submit(b)
        batch = BatchWorkloadModel(queue)
        apc = ApplicationPlacementController(cluster, APCConfig(cycle_length=2.0))
        state = apc.place([batch], PlacementState(cluster), 0.0).state
        assert state.is_placed("a") and state.is_placed("b")

        # Both jobs cross into stage 2.
        from repro.batch.job import JobStatus

        for job in (a, b):
            job.status = JobStatus.RUNNING
            job.node = "node0"
            job.advance(5000)
        result = apc.place([batch], state, 10.0)
        result.state.validate()
        placed = [j for j in ("a", "b") if result.state.is_placed(j)]
        assert len(placed) == 1  # only one 1200 MB instance fits

    def test_forget_memory_demand_guard(self):
        cluster = Cluster.homogeneous(1, cpu_capacity=2000, memory_capacity=2000)
        state = PlacementState(cluster)
        state.place("a", "node0", 400)
        from repro.errors import PlacementError

        with pytest.raises(PlacementError):
            state.forget_memory_demand("a")
        state.remove("a", "node0")
        state.forget_memory_demand("a")
        state.place("a", "node0", 900)  # new demand accepted
        assert state.memory_demand_of("a") == 900
