"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.batch.job import Job, JobProfile
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig


@pytest.fixture
def small_cluster() -> Cluster:
    """Four of the paper's Experiment One nodes."""
    return Cluster.homogeneous(
        4,
        cpu_capacity=4 * 3900,
        memory_capacity=16 * 1024,
        cpu_per_processor=3900,
    )


@pytest.fixture
def single_node_cluster() -> Cluster:
    """The illustrative example's node: 1000 MHz, 2000 MB."""
    return Cluster.homogeneous(1, cpu_capacity=1000, memory_capacity=2000)


def make_job(
    job_id: str = "j1",
    work: float = 4000.0,
    max_speed: float = 1000.0,
    memory: float = 750.0,
    submit: float = 0.0,
    goal_factor: float = 5.0,
    min_speed: float = 0.0,
) -> Job:
    """A single-stage job in the style of the paper's Table 1."""
    profile = JobProfile.single_stage(
        work_mcycles=work,
        max_speed_mhz=max_speed,
        memory_mb=memory,
        min_speed_mhz=min_speed,
    )
    return Job.with_goal_factor(
        job_id=job_id, profile=profile, submit_time=submit, goal_factor=goal_factor
    )


@pytest.fixture
def illustrative_jobs():
    """J1, J2, J3 of the illustrative example (Scenario 1 goals)."""
    j1 = make_job("J1", work=4000, max_speed=1000, submit=0.0, goal_factor=5)
    j2 = make_job("J2", work=2000, max_speed=500, submit=1.0, goal_factor=4)
    j3 = make_job("J3", work=4000, max_speed=500, submit=2.0, goal_factor=1)
    return [j1, j2, j3]


@pytest.fixture
def queue_with(illustrative_jobs) -> JobQueue:
    queue = JobQueue()
    for job in illustrative_jobs:
        queue.submit(job)
    return queue


def solver_config(fast=None) -> APCConfig:
    """An ``APCConfig`` on one solver path.

    ``True`` forces the fast path at any cluster size
    (``fast_path_min_nodes=0``, which ``Simulation`` also passes on to
    the batch model's job-count floor); ``False`` keeps the threshold
    above every test cluster, so the reference path runs; ``None`` keeps
    the default configuration.
    """
    if fast is None:
        return APCConfig()
    return APCConfig(fast_path_min_nodes=0 if fast else 1000)


def assert_solver_path(profiler, fast: bool) -> None:
    """Pin which APC solver path a profiled run took.

    The fast path (memo plus array kernels) records ``apc.spec_tables``
    spans and the reference path never does, so an identity pin between
    the two cannot silently compare one path against itself.
    """
    tables = sum(r.name == "apc.spec_tables" for r in profiler.records)
    expected = "fast" if fast else "reference"
    assert (tables > 0) == fast, (
        f"expected the {expected} path, saw {tables} apc.spec_tables spans"
    )
