"""The benchmark's workloads: how each one builds its simulations.

Every workload is a list of independent job streams.  The streams of one
benchmark run are seeded from the run's ``--seed`` (stream ``k`` of seed
``s`` uses generator seed ``1000 * s + k``), so the same seed gives the
same inputs and different seeds give disjoint ones.  Several streams per
run average out the stream-to-stream variance of a saturated queue,
where one seed's decision cost can be twice another's.

Everything is assembled through ``repro.api``, as a user of the library
would; nothing here reaches into ``src/``'s private names.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.api import (
    FREE_COST_MODEL,
    AlertConfig,
    APCConfig,
    APCPolicy,
    ApplicationPlacementController,
    BatchWorkloadModel,
    Cluster,
    DecisionAudit,
    Job,
    JobQueue,
    JobTracer,
    JsonlSink,
    MetricRegistry,
    MixedWorkloadSimulator,
    Scenario,
    Simulation,
    SimulationConfig,
    SimulationTrace,
    SpanProfiler,
    TransactionalApp,
    TransactionalWorkloadModel,
    experiment_one_jobs,
)
from repro.workloads import (
    EXPERIMENT_TWO_CLASSES,
    EXPERIMENT_TWO_GOAL_FACTORS,
    exponential_arrival_times,
)

CYCLE_SECONDS = 600.0

# Experiment Three's transactional application (§5.3): maximum relative
# performance 0.66, saturating at 130,000 MHz on 25 nodes (scaled with
# the node count), 1 GB per instance so one fits beside three jobs.
_TXN_MAX_UTILITY = 0.66
_TXN_SATURATION_MHZ_AT_25 = 130_000.0
_TXN_MEMORY_MB = 1024.0
_CPU_PER_PROCESSOR = 3900.0
_PROCESSORS_PER_NODE = 4
_MEMORY_PER_NODE = 16 * 1024.0


@dataclass
class Built:
    """One stream's live object graph, ready to run."""

    simulator: MixedWorkloadSimulator
    policy: APCPolicy
    controller: ApplicationPlacementController
    queue: JobQueue
    batch_model: BatchWorkloadModel
    jobs: list
    cpu_capacity_mhz: float
    txn_model: Optional[TransactionalWorkloadModel] = None
    #: Observers by name (``registry``, ``trace``, ``audit``, ``tracer``,
    #: ``sink``); empty for unobserved workloads.
    observers: Dict[str, object] = field(default_factory=dict)
    _sink_dir: Optional[str] = None

    def close(self) -> None:
        """Close the sink and delete what it wrote."""
        sink = self.observers.get("sink")
        if sink is not None:
            sink.close()
        if self._sink_dir is not None:
            shutil.rmtree(self._sink_dir, ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Independent job streams per benchmark run.
    streams: int
    build: Callable[..., Built]
    #: Name of the unobserved workload this one must reproduce exactly.
    reference: Optional[str] = None


def _from_scenario(scenario: Scenario, profiler, **observers) -> Built:
    sim = Simulation.from_scenario(scenario, profiler=profiler, **observers)
    return Built(
        simulator=sim.simulator,
        policy=sim.policy,
        controller=sim.controller,
        queue=sim.queue,
        batch_model=sim.batch_model,
        jobs=sim.jobs,
        cpu_capacity_mhz=sum(n.cpu_capacity for n in sim.cluster.nodes),
    )


def build_exp1_scale(seed: int, profiler: Optional[SpanProfiler] = None, **_) -> Built:
    # Experiment One's identical jobs at 200 nodes.  The 350 s paper
    # inter-arrival keeps the queue empty, so the nested-loop search
    # never runs and per-cycle costs that grow with cluster size
    # (spec tables, admission, actuation) dominate.
    return _from_scenario(
        Scenario(
            name="exp1-scale",
            nodes=200,
            workload="experiment1",
            job_count=1600,
            interarrival=350.0,
            seed=seed,
        ),
        profiler,
    )


def experiment_two_quota_jobs(
    count: int, mean_interarrival: float, seed: int
) -> List[Job]:
    """Experiment Two's job stream with its class and goal-factor mix met
    exactly instead of sampled.

    ``experiment_two_jobs`` draws each job's class and goal factor
    independently, so a 200-job stream holds 20 +- 4 long-wide jobs and
    20 +- 4 jobs with the tightest goal.  Those few jobs decide how often
    the search runs, and the wall time of one stream varied by 18-29%
    (coefficient of variation) between seeds.  Here every (class, goal
    factor) pair appears ``count * class weight * factor weight`` times,
    the paper's expected mix, and the seed picks their order and the
    exponential arrival times; that variation fell to 10-12%.
    """
    mix = [
        (job_class, factor)
        for job_class, class_weight in EXPERIMENT_TWO_CLASSES
        for factor, factor_weight in EXPERIMENT_TWO_GOAL_FACTORS
        for _ in range(round(count * class_weight * factor_weight))
    ]
    if len(mix) != count:
        raise ValueError(f"{count} jobs cannot meet the Experiment Two mix exactly")
    rng = np.random.default_rng(seed)
    times = exponential_arrival_times(count, mean_interarrival, rng)
    jobs = []
    for number, (submit, k) in enumerate(zip(times, rng.permutation(count)), 1):
        job_class, factor = mix[k]
        jobs.append(
            Job.with_goal_factor(
                job_id=f"e2q-{number:05d}-{job_class.name}",
                profile=job_class.profile(),
                submit_time=float(submit),
                goal_factor=factor,
            )
        )
    return jobs


class _QuotaScenario(Scenario):
    """An Experiment Two scenario whose stream is
    :func:`experiment_two_quota_jobs`."""

    def build_jobs(self) -> List[Job]:
        return experiment_two_quota_jobs(
            self.job_count, self.interarrival_scaled, self.seed
        )


def _exp2_scenario(seed: int, alerts: Optional[AlertConfig] = None) -> Scenario:
    # Experiment Two's classes and goal factors (in their exact expected
    # mix, see experiment_two_quota_jobs) with the zero-cost action model,
    # on the paper's 25 nodes.  A 10 s paper inter-arrival (not the
    # paper's 100 s) submits each stream within a few cycles, so the
    # queue is deep from the start and the search runs on every seed.
    return _QuotaScenario(
        name="exp2-saturated",
        nodes=25,
        workload="experiment2",
        job_count=200,
        interarrival=10.0,
        seed=seed,
        sim=SimulationConfig(cost_model=FREE_COST_MODEL, alerts=alerts),
    )


def _exp2_from_scenario(scenario: Scenario, profiler, **observers) -> Built:
    built = _from_scenario(scenario, profiler, **observers)
    if not built.jobs[0].job_id.startswith("e2q-"):
        raise RuntimeError("Simulation.from_scenario ignored Scenario.build_jobs")
    return built


def build_exp2_saturated(
    seed: int, profiler: Optional[SpanProfiler] = None, **_
) -> Built:
    return _exp2_from_scenario(_exp2_scenario(seed), profiler)


def build_exp2_observed(
    seed: int,
    profiler: Optional[SpanProfiler] = None,
    scratch_dir: Optional[str] = None,
    **_,
) -> Built:
    # exp2-saturated with every observer attached and streaming to one
    # JSONL file, as ``repro telemetry`` wires them.
    sink_dir = tempfile.mkdtemp(prefix="sink-", dir=scratch_dir)
    sink = JsonlSink(os.path.join(sink_dir, "stream.jsonl"))
    registry = MetricRegistry()
    trace = SimulationTrace(sink=sink)
    audit = DecisionAudit(sink=sink, trace=trace)
    tracer = JobTracer(sink=sink)
    built = _exp2_from_scenario(
        _exp2_scenario(seed, alerts=AlertConfig()),
        profiler,
        registry=registry,
        trace=trace,
        audit=audit,
        tracer=tracer,
    )
    built.observers = {
        "registry": registry,
        "trace": trace,
        "audit": audit,
        "tracer": tracer,
        "sink": sink,
    }
    built._sink_dir = sink_dir
    return built


def build_exp3_mixed(seed: int, profiler: Optional[SpanProfiler] = None, **_) -> Built:
    # §5.3's dynamic-sharing configuration: the transactional application
    # beside Experiment One's jobs under APC, on 6 nodes.  That is below
    # APCConfig.fast_path_min_nodes, so every cycle runs the scalar solver
    # path.  The 30 jobs arrive in a burst (20 s paper inter-arrival, not
    # the paper's 200 s) so that every stream searches in about a third
    # of its cycles; see perfbench/README.md.
    nodes = 6
    cluster = Cluster.homogeneous(
        nodes,
        cpu_capacity=_PROCESSORS_PER_NODE * _CPU_PER_PROCESSOR,
        memory_capacity=_MEMORY_PER_NODE,
        cpu_per_processor=_CPU_PER_PROCESSOR,
    )
    txn_app = TransactionalApp.calibrated(
        app_id="TX",
        memory_mb=_TXN_MEMORY_MB,
        max_utility=_TXN_MAX_UTILITY,
        saturation_cpu_mhz=_TXN_SATURATION_MHZ_AT_25 * nodes / 25,
        single_thread_speed_mhz=_CPU_PER_PROCESSOR,
    )
    queue = JobQueue()
    batch_model = BatchWorkloadModel(queue, queue_window=48)
    txn_model = TransactionalWorkloadModel([txn_app])
    jobs = experiment_one_jobs(
        count=30, mean_interarrival=20.0 * 25 / nodes, seed=seed
    )
    controller = ApplicationPlacementController(
        cluster, APCConfig(cycle_length=CYCLE_SECONDS), profiler=profiler
    )
    policy = APCPolicy(controller, [txn_model, batch_model])
    simulator = MixedWorkloadSimulator(
        cluster,
        policy,
        queue,
        arrivals=jobs,
        txn_apps=[txn_app],
        batch_model=batch_model,
        config=SimulationConfig(cycle_length=CYCLE_SECONDS),
        profiler=profiler,
    )
    return Built(
        simulator=simulator,
        policy=policy,
        controller=controller,
        queue=queue,
        batch_model=batch_model,
        jobs=jobs,
        cpu_capacity_mhz=sum(n.cpu_capacity for n in cluster.nodes),
        txn_model=txn_model,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("exp1-scale", streams=6, build=build_exp1_scale),
        Workload("exp2-saturated", streams=10, build=build_exp2_saturated),
        Workload(
            "exp2-observed",
            streams=10,
            build=build_exp2_observed,
            reference="exp2-saturated",
        ),
        Workload("exp3-mixed", streams=6, build=build_exp3_mixed),
    )
}


def stream_seeds(workload: Workload, seed: int) -> List[int]:
    return [1000 * seed + k for k in range(workload.streams)]
