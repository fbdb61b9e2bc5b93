"""Batch workload model: plugs the job queue into the placement controller.

Implements the :class:`~repro.core.workload.WorkloadModel` protocol for
long-running jobs:

* each incomplete job becomes one singleton application whose demand comes
  from its current stage and whose allocation RPF is the per-job
  hypothetical function (:class:`~repro.batch.rpf.JobAllocationRPF`);
* evaluating a candidate allocation follows §4.2 "Evaluating placement
  decisions": every placed job's consumed work ``α*`` is advanced by
  ``ω_m · T``; the hypothetical relative performance is rebuilt at
  ``t_now + T``; the aggregate batch allocation of the next cycle
  (``ω_g = Σ_m ω_m``) is assumed to persist; per-job predictions are read
  off the ``W``/``V`` interpolation (equation (6)).  Jobs that would
  finish *within* the next cycle are predicted directly from their actual
  completion time.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.batch.hypothetical import (
    DEFAULT_UTILITY_LEVELS,
    HypotheticalRPF,
    MethodLike,
    PredictionMethod,
)
from repro.batch.job import Job, JobStatus
from repro.batch.queue import JobQueue
from repro.batch.rpf import JobAllocationRPF, job_relative_performance
from repro.core.loadbalance import AllocatableApp, SpecArrays
from repro.core.placement import AppDemand
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.units import EPSILON

#: Incomplete-job count below which the scalar reference paths beat the
#: array kernels (numpy call overhead dominates tiny batches; measured
#: crossover is around a hundred jobs on the benchmark ladder's 10-node
#: rung).  Overridable per model via ``vectorize_min_jobs``.
VECTORIZE_MIN_JOBS = 96


class _JobTable:
    """Column-oriented snapshot of the incomplete-job set.

    Rebuilt whenever the job list or any job's progress changes (see
    :meth:`matches`); within one control cycle the controller freezes
    job state, so a single table serves every evaluate/specs/candidates
    call of the cycle.  All derived columns hold exactly the python
    floats the job properties return — the vectorized paths built on
    top are bitwise equal to the scalar reference.
    """

    __slots__ = (
        "jobs", "ids", "ids_tuple", "index", "consumed", "consumed_bytes",
        "rem_list", "goal_list", "rel_list", "ms_list", "rb_list",
        "mem_list", "min_speed_list", "maxpi_list", "par_list", "stage_list",
        "remaining", "goal", "relative_goal", "max_speed", "remaining_best",
        "_umax_now", "_umax",
    )

    def __init__(self, jobs: Sequence[Job]) -> None:
        self.jobs = list(jobs)
        self.ids = [job.job_id for job in jobs]
        self.ids_tuple = tuple(self.ids)
        self.index = {job_id: i for i, job_id in enumerate(self.ids)}
        self.consumed = [job.cpu_consumed for job in jobs]
        rem, goal, rel, ms, rb = [], [], [], [], []
        mem, min_speed, maxpi, par = [], [], [], []
        stages = []
        for job in jobs:
            stage = job.current_stage
            stages.append(stage)
            rem.append(job.remaining_work)
            goal.append(job.completion_goal)
            rel.append(job.relative_goal)
            ms.append(job.max_speed)
            rb.append(job.remaining_best_time)
            mem.append(stage.memory_mb)
            min_speed.append(stage.min_speed_mhz)
            maxpi.append(stage.max_speed_mhz)
            par.append(job.parallelism)
        self.rem_list = rem
        self.goal_list = goal
        self.rel_list = rel
        self.ms_list = ms
        self.rb_list = rb
        self.mem_list = mem
        self.min_speed_list = min_speed
        self.maxpi_list = maxpi
        self.par_list = par
        self.stage_list = stages
        self.remaining = np.array(rem)
        self.goal = np.array(goal)
        self.relative_goal = np.array(rel)
        self.max_speed = np.array(ms)
        self.remaining_best = np.array(rb)
        self.consumed_bytes = np.array(self.consumed).tobytes()
        self._umax_now: Optional[float] = None
        self._umax: Optional[np.ndarray] = None

    def matches(self, jobs: Sequence[Job]) -> bool:
        """Whether this table still describes ``jobs`` exactly.

        Identity of the job objects plus their progress; every other
        job attribute the model reads (stage data, goals, parallelism)
        is a pure function of progress or construction-time constants.
        """
        mine = self.jobs
        if len(jobs) != len(mine):
            return False
        if jobs is not mine and not all(map(operator.is_, jobs, mine)):
            return False
        return [job.cpu_consumed for job in jobs] == self.consumed

    def u_max_array(self, now: float) -> np.ndarray:
        """``JobAllocationRPF(job, now).max_utility`` per job."""
        if self._umax is None or self._umax_now != now:
            earliest = now + self.remaining_best
            u = (self.goal - earliest) / self.relative_goal
            self._umax = np.where(self.remaining <= EPSILON, 1.0, u)
            self._umax_now = now
        return self._umax


class BatchWorkloadModel:
    """The long-running workload as seen by the placement controller.

    Parameters
    ----------
    queue:
        The scheduler's job queue (shared, live object).
    levels:
        Sampling points for the hypothetical relative performance.
    queue_window:
        At most this many *not-started* jobs (in submission order) are
        offered as placement candidates each cycle.  All incomplete jobs
        still participate in prediction — the window only bounds the
        search space, mirroring the real system's need to keep the online
        algorithm's cycle time low.  ``None`` = no limit.
    prediction_method:
        A :class:`~repro.batch.hypothetical.PredictionMethod` (or its
        string value): the exact equalized-level solve or the paper's
        interpolation.
    cache:
        Memoize :meth:`evaluate` per control instant.  The prediction is
        a pure function of (time, horizon, per-job progress, per-job
        effective speed), so the memo is exact; it exists because the
        controller's candidate sweep re-evaluates many placements that
        grant the batch workload identical speeds.
    vectorize_min_jobs:
        Minimum incomplete-job count for evaluate/specs/candidates to run
        on the dense job-table kernels; below it the table-building
        overhead outweighs the loops it replaces and the scalar
        reference runs instead (bitwise identical results either way).
        ``None`` picks the tuned default (:data:`VECTORIZE_MIN_JOBS`);
        pass 0 to force the kernels at any size, or a count above the
        job set to force the scalar reference.
    """

    def __init__(
        self,
        queue: JobQueue,
        levels: Sequence[float] = DEFAULT_UTILITY_LEVELS,
        queue_window: Optional[int] = None,
        prediction_method: MethodLike = PredictionMethod.EXACT,
        *,
        cache: bool = True,
        vectorize_min_jobs: Optional[int] = None,
    ) -> None:
        self._queue = queue
        self._levels = tuple(levels)
        self._queue_window = queue_window
        self._prediction_method = PredictionMethod.coerce(prediction_method)
        self._cache_enabled = cache
        self._vectorize_min_jobs = (
            VECTORIZE_MIN_JOBS if vectorize_min_jobs is None else vectorize_min_jobs
        )
        #: evaluate() results keyed by per-job (id, progress, speed);
        #: valid for one (now, horizon) control instant at a time.
        self._eval_cache: Dict[Tuple, Dict[str, float]] = {}
        self._eval_cache_instant: Optional[Tuple[float, float]] = None
        self._c_eval_cache = None
        #: Job-table snapshot reused across calls until a job advances.
        self._table: Optional[_JobTable] = None
        #: AppDemand objects keyed by job id, reused while the job stays
        #: in the same stage (AppDemand is frozen, so sharing is safe).
        self._demand_cache: Dict[str, Tuple[object, AppDemand]] = {}
        self._specs_cache: Optional[Tuple[_JobTable, float, Dict]] = None
        self._spec_arrays_cache: Optional[Tuple[_JobTable, float, SpecArrays]] = None
        #: The last equalized level solved below 1.0, where the next
        #: exact solve starts probing (a start never changes a result).
        self._last_level: Optional[float] = None

    @property
    def queue(self) -> JobQueue:
        return self._queue

    @property
    def levels(self) -> Sequence[float]:
        return self._levels

    @property
    def prediction_method(self) -> PredictionMethod:
        return self._prediction_method

    def bind_registry(self, registry) -> None:
        """Publish prediction-cache telemetry into a
        :class:`~repro.obs.registry.MetricRegistry`."""
        self._c_eval_cache = registry.counter(
            "repro_batch_eval_cache_total",
            "Batch-model evaluate() memo lookups by outcome",
            ("outcome",),
        )

    # ------------------------------------------------------------------
    # Vectorized backing
    # ------------------------------------------------------------------
    def _table_for(self, jobs: Sequence[Job]) -> _JobTable:
        table = self._table
        if table is not None and table.matches(jobs):
            return table
        table = _JobTable(jobs)
        self._table = table
        if len(self._demand_cache) > 2 * len(table.ids) + 16:
            live = set(table.ids)
            self._demand_cache = {
                job_id: entry
                for job_id, entry in self._demand_cache.items()
                if job_id in live
            }
        return table

    def _demand_for(self, job: Job, stage) -> AppDemand:
        cached = self._demand_cache.get(job.job_id)
        if cached is not None and cached[0] is stage:
            return cached[1]
        demand = AppDemand(
            app_id=job.job_id,
            memory_mb=stage.memory_mb,
            min_cpu_mhz=stage.min_speed_mhz,
            max_cpu_per_instance_mhz=stage.max_speed_mhz,
            max_instances=job.parallelism,
            divisible=job.parallelism > 1,
        )
        self._demand_cache[job.job_id] = (stage, demand)
        return demand

    def _vector_path(self, jobs: Sequence[Job]) -> bool:
        """Whether the array kernels should serve this job set."""
        return len(jobs) >= self._vectorize_min_jobs

    def app_spec_arrays(self, now: float) -> Optional[SpecArrays]:
        """Column view of :meth:`app_specs` for the vectorized solver
        (``None`` when there are no jobs or the job set is below
        ``vectorize_min_jobs``)."""
        jobs = self._queue.incomplete()
        if not jobs or not self._vector_path(jobs):
            return None
        table = self._table_for(jobs)
        cached = self._spec_arrays_cache
        if cached is not None and cached[0] is table and cached[1] == now:
            return cached[2]
        n = len(table.ids)
        par = np.array(table.par_list, dtype=float)
        arrays = SpecArrays(
            ids=list(table.ids),
            index=table.index,
            memory=np.array(table.mem_list),
            min_cpu=np.array(table.min_speed_list),
            max_per_instance=np.array(table.maxpi_list),
            max_instances=par,
            divisible=par > 1,
            is_job=np.ones(n, dtype=bool),
            remaining=table.remaining,
            goal=table.goal,
            relative_goal=table.relative_goal,
            now=np.full(n, now),
            max_speed=table.max_speed,
            u_max=table.u_max_array(now),
        )
        self._spec_arrays_cache = (table, now, arrays)
        return arrays

    # ------------------------------------------------------------------
    # WorkloadModel protocol
    # ------------------------------------------------------------------
    def app_specs(self, now: float) -> Dict[str, AllocatableApp]:
        jobs = self._queue.incomplete()
        if self._vector_path(jobs):
            return self._app_specs_vectorized(jobs, now)
        specs: Dict[str, AllocatableApp] = {}
        for job in jobs:
            stage = job.current_stage
            demand = AppDemand(
                app_id=job.job_id,
                memory_mb=stage.memory_mb,
                min_cpu_mhz=stage.min_speed_mhz,
                max_cpu_per_instance_mhz=stage.max_speed_mhz,
                # Moldable parallel jobs (the paper's future-work
                # extension) may spread over up to `parallelism`
                # instances; sequential jobs are singletons.
                max_instances=job.parallelism,
                divisible=job.parallelism > 1,
            )
            specs[job.job_id] = AllocatableApp(
                demand=demand, rpf=JobAllocationRPF(job, now)
            )
        return specs

    def _app_specs_vectorized(
        self, jobs: Sequence[Job], now: float
    ) -> Dict[str, AllocatableApp]:
        if not jobs:
            return {}
        table = self._table_for(jobs)
        cached = self._specs_cache
        if cached is not None and cached[0] is table and cached[1] == now:
            return dict(cached[2])
        specs: Dict[str, AllocatableApp] = {}
        rem, goal, rel = table.rem_list, table.goal_list, table.rel_list
        ms, rb = table.ms_list, table.rb_list
        for i, job in enumerate(table.jobs):
            demand = self._demand_for(job, table.stage_list[i])
            rpf = JobAllocationRPF.from_parts(
                job.job_id, now, goal[i], rel[i], rem[i], ms[i], now + rb[i]
            )
            specs[job.job_id] = AllocatableApp(demand=demand, rpf=rpf)
        self._specs_cache = (table, now, specs)
        return dict(specs)

    def placement_candidates(self, now: float) -> List[str]:
        candidates: List[str] = []
        waiting: List[Job] = []
        for job in self._queue.incomplete():
            if job.status is JobStatus.NOT_STARTED:
                waiting.append(job)
            else:
                candidates.append(job.job_id)
        if self._queue_window is not None and len(waiting) > self._queue_window:
            # The window must look at the queue the way the controller
            # does — lowest relative performance first (§1's LRPF), not
            # submission order — or a deep backlog would degrade the
            # controller to FCFS for everything beyond the window.
            if len(candidates) + len(waiting) >= self._vectorize_min_jobs:
                table = self._table_for(self._queue.incomplete())
                u_max = dict(zip(table.ids, table.u_max_array(now).tolist()))
                waiting.sort(key=lambda job: u_max[job.job_id])
            else:
                waiting.sort(
                    key=lambda job: JobAllocationRPF(job, now).max_utility
                )
            waiting = waiting[: self._queue_window]
        candidates.extend(job.job_id for job in waiting)
        return candidates

    def evaluate(
        self, allocations: Mapping[str, float], now: float, horizon: float
    ) -> Dict[str, float]:
        jobs = self._queue.incomplete()
        if not jobs:
            return {}
        if self._vector_path(jobs):
            return self._evaluate_vectorized(jobs, allocations, now, horizon)

        cache_key: Optional[Tuple] = None
        if self._cache_enabled:
            # The prediction depends on each job only through its
            # progress and effective (max-speed-capped) allocation, and
            # on the control instant; anything else is frozen per job id.
            cache_key = tuple(
                (
                    job.job_id,
                    job.cpu_consumed,
                    min(allocations.get(job.job_id, 0.0), job.max_speed),
                )
                for job in jobs
            )
            instant = (now, horizon)
            if instant != self._eval_cache_instant:
                self._eval_cache_instant = instant
                self._eval_cache.clear()
            hit = self._eval_cache.get(cache_key)
            if hit is not None:
                if self._c_eval_cache is not None:
                    self._c_eval_cache.inc(outcome="hit")
                return dict(hit)
            if self._c_eval_cache is not None:
                self._c_eval_cache.inc(outcome="miss")

        utilities: Dict[str, float] = {}
        future_rpfs: List[JobAllocationRPF] = []
        aggregate = 0.0

        for job in jobs:
            speed = min(allocations.get(job.job_id, 0.0), job.max_speed)
            aggregate += speed
            remaining = job.remaining_work
            if speed * horizon >= remaining - EPSILON and speed > EPSILON:
                # The job finishes within the next cycle: predict from its
                # actual completion time (equation (2) directly).
                completion = now + remaining / speed
                utilities[job.job_id] = max(
                    NEGATIVE_INFINITY_UTILITY,
                    job_relative_performance(job, completion),
                )
            else:
                future_rpfs.append(
                    JobAllocationRPF(
                        job,
                        now + horizon,
                        remaining_work=remaining - speed * horizon,
                    )
                )

        if future_rpfs:
            hypothetical = HypotheticalRPF(future_rpfs, levels=self._levels)
            utilities.update(self._predict(hypothetical, aggregate))
        if cache_key is not None:
            self._eval_cache[cache_key] = dict(utilities)
        return utilities

    def _evaluate_vectorized(
        self,
        jobs: Sequence[Job],
        allocations: Mapping[str, float],
        now: float,
        horizon: float,
    ) -> Dict[str, float]:
        """Array-kernel twin of the scalar :meth:`evaluate` body.

        Same branch structure, same float expressions per element, same
        output-dict insertion order (finishing jobs in job order, then
        the hypothetical block in job order) — bitwise identical.
        """
        table = self._table_for(jobs)
        ids = table.ids
        alloc = np.array(
            [allocations.get(job_id, 0.0) for job_id in ids], dtype=float
        )
        speeds = np.minimum(alloc, table.max_speed)

        cache_key: Optional[Tuple] = None
        if self._cache_enabled:
            cache_key = (table.ids_tuple, table.consumed_bytes, speeds.tobytes())
            instant = (now, horizon)
            if instant != self._eval_cache_instant:
                self._eval_cache_instant = instant
                self._eval_cache.clear()
            hit = self._eval_cache.get(cache_key)
            if hit is not None:
                if self._c_eval_cache is not None:
                    self._c_eval_cache.inc(outcome="hit")
                return dict(hit)
            if self._c_eval_cache is not None:
                self._c_eval_cache.inc(outcome="miss")

        # The scalar loop accumulates `aggregate += speed` job by job;
        # sum() performs the same left-to-right float additions.
        aggregate = sum(speeds.tolist())
        remaining = table.remaining
        finishing = (speeds * horizon >= remaining - EPSILON) & (
            speeds > EPSILON
        )

        utilities: Dict[str, float] = {}
        fin_idx = np.flatnonzero(finishing)
        if fin_idx.size:
            speed_f = speeds[fin_idx]
            completion = now + remaining[fin_idx] / speed_f
            u = (table.goal[fin_idx] - completion) / table.relative_goal[
                fin_idx
            ]
            u = np.maximum(NEGATIVE_INFINITY_UTILITY, u)
            values = u.tolist()
            for pos, i in enumerate(fin_idx.tolist()):
                utilities[ids[i]] = values[pos]

        fut_idx = np.flatnonzero(~finishing)
        if fut_idx.size:
            speed = speeds[fut_idx]
            rem_old = remaining[fut_idx]
            # JobAllocationRPF(job, now + horizon, remaining_work=
            #   remaining - speed * horizon), field by field.
            rem_new = np.maximum(0.0, rem_old - speed * horizon)
            ratio = np.ones(fut_idx.size)
            np.divide(rem_new, rem_old, out=ratio, where=rem_old > EPSILON)
            rb_new = table.remaining_best[fut_idx] * ratio
            now_h = now + horizon
            earliest = now_h + rb_new
            goal = table.goal[fut_idx]
            rel = table.relative_goal[fut_idx]
            u_max = np.where(
                rem_new <= EPSILON, 1.0, (goal - earliest) / rel
            )
            hypothetical = HypotheticalRPF.from_arrays(
                [ids[i] for i in fut_idx.tolist()],
                remaining=rem_new,
                goal=goal,
                relative_goal=rel,
                max_speed=table.max_speed[fut_idx],
                now=np.full(fut_idx.size, now_h),
                u_max=u_max,
                levels=self._levels,
            )
            utilities.update(self._predict(hypothetical, aggregate))
        if cache_key is not None:
            self._eval_cache[cache_key] = dict(utilities)
        return utilities

    def _predict(
        self, hypothetical: HypotheticalRPF, aggregate: float
    ) -> Dict[str, float]:
        """Per-job predictions of ``hypothetical`` at ``aggregate``; the
        exact solve starts from the last level solved below 1.0 (a solve
        that reaches 1.0 says nothing of where the next one lands)."""
        utilities = hypothetical.job_utilities(
            aggregate, method=self._prediction_method, start=self._last_level
        )
        if self._prediction_method is PredictionMethod.EXACT:
            level = hypothetical.equalized_level(aggregate)
            if level < 1.0:
                self._last_level = level
        return utilities

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def hypothetical(self, now: float) -> HypotheticalRPF:
        """The current hypothetical RPF over all incomplete jobs
        (used for the "average hypothetical relative performance" series
        of Figures 2 and 6)."""
        jobs = self._queue.incomplete()
        if jobs and self._vector_path(jobs):
            table = self._table_for(jobs)
            return HypotheticalRPF.from_arrays(
                list(table.ids),
                remaining=table.remaining,
                goal=table.goal,
                relative_goal=table.relative_goal,
                max_speed=table.max_speed,
                now=np.full(len(table.ids), now),
                u_max=table.u_max_array(now),
                levels=self._levels,
            )
        rpfs = [JobAllocationRPF(job, now) for job in jobs]
        return HypotheticalRPF(rpfs, levels=self._levels)

    def average_hypothetical_utility(
        self, now: float, aggregate_mhz: float
    ) -> float:
        """Average predicted relative performance at a given aggregate
        batch allocation."""
        return self.hypothetical(now).average_utility(aggregate_mhz)
