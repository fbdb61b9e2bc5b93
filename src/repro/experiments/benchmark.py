"""APC scaling benchmark: naive versus incremental search.

Drives the placement controller directly (no discrete-event simulator —
the cost under measurement is :meth:`place` itself) over rolling control
cycles of a saturated mixed-class workload, at a ladder of cluster
sizes.  Each size is timed twice from identical initial conditions:

* **naive** — ``fast_path_min_nodes`` and the batch model's
  ``vectorize_min_jobs`` set above the rung's size, and the model's
  evaluation cache off: the reference three-nested-loop scalar solver;
* **incremental** — the defaults: per-cycle evaluation memo, O(1)
  admission indexes, no-op-node skip, utility upper-bound short-circuit
  and the dense numpy kernels (spec tables, vectorized load
  distribution, array-scan admission and frontier checks) on clusters
  of at least ``fast_path_min_nodes``.

The two runs' per-cycle placement matrices are compared for equality —
the fast path must be *byte-identical* in its decisions, not just
faster — so every ladder rung at or above ``fast_path_min_nodes``
doubles as a reference-vs-fast identity pin.  The per-cycle ``place()``
timings are reduced to medians.

Output is a JSON document (schema ``repro.bench.apc/v1``)::

    {
      "schema": "repro.bench.apc/v1",
      "quick": false, "seed": 7, "cycles": 12,
      "results": [
        {"nodes": 100, "jobs": 800, "naive_ms": ..., "incremental_ms": ...,
         "speedup_median": ..., "identical": true},
        ...
      ]
    }
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from typing import Dict, List, Optional, Sequence

from repro.batch.job import JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.core.apc import ApplicationPlacementController
from repro.core.placement import PlacementState
from repro.obs.spans import SpanProfiler, render_profile
from repro.scenario import Scenario

#: Current benchmark output schema identifier.
BENCH_SCHEMA = "repro.bench.apc/v1"

#: Cluster sizes of the full ladder (node counts).  The 500/1000/2000
#: rungs exist to pin the vectorized core's scaling (§5.1 plots decision
#: time against cluster size); the naive reference leg dominates the
#: ladder's wall-clock there.
DEFAULT_SIZES = (10, 25, 50, 100, 200, 500, 1000, 2000)

#: Sizes used by ``--quick`` (CI smoke).  Includes one big rung so the
#: vectorized kernels' scaling — the part most likely to regress — is
#: smoke-checked on every run, not only in full ladder runs.
QUICK_SIZES = (10, 25, 500)

#: Paper-term mean inter-arrival that keeps the queue saturated — the
#: regime where the search actually runs and fast paths matter.  At
#: ~0.5 job arrivals per node-cycle against multi-cycle job durations,
#: demand outstrips capacity severalfold within a few cycles.
_SATURATED_INTERARRIVAL = 50.0

#: Jobs per node: enough backlog to outlive the measured cycles.
_JOBS_PER_NODE = 8


def _bench_scenario(nodes: int, seed: int) -> Scenario:
    return Scenario(
        name=f"bench-apc-{nodes}",
        nodes=nodes,
        workload="experiment2",
        job_count=nodes * _JOBS_PER_NODE,
        interarrival=_SATURATED_INTERARRIVAL,
        seed=seed,
        queue_window=48,
    )


def _run_cycles(
    scenario: Scenario,
    cycles: int,
    naive: bool = False,
    profiler: Optional[SpanProfiler] = None,
) -> Dict[str, object]:
    """Roll the controller over ``cycles`` control cycles, timing each
    ``place()`` call; jobs advance at their granted speeds between
    cycles (the simulator's execution rule, minus event-queue overhead
    that would pollute the measurement).

    The ``naive`` leg lifts both size thresholds — the controller's
    ``fast_path_min_nodes`` and the model's ``vectorize_min_jobs`` —
    above the rung's size and turns off the model's evaluation cache, so
    it stays the pinned scalar reference the fast path is compared
    against.
    """
    cluster = scenario.build_cluster()
    jobs = scenario.build_jobs()
    queue = JobQueue()
    model = BatchWorkloadModel(
        queue,
        queue_window=scenario.queue_window,
        cache=not naive,
        vectorize_min_jobs=len(jobs) + 1 if naive else None,
    )
    config = (
        dataclasses.replace(scenario.apc, fast_path_min_nodes=len(cluster) + 1)
        if naive
        else scenario.apc
    )
    controller = ApplicationPlacementController(
        cluster, config, profiler=profiler
    )
    state = PlacementState(cluster)
    horizon = config.cycle_length

    pending = list(jobs)
    now = 0.0
    timings: List[float] = []
    matrices: List[dict] = []
    for _ in range(cycles):
        while pending and pending[0].submit_time <= now:
            queue.submit(pending.pop(0))
        start = time.perf_counter()
        result = controller.place([model], state, now)
        timings.append(time.perf_counter() - start)
        state = result.state
        matrices.append(state.as_matrix())
        for job in queue.incomplete():
            speed = min(result.allocations.get(job.job_id, 0.0), job.max_speed)
            if speed <= 0.0:
                continue
            if job.status is JobStatus.NOT_STARTED:
                job.status = JobStatus.RUNNING
                job.start_time = now
            job.advance(speed * horizon)
            if job.remaining_work <= 0.0:
                job.status = JobStatus.COMPLETED
                job.completion_time = now + horizon
        now += horizon
    return {"timings": timings, "matrices": matrices}


def bench_apc_scale(
    sizes: Sequence[int] = DEFAULT_SIZES,
    cycles: int = 12,
    seed: int = 7,
    quick: bool = False,
) -> Dict[str, object]:
    """Time ``place()`` across cluster sizes; returns the schema dict.

    ``quick`` shrinks the ladder and cycle count to CI-smoke size
    (a few seconds) while keeping the schema identical.
    """
    if quick:
        sizes = QUICK_SIZES
        cycles = min(cycles, 6)
    results: List[Dict[str, object]] = []
    for nodes in sizes:
        scenario = _bench_scenario(nodes, seed)
        reference = _run_cycles(scenario, cycles, naive=True)
        fast = _run_cycles(scenario, cycles)
        naive_ms = statistics.median(reference["timings"]) * 1000.0
        fast_ms = statistics.median(fast["timings"]) * 1000.0
        results.append(
            {
                "nodes": nodes,
                "jobs": scenario.job_count,
                "naive_ms": naive_ms,
                "incremental_ms": fast_ms,
                "speedup_median": naive_ms / fast_ms if fast_ms > 0 else float("inf"),
                "identical": reference["matrices"] == fast["matrices"],
            }
        )
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "seed": seed,
        "cycles": cycles,
        "results": results,
    }


def profile_bench(
    nodes: Optional[int] = None, cycles: int = 12, seed: int = 7
) -> str:
    """Per-phase span breakdown of the incremental solver at one rung.

    Runs the benchmark workload at ``nodes`` (default: the largest
    ladder rung) with a :class:`~repro.obs.spans.SpanProfiler` attached
    and returns the rendered profile — the ``apc.place`` tree split
    into the :data:`~repro.core.apc.SPAN_PHASES` children, aggregated
    over all cycles.  Backs ``repro bench --profile``.
    """
    if nodes is None:
        nodes = max(DEFAULT_SIZES)
    profiler = SpanProfiler()
    scenario = _bench_scenario(nodes, seed)
    _run_cycles(scenario, cycles, profiler=profiler)
    header = (
        f"APC phase profile: {nodes} nodes, {scenario.job_count} jobs, "
        f"{cycles} cycles (incremental solver)"
    )
    return header + "\n" + render_profile(profiler)


def validate_bench_report(report: Dict[str, object]) -> List[str]:
    """Schema check for a benchmark report; returns a list of problems
    (empty = valid).  Used by the CI smoke job."""
    problems: List[str] = []
    if report.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {report.get('schema')!r}, want {BENCH_SCHEMA!r}")
    for key, kind in (("quick", bool), ("seed", int), ("cycles", int)):
        if not isinstance(report.get(key), kind):
            problems.append(f"{key!r} missing or not {kind.__name__}")
    rows = report.get("results")
    if not isinstance(rows, list) or not rows:
        problems.append("'results' missing or empty")
        return problems
    for i, row in enumerate(rows):
        for key, kind in (
            ("nodes", int),
            ("jobs", int),
            ("naive_ms", (int, float)),
            ("incremental_ms", (int, float)),
            ("speedup_median", (int, float)),
            ("identical", bool),
        ):
            if not isinstance(row.get(key), kind):
                problems.append(f"results[{i}].{key} missing or wrong type")
        if row.get("identical") is False:
            problems.append(f"results[{i}]: fast path diverged from naive solver")
    return problems


def write_bench_report(
    report: Dict[str, object], path: str = "BENCH_apc.json"
) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def compare_bench_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance_pct: float = 25.0,
) -> List[str]:
    """Regression check: current vs stored baseline report.

    Compares the median incremental ``place()`` latency per cluster
    size; a size regresses when the current median exceeds the baseline
    median by more than ``tolerance_pct`` percent.  Sizes present in
    only one report are reported as coverage notes, not regressions
    (the ladder may legitimately change between runs); a *quick*
    current run is a deliberate subset of the full ladder, so baseline
    sizes it never attempts are not flagged at all.  Returns
    human-readable regression lines (empty = pass) — the CI perf gate
    exits nonzero on any.
    """
    factor = 1.0 + tolerance_pct / 100.0
    base_by_nodes = {
        row["nodes"]: row for row in baseline.get("results", [])
        if isinstance(row, dict) and "nodes" in row
    }
    regressions: List[str] = []
    seen = set()
    for row in current.get("results", []):
        nodes = row.get("nodes")
        seen.add(nodes)
        base = base_by_nodes.get(nodes)
        if base is None:
            continue  # new ladder rung; nothing to compare against
        cur_ms = float(row["incremental_ms"])
        base_ms = float(base["incremental_ms"])
        if base_ms > 0 and cur_ms > base_ms * factor:
            regressions.append(
                f"{nodes} nodes: incremental place() median "
                f"{cur_ms:.1f}ms vs baseline {base_ms:.1f}ms "
                f"(+{(cur_ms / base_ms - 1.0) * 100.0:.0f}%, "
                f"tolerance {tolerance_pct:g}%)"
            )
    missing = sorted(n for n in base_by_nodes if n not in seen)
    if missing and not current.get("quick"):
        regressions.append(
            "baseline sizes not measured in the current run: "
            + ", ".join(str(n) for n in missing)
        )
    return regressions


def format_bench_report(report: Dict[str, object]) -> str:
    lines = [f"APC place() scaling (median over {report['cycles']} cycles)"]
    lines.append(f"{'nodes':>6} {'jobs':>6} {'naive':>10} {'incr.':>10} {'speedup':>8}")
    for row in report["results"]:
        lines.append(
            f"{row['nodes']:>6} {row['jobs']:>6} "
            f"{row['naive_ms']:>8.1f}ms {row['incremental_ms']:>8.1f}ms "
            f"{row['speedup_median']:>7.2f}x"
            + ("" if row["identical"] else "  !! DIVERGED")
        )
    return "\n".join(lines)


__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_SIZES",
    "QUICK_SIZES",
    "bench_apc_scale",
    "compare_bench_reports",
    "profile_bench",
    "validate_bench_report",
    "write_bench_report",
    "format_bench_report",
]
