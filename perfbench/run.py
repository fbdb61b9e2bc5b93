"""End-to-end simulation benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload exp2-observed --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` warms up, then times whole simulations with tracing off
and prints the end-to-end metrics.  ``--trace 1`` makes a separate
traced run and prints the per-layer metrics.  Both check the program's
outputs; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only if every check passed.  See ``perfbench/README.md`` for
the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Wall time of program work between two reference-kernel readings.
LAP_SECONDS = 0.1


def _load_program() -> None:
    """Put this checkout's ``src/`` first on the path and import it.

    Exits (status 1, no result line) when the checkout holds no program,
    so the benchmark never measures some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


@dataclass
class StreamRun:
    """What one simulation of one stream produced."""

    seed: int
    signature: str
    sim_seconds: float
    submitted: int
    completed: int
    met_deadline: int
    placement_changes: int
    churn: int
    moved_mb: float
    txn_utility_mean: float
    #: Problems found by the output checks.
    errors: List[str] = field(default_factory=list)
    #: Timing (nominal-machine seconds; see reference.py).
    setup_seconds: float = 0.0
    wall_seconds: float = 0.0
    raw_wall_seconds: float = 0.0
    decision_seconds: List[float] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.sim_seconds / self.wall_seconds


def _check_outputs(built, metrics, seed: int) -> StreamRun:
    """Derive a stream's outcome and apply the output checks."""
    cycles, completions = metrics.cycles, metrics.completions
    incomplete = len(built.queue.incomplete())
    run = StreamRun(
        seed=seed,
        signature=_signature(cycles, completions),
        sim_seconds=max(
            [c.time for c in cycles] + [c.completion_time for c in completions]
        ),
        submitted=len(built.jobs),
        completed=len(completions),
        met_deadline=sum(1 for c in completions if c.met_deadline),
        placement_changes=sum(c.placement_changes for c in cycles),
        churn=sum(c.churn_instances for c in cycles),
        moved_mb=sum(c.migration_distance_mb for c in cycles),
        txn_utility_mean=statistics.fmean(
            u for c in cycles for u in c.txn_utilities.values()
        ) if built.txn_model is not None else 0.0,
    )
    if run.submitted != run.completed + incomplete:
        run.errors.append(
            f"stream {seed}: {run.submitted} jobs submitted but "
            f"{run.completed} completed + {incomplete} incomplete"
        )
    capacity = built.cpu_capacity_mhz
    for c in cycles:
        allocated = c.batch_allocation_mhz + c.txn_allocation_mhz
        if allocated > capacity * (1 + 1e-9):
            run.errors.append(
                f"stream {seed}: cycle at t={c.time:g} allocates "
                f"{allocated:.1f} MHz of {capacity:.1f} MHz"
            )
            break
    return run


def _signature(cycles, completions) -> str:
    """Digest of everything the simulation decided (wall-clock fields
    excluded), for determinism and non-perturbation checks."""
    body = [
        {k: v for k, v in c.to_dict().items() if k != "decision_seconds"}
        for c in cycles
    ] + [c.to_dict() for c in completions]
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()


def run_stream(workload, seed: int, scratch: Path, profiler=None):
    """Build and run one stream, timing set-up, the run and every control
    decision in nominal-machine seconds.

    With a profiler, the built objects are instrumented (``layers.py``)
    before the first event.  Returns the outcome, the built objects and
    the ``place()`` counts the instrumentation collected (``None``
    untraced).
    """
    from layers import instrument
    from reference import Stopwatch
    from workloads import CYCLE_SECONDS

    setup = Stopwatch()
    setup.start()
    start = time.perf_counter()
    built = workload.build(seed, profiler=profiler, scratch_dir=str(scratch))
    setup.lap(time.perf_counter() - start)
    try:
        sim = built.simulator
        metrics = sim.run(until=-1.0)  # bootstrap: schedules t=0 events only
        placements = (
            instrument(built, profiler) if profiler is not None else None
        )
        watch = Stopwatch()
        watch.start()
        factors: List[float] = []
        lap, cycle = 0.0, 0
        while sim.next_event_time is not None:
            start = time.perf_counter()
            sim.run(until=(cycle + 0.5) * CYCLE_SECONDS)
            lap += time.perf_counter() - start
            cycle += 1
            if lap >= LAP_SECONDS or sim.next_event_time is None:
                factor = watch.lap(lap)
                factors.extend([factor] * (len(metrics.cycles) - len(factors)))
                lap = 0.0
        run = _check_outputs(built, metrics, seed)
    finally:
        built.close()
    run.setup_seconds = setup.nominal_seconds
    run.wall_seconds = watch.nominal_seconds
    run.raw_wall_seconds = watch.raw_seconds
    run.decision_seconds = [
        c.decision_seconds / f for c, f in zip(metrics.cycles, factors)
    ]
    return run, built, placements


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _same(runs: List[StreamRun], what: str) -> List[str]:
    if len({r.signature for r in runs}) > 1:
        return [f"stream {runs[0].seed}: {what} produced different outputs"]
    return []


def measure(workload, seed: int, seconds: float, scratch: Path):
    """``--trace 0``: warm-up, then timed passes over the run's streams
    until ``seconds`` is spent (at least one pass)."""
    from workloads import WORKLOADS, stream_seeds

    seeds = stream_seeds(workload, seed)
    warm = run_stream(workload, seeds[0], scratch)[0]
    errors = list(warm.errors)
    if workload.reference is not None:
        # Observers must not perturb the simulation they observe.
        ref = run_stream(WORKLOADS[workload.reference], seeds[0], scratch)[0]
        errors += ref.errors
        errors += _same([warm, ref], f"{workload.name} vs {workload.reference}")
    passes: List[List[StreamRun]] = []
    start = time.perf_counter()
    while True:
        passes.append([run_stream(workload, s, scratch)[0] for s in seeds])
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    for k in range(len(seeds)):
        runs = [p[k] for p in passes]
        for r in runs:
            errors += r.errors
        errors += _same(runs + ([warm] if k == 0 else []), "repeated runs")

    first = passes[0]
    sim_seconds = sum(r.sim_seconds for r in first)
    wall = sum(
        statistics.median(p[k].wall_seconds for p in passes)
        for k in range(len(seeds))
    )
    decisions = [
        statistics.median(per_pass)
        for k in range(len(seeds))
        for per_pass in zip(*(p[k].decision_seconds for p in passes))
    ]
    if len(decisions) < 100:
        errors.append(f"only {len(decisions)} control cycles; p90 needs 100")
    setups = [r.setup_seconds for p in passes for r in p]
    submitted = sum(r.submitted for r in first)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "sim_rate": (sim_seconds / wall, len(seeds) * len(passes)),
        "decision_ms.p50": (statistics.median(decisions) * 1e3, len(decisions)),
        "decision_ms.p90": (
            statistics.quantiles(decisions, n=10)[8] * 1e3, len(decisions)
        ),
        "peak_rss_mb": (_peak_rss_mb(), 1),
        "deadline_satisfaction": (
            sum(r.met_deadline for r in first) / submitted, submitted
        ),
    }
    notes = [
        f"{len(seeds)} streams x {len(passes)} passes; raw run wall "
        f"{sum(r.raw_wall_seconds for p in passes for r in p):.2f} s, "
        f"nominal {sum(r.wall_seconds for p in passes for r in p):.2f} s",
    ]
    failed = sum(r.submitted - r.completed for r in first)
    return values, errors, submitted, failed, notes


def traced(workload, seed: int, scratch: Path):
    """``--trace 1``: warm-up, an untraced and a traced run of the first
    stream, and the span tree folded into per-layer metrics."""
    from layers import LAYERS, aggregate
    from repro.api import SpanProfiler
    from workloads import WORKLOADS, stream_seeds

    seed0 = stream_seeds(workload, seed)[0]
    warm = run_stream(workload, seed0, scratch)[0]
    plain = run_stream(workload, seed0, scratch)[0]
    profiler = SpanProfiler()
    run, built, placements = run_stream(
        workload, seed0, scratch, profiler=profiler
    )
    errors = warm.errors + plain.errors + run.errors
    errors += _same([warm, plain, run], "untraced and traced runs")

    cycles = built.simulator.metrics.cycles
    layer = aggregate(profiler.records, [c.placement_changes for c in cycles])
    counts = layer.counts
    wall_ms = run.raw_wall_seconds * 1e3
    evaluations = sum(e for e, _ in placements)
    values: Dict[str, float] = dict(layer.metrics)
    values.update({
        "sim.completions": run.completed,
        "apc.evaluations": evaluations,
        "apc.cache_hit_ratio": (
            sum(h for _, h in placements) / evaluations
            if evaluations else 0.0
        ),
        "actuation.churn": run.churn,
        "actuation.moved_mb": run.moved_mb,
        "actuation.placement_changes": run.placement_changes,
        "txn.utility_mean": run.txn_utility_mean,
        "trace.wall_ms": wall_ms,
        "unattributed_ms": wall_ms - layer.roots_ms,
        "trace.untraced_sim_rate": plain.rate,
        "trace.traced_sim_rate": run.rate,
    })
    values["trace.overhead"] = (
        values["trace.untraced_sim_rate"] / values["trace.traced_sim_rate"]
    )
    partition = sum(values[f"{name}.self_ms"] for name in LAYERS)
    if not math.isclose(
        partition + values["unattributed_ms"], wall_ms, rel_tol=1e-9
    ):
        errors.append(
            f"layer self times ({partition:.3f} ms) plus unattributed "
            f"({values['unattributed_ms']:.3f} ms) != wall ({wall_ms:.3f} ms)"
        )

    obs = {"obs.overhead": 0.0, "obs.base_sim_rate": 0.0,
           "obs.observed_sim_rate": 0.0, "obs.sink_records": 0}
    if workload.reference is not None:
        base = run_stream(WORKLOADS[workload.reference], seed0, scratch)[0]
        errors += base.errors
        errors += _same([run, base], f"{workload.name} vs {workload.reference}")
        obs["obs.base_sim_rate"] = base.rate
        obs["obs.observed_sim_rate"] = values["trace.untraced_sim_rate"]
        obs["obs.overhead"] = obs["obs.base_sim_rate"] / obs["obs.observed_sim_rate"]
        obs["obs.sink_records"] = built.observers["sink"].records_written
    values.update(obs)

    errors += _path_assertions(workload.name, counts, built, values)
    values = {k: (v, layer.samples.get(k, 1)) for k, v in values.items()}
    return values, errors, run.submitted, run.submitted - run.completed, []


def _path_assertions(name: str, counts, built, values) -> List[str]:
    """Each workload must have exercised the code path it claims."""
    errors = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            errors.append(f"{name}: {what}")

    search = counts.get("apc.search", 0)
    tables = counts.get("apc.spec_tables", 0)
    expect(counts.get("policy.decide", 0) == values["sim.cycles"] > 0,
           "one policy decision per control cycle")
    if name in ("exp2-saturated", "exp2-observed", "exp3-mixed"):
        expect(search > 0, "recorded no apc.search span")
    if name == "exp1-scale":
        expect(search == 0, f"recorded {search} apc.search spans")
        expect(tables > 0, "recorded no apc.spec_tables span (fast path off)")
    if name == "exp3-mixed":
        expect(tables == 0, f"recorded {tables} apc.spec_tables spans")
        expect(counts.get("txn.evaluate", 0) > 0, "never evaluated the txn app")
    if name == "exp2-observed":
        obs = built.observers
        expect(built.simulator.alert_engine is not None, "no alert engine")
        expect(built.controller.audit is obs["audit"], "audit not attached")
        expect(built.controller.tracer is obs["tracer"], "tracer not attached")
        expect(len(obs["audit"].records) > 0, "audit kept no records")
        expect(len(obs["tracer"]) > 0, "tracer kept no records")
        expect(len(obs["registry"].collect()) > 0, "registry is empty")
        expect(values["obs.sink_records"] > 0, "sink received no records")
        for span in ("audit.end_cycle", "tracer.job_arrival", "trace.emit",
                     "alerts.observe", "sink.write"):
            expect(counts.get(span, 0) > 0, f"recorded no {span} span")
    else:
        expect(not any(k.startswith(("audit.", "tracer.", "trace.", "alerts.",
                                     "sink.")) for k in counts),
               "observer spans on an unobserved workload")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    try:
        if args.trace:
            values, errors, attempted, failed, notes = traced(
                workload, args.seed, scratch)
        else:
            values, errors, attempted, failed, notes = measure(
                workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    errors += [f"metric {name} was not measured" for name in missing]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    print(f"  {'metric':<28} {'value':>14}  {'unit':<10} samples")
    for m in wanted:
        if m["name"] in values:
            value, samples = values[m["name"]]
            print(f"  {m['name']:<28} {value:>14.6g}  {m['unit']:<10} {samples}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
            for m in wanted if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
