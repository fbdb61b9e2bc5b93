"""Outside-in layer timing for the traced run.

:func:`instrument` replaces public methods of the objects a workload
built with wrappers that open a span on the run's
:class:`~repro.obs.spans.SpanProfiler` — the same profiler the program
was given, so its own ``sim.*``/``apc.*`` spans and these wrappers form
one tree.  :func:`aggregate` then folds that tree into per-layer totals
and a self-time partition in one forward pass over
``SpanProfiler.records``, using each record's ``parent`` index (parents
are always recorded before their children).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Span-name prefix -> layer for the self-time partition; the first
#: matching prefix wins.  Names are the program's own spans plus the
#: wrappers below.
_LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("apc.loadbalance", "apc.loadbalance"),
    ("apc.", "apc"),
    ("sim.", "sim"),
    ("metrics.", "sim.metrics"),
    ("queue.", "sim.queue"),
    ("policy.", "policy"),
    ("batch.", "batch"),
    ("txn.", "txn"),
    ("audit.", "obs"),
    ("tracer.", "obs"),
    ("trace.", "obs"),
    ("alerts.", "obs"),
    ("sink.", "obs"),
)

#: Layers of the partition, in report order.
LAYERS = (
    "sim", "sim.metrics", "sim.queue", "policy", "apc", "apc.loadbalance",
    "batch", "txn", "obs",
)

#: Per-layer totals: metric -> span names it sums.  A span nested in
#: another span of the same group is not counted twice.
_GROUPS: Dict[str, Tuple[str, ...]] = {
    "sim.metrics_ms": (
        "metrics.record_cycle", "metrics.record_completion",
        "metrics.hypothetical",
    ),
    "sim.queue_ms": (
        "queue.incomplete", "queue.running", "queue.not_started",
        "queue.prune_completed",
    ),
    "policy.decide_ms": ("policy.decide",),
    "apc.model_specs_ms": ("apc.model_specs",),
    "apc.spec_tables_ms": ("apc.spec_tables",),
    "apc.admission_ms": ("apc.admission",),
    "apc.search_ms": ("apc.search",),
    "apc.evaluate_ms": ("apc.evaluate",),
    "apc.objective_ms": ("apc.objective",),
    "apc.loadbalance_ms": ("apc.loadbalance",),
    "batch.specs_ms": (
        "batch.app_specs", "batch.app_spec_arrays",
        "batch.placement_candidates",
    ),
    "batch.predict_ms": ("batch.evaluate",),
    "batch.hypothetical_ms": ("batch.hypothetical", "metrics.hypothetical"),
    "txn.specs_ms": ("txn.app_specs", "txn.placement_candidates"),
    "txn.predict_ms": ("txn.evaluate",),
    "obs.audit_ms": tuple(
        "audit." + m for m in (
            "begin_cycle", "incumbent", "rpf_inputs", "admission",
            "note_fill", "candidate", "shortcircuit", "end_cycle",
        )
    ),
    "obs.tracer_ms": tuple(
        "tracer." + m for m in (
            "begin_cycle", "job_arrival", "admission", "directive",
            "reconcile", "completion",
        )
    ),
    "obs.trace_ms": ("trace.emit",),
    "obs.alerts_ms": ("alerts.observe",),
    "obs.sink_ms": ("sink.write",),
}

#: Span name -> the ``_GROUPS`` metrics it counts towards.
_GROUPS_OF: Dict[str, List[str]] = {}
for _metric, _names in _GROUPS.items():
    for _name in _names:
        _GROUPS_OF.setdefault(_name, []).append(_metric)

#: Public methods wrapped per object: (attribute on Built, span prefix,
#: method names).
_WRAPPED: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("simulator", "sim", ("run",)),
    ("policy", "policy", ("decide",)),
    ("batch_model", "batch", (
        "app_specs", "app_spec_arrays", "placement_candidates", "evaluate",
        "hypothetical",
    )),
    ("txn_model", "txn", ("app_specs", "placement_candidates", "evaluate")),
    ("queue", "queue", (
        "incomplete", "running", "not_started", "prune_completed",
    )),
)
_OBSERVER_METHODS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "audit": ("audit", tuple(n.split(".", 1)[1] for n in _GROUPS["obs.audit_ms"])),
    "tracer": ("tracer", tuple(n.split(".", 1)[1] for n in _GROUPS["obs.tracer_ms"])),
    "trace": ("trace", ("emit",)),
    "sink": ("sink", ("write",)),
}


def _layer_of(name: str) -> str:
    for prefix, layer in _LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


def _wrap(profiler, obj, method: str, span_name: str) -> None:
    inner = getattr(obj, method)
    span = profiler.span

    def wrapper(*args, **kwargs):
        with span(span_name):
            return inner(*args, **kwargs)

    setattr(obj, method, wrapper)


def instrument(built, profiler) -> List[Tuple[int, int]]:
    """Wrap the public methods of ``built``'s objects with spans.

    The simulator must already be bootstrapped (``run(until=-1)``), so
    that the alert engine it creates at its first run exists.  Returns
    a list that collects ``(evaluations, cache_hits)`` of every
    ``place()`` call.
    """
    for attr, prefix, methods in _WRAPPED:
        obj = getattr(built, attr)
        if obj is None:
            continue
        for method in methods:
            _wrap(profiler, obj, method, f"{prefix}.{method}")
    metrics = built.simulator.metrics
    for method in ("record_cycle", "record_completion"):
        _wrap(profiler, metrics, method, f"metrics.{method}")
    for key, (prefix, methods) in _OBSERVER_METHODS.items():
        obj = built.observers.get(key)
        if obj is not None:
            for method in methods:
                _wrap(profiler, obj, method, f"{prefix}.{method}")
    engine = built.simulator.alert_engine
    if engine is not None:
        _wrap(profiler, engine, "observe", "alerts.observe")

    # The controller's place() is already the program's ``apc.place``
    # span; its wrapper only keeps the result's evaluation counts.
    placements: List[Tuple[int, int]] = []
    controller = built.controller
    place = controller.place

    def place_wrapper(*args, **kwargs):
        result = place(*args, **kwargs)
        placements.append((result.evaluations, result.cache_hits))
        return result

    controller.place = place_wrapper
    return placements


@dataclass
class LayerReport:
    #: Metric name -> value (durations in ms).
    metrics: Dict[str, float]
    #: Metric name -> spans it sums, for the ``*_ms`` totals.
    samples: Dict[str, int]
    #: Span name -> occurrences.
    counts: Dict[str, int]
    #: Total duration of the root spans (ms).
    roots_ms: float


def aggregate(records: Sequence, cycle_changes: Sequence[int]) -> LayerReport:
    """Fold a span tree into per-layer metrics.

    ``cycle_changes`` is each cycle sample's ``placement_changes``; the
    n-th ``sim.cycle`` span is the n-th sample.
    """
    n = len(records)
    names: List[str] = [""] * n
    in_decide = [False] * n
    cycle_of = [-1] * n
    totals = {metric: 0.0 for metric in _GROUPS}
    samples = {metric: 0 for metric in _GROUPS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    search_self = 0.0
    counts: Dict[str, int] = {}
    search_cycles = set()
    roots = 0.0
    cycles = 0
    for i, rec in enumerate(records):
        parent = rec.parent
        name = rec.name
        decide = parent is not None and in_decide[parent]
        cycle = cycle_of[parent] if parent is not None else -1
        if name == "policy.decide":
            decide = True
        elif name == "sim.cycle":
            cycle = cycles
            cycles += 1
        elif name == "batch.hypothetical" and not decide:
            # The simulator's per-cycle bookkeeping, not the controller.
            name = "metrics.hypothetical"
        elif name == "apc.search":
            search_cycles.add(cycle)
        names[i], in_decide[i], cycle_of[i] = name, decide, cycle
        d = rec.duration
        counts[name] = counts.get(name, 0) + 1
        layer_self[_layer_of(name)] += d
        if name == "apc.search":
            search_self += d
        if parent is None:
            roots += d
        else:
            pname = names[parent]
            layer_self[_layer_of(pname)] -= d
            if pname == "apc.search":
                search_self -= d
        outer = _GROUPS_OF.get(names[parent], ()) if parent is not None else ()
        for metric in _GROUPS_OF.get(name, ()):
            if metric not in outer:
                totals[metric] += d
                samples[metric] += 1

    def count(*span_names: str) -> int:
        return sum(counts.get(s, 0) for s in span_names)

    out = {metric: total * 1e3 for metric, total in totals.items()}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = layer_self[layer] * 1e3
    out["apc.search.self_ms"] = search_self * 1e3
    out["sim.queue_calls"] = count(*_GROUPS["sim.queue_ms"])
    out["sim.cycles"] = cycles
    out["apc.place_calls"] = count("apc.place")
    out["apc.loadbalance_calls"] = count("apc.loadbalance")
    out["apc.search_cycles"] = len(search_cycles)
    useful = sum(1 for c in search_cycles if cycle_changes[c] >= 1)
    out["apc.search.useful_cycles"] = useful
    out["apc.search.useful_ratio"] = (
        useful / len(search_cycles) if search_cycles else 0.0
    )
    out["trace.spans"] = n
    return LayerReport(out, samples, counts, roots * 1e3)
