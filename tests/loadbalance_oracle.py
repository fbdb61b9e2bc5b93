"""Reference load distributor: the scalar ``distribute_load`` as it was
before its per-call set-up was hoisted out of the level search.

Every feasibility probe here recomputes each application's bounds, node
caps and instance lists from the placement state.  The production
distributor (:mod:`repro.core.loadbalance`) compiles those once per call;
``tests/test_loadbalance.py`` asserts that both produce the same floats,
in the same order, on every drawn instance.  Keep this file frozen: it is
the oracle, not a second implementation to maintain.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.core.loadbalance import (
    AllocatableApp,
    LoadDistributionResult,
    _LEVEL_SEARCH_ITERATIONS,
    _MAX_REFINEMENT_SWEEPS,
)
from repro.core.placement import PlacementState
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.units import EPSILON, clamp


def _aggregate_bounds(
    app: AllocatableApp, state: PlacementState
) -> Tuple[float, float]:
    """(min_total, max_total) CPU for the app given its instance count."""
    count = state.instance_count(app.app_id)
    min_total = app.demand.min_cpu_mhz * count
    max_per_instance = app.demand.max_cpu_per_instance_mhz
    if max_per_instance == float("inf"):
        max_total = float("inf")
    else:
        max_total = max_per_instance * count
    return min_total, max_total


def _target_at_level(
    app: AllocatableApp, state: PlacementState, level: float
) -> float:
    """CPU the app demands at relative-performance level ``level``."""
    min_total, max_total = _aggregate_bounds(app, state)
    required = app.rpf.required_cpu(level)
    if required == float("inf"):
        required = min(app.rpf.saturation_cpu, max_total)
    if max_total == float("inf"):
        max_total = sum(
            state.cluster.node(n).cpu_capacity for n in state.nodes_of(app.app_id)
        )
        required = min(required, max_total)
    return clamp(required, min(min_total, max_total), max_total)


def _try_distribute(
    targets: Mapping[str, float],
    apps: Mapping[str, AllocatableApp],
    state: PlacementState,
) -> Optional[Dict[str, Dict[str, float]]]:
    """Distribute aggregate targets over instances; ``None`` if infeasible."""
    residual: Dict[str, float] = {
        node.name: node.cpu_capacity for node in state.cluster
    }
    per_node: Dict[str, Dict[str, float]] = {app_id: {} for app_id in targets}

    singletons = [a for a in targets if not apps[a].demand.divisible]
    divisible = [a for a in targets if apps[a].demand.divisible]

    for app_id in singletons:
        target = targets[app_id]
        if target <= EPSILON:
            continue
        nodes = state.nodes_of(app_id)
        remaining = target
        for node in nodes:
            count = state.instances(app_id).get(node, 0)
            cap = apps[app_id].demand.max_cpu_per_instance_mhz * count
            take = min(remaining, residual[node], cap)
            if take > EPSILON:
                per_node[app_id][node] = take
                residual[node] -= take
                remaining -= take
            if remaining <= EPSILON:
                break
        if remaining > EPSILON:
            return None

    for app_id in divisible:
        target = targets[app_id]
        if target <= EPSILON:
            continue
        remaining = target
        instance_nodes = state.instances(app_id)
        for node in sorted(instance_nodes, key=lambda n: -residual[n]):
            count = instance_nodes[node]
            cap = apps[app_id].demand.max_cpu_per_instance_mhz * count
            take = min(remaining, residual[node], cap)
            if take > EPSILON:
                per_node[app_id][node] = per_node[app_id].get(node, 0.0) + take
                residual[node] -= take
                remaining -= take
            if remaining <= EPSILON:
                break
        if remaining > EPSILON:
            return None

    return per_node


def _raise_app(
    app: AllocatableApp,
    state: PlacementState,
    assignment: Dict[str, float],
    current_total: float,
    residual: Dict[str, float],
) -> float:
    """Raise one application's allocation as far as residual CPU allows."""
    _, max_total = _aggregate_bounds(app, state)
    saturation = app.rpf.saturation_cpu
    useful_ceiling = min(max_total, max(saturation, current_total))
    headroom = useful_ceiling - current_total
    if headroom <= EPSILON:
        return 0.0

    gained = 0.0
    instance_nodes = state.instances(app.app_id)
    for node in sorted(instance_nodes, key=lambda n: -residual[n]):
        count = instance_nodes[node]
        cap = app.demand.max_cpu_per_instance_mhz * count
        here = assignment.get(node, 0.0)
        take = min(headroom - gained, residual[node], cap - here)
        if take > EPSILON:
            assignment[node] = here + take
            residual[node] -= take
            gained += take
        if headroom - gained <= EPSILON:
            break
    return gained


def _best_effort(
    placed: Mapping[str, AllocatableApp], state: PlacementState
) -> Dict[str, Dict[str, float]]:
    """Give minima where possible, clipping on saturated nodes."""
    residual: Dict[str, float] = {
        node.name: node.cpu_capacity for node in state.cluster
    }
    per_node: Dict[str, Dict[str, float]] = {a: {} for a in placed}
    ordered = sorted(placed, key=lambda a: placed[a].demand.divisible)
    for app_id in ordered:
        app = placed[app_id]
        min_total, _ = _aggregate_bounds(app, state)
        remaining = min_total
        instance_nodes = state.instances(app_id)
        for node in sorted(instance_nodes, key=lambda n: -residual[n]):
            count = instance_nodes[node]
            cap = app.demand.max_cpu_per_instance_mhz * count
            take = min(remaining, residual[node], cap)
            if take > EPSILON:
                per_node[app_id][node] = take
                residual[node] -= take
                remaining -= take
            if remaining <= EPSILON:
                break
    return per_node


def distribute_load(
    state: PlacementState,
    apps: Mapping[str, AllocatableApp],
    write_load_matrix: bool = True,
) -> LoadDistributionResult:
    """The reference scalar distributor (``tables=None``)."""
    placed_ids = [a for a in apps if state.is_placed(a)]
    result = LoadDistributionResult()
    if not placed_ids:
        if write_load_matrix:
            state.clear_load()
        return result

    placed = {a: apps[a] for a in placed_ids}

    def targets_at(level: float) -> Dict[str, float]:
        return {a: _target_at_level(placed[a], state, level) for a in placed_ids}

    def feasible(level: float) -> Optional[Dict[str, Dict[str, float]]]:
        return _try_distribute(targets_at(level), placed, state)

    lo, hi = NEGATIVE_INFINITY_UTILITY, 1.0
    best_assignment = feasible(lo)
    if best_assignment is None:
        result.feasible = False
        best_assignment = _best_effort(placed, state)
        result.common_level = NEGATIVE_INFINITY_UTILITY
    else:
        if feasible(hi) is not None:
            lo = hi
            best_assignment = feasible(hi)
        else:
            for _ in range(_LEVEL_SEARCH_ITERATIONS):
                mid = 0.5 * (lo + hi)
                assignment = feasible(mid)
                if assignment is not None:
                    lo = mid
                    best_assignment = assignment
                else:
                    hi = mid
        result.common_level = lo

    allocations = {
        a: sum(best_assignment.get(a, {}).values()) for a in placed_ids
    }

    residual: Dict[str, float] = {
        node.name: node.cpu_capacity for node in state.cluster
    }
    for app_id, nodes in best_assignment.items():
        for node, cpu in nodes.items():
            residual[node] -= cpu

    for _ in range(_MAX_REFINEMENT_SWEEPS):
        raised_any = False
        order = sorted(
            placed_ids, key=lambda a: placed[a].rpf.utility(allocations[a])
        )
        for app_id in order:
            app = placed[app_id]
            gain = _raise_app(
                app, state, best_assignment.setdefault(app_id, {}),
                allocations[app_id], residual,
            )
            if gain > EPSILON:
                allocations[app_id] += gain
                raised_any = True
        if not raised_any:
            break

    result.allocations = allocations
    result.utilities = {
        a: placed[a].rpf.utility(allocations[a]) for a in placed_ids
    }

    if write_load_matrix:
        state.clear_load()
        for app_id, nodes in best_assignment.items():
            for node, cpu in nodes.items():
                if cpu > EPSILON:
                    state.set_cpu(app_id, node, cpu)
    return result
