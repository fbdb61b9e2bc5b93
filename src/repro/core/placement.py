"""Placement (``P``) and load (``L``) matrices.

§3.2: ``P[m][n]`` is the number of instances of application ``m`` on node
``n``; ``L[m][n]`` is the CPU speed consumed by all instances of ``m`` on
``n``.  :class:`PlacementState` bundles both with the cluster's capacity
bookkeeping and is the object the placement algorithm mutates while
searching for a better configuration.

Array backing
-------------
The per-node usage caches are mirrored into dense numpy arrays indexed by
:attr:`PlacementState.node_index` (node name -> column).  Every mutation
computes the new scalar value once and writes it to both the dict and the
array, so the two views are *bitwise* equal at all times — the vectorized
solver paths (:mod:`repro.core.loadbalance`, :mod:`repro.core.apc`) read
the arrays while the dict API remains the order-preserving view the
scalar reference solver and the snapshot format rely on.  The sparse
``P``/``L`` dicts stay authoritative for structure because dict insertion
order is semantically significant (see :meth:`PlacementState.matrix_key`);
:meth:`PlacementState.dense_view` materializes them as ``(apps x nodes)``
matrices on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.errors import CapacityError, PlacementError
from repro.units import EPSILON


@dataclass(frozen=True)
class DensePlacement:
    """Dense ``(apps x nodes)`` materialization of a placement state.

    Row order is the placement dict's insertion order (the same order
    every order-sensitive iteration uses); column order is the cluster's
    node order.  Built on demand by :meth:`PlacementState.dense_view` —
    a diagnostic/analysis view, not the mutation surface.
    """

    app_ids: Tuple[str, ...]
    app_index: Mapping[str, int]
    node_names: Tuple[str, ...]
    node_index: Mapping[str, int]
    instances: np.ndarray  # (A, N) int64 — the P matrix
    load: np.ndarray  # (A, N) float64 — the L matrix


@dataclass(frozen=True)
class AppDemand:
    """Resource requirements of one application, as seen by the placer.

    Parameters
    ----------
    app_id:
        Stable identifier.
    memory_mb:
        Load-independent demand (§3.2): memory consumed by each instance
        of the application whenever it is started on a node.
    min_cpu_mhz:
        Minimum speed each instance must receive whenever it runs (a job
        stage's ``ω^min``).  0 for transactional applications.
    max_cpu_per_instance_mhz:
        Maximum useful speed of one instance (a job stage's ``ω^max``; for
        a transactional instance, typically the node's per-processor speed
        times the instance's thread-level parallelism — we use the node
        CPU capacity by default).
    max_instances:
        Cap on simultaneous instances; batch jobs are singletons (1),
        transactional applications may be clustered (``None`` = unbounded).
    divisible:
        Whether the application's load can be split across instances on
        different nodes.  True for transactional applications (the router
        balances requests), False for jobs.
    """

    app_id: str
    memory_mb: float
    min_cpu_mhz: float = 0.0
    max_cpu_per_instance_mhz: float = float("inf")
    max_instances: Optional[int] = 1
    divisible: bool = False

    def __post_init__(self) -> None:
        if self.memory_mb < 0:
            raise PlacementError(f"{self.app_id}: negative memory demand")
        if self.min_cpu_mhz < 0:
            raise PlacementError(f"{self.app_id}: negative min CPU")
        if self.max_cpu_per_instance_mhz < self.min_cpu_mhz - EPSILON:
            raise PlacementError(
                f"{self.app_id}: max CPU {self.max_cpu_per_instance_mhz} "
                f"below min CPU {self.min_cpu_mhz}"
            )


class PlacementState:
    """Mutable placement + load assignment over a cluster.

    Tracks, per node, which application instances are placed and how much
    CPU each consumes; enforces memory and CPU capacity on every mutation.
    Copy-on-explore: the search algorithm calls :meth:`copy` to branch.
    """

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        # P: app_id -> node -> instance count
        self._instances: Dict[str, Dict[str, int]] = {}
        # L: app_id -> node -> cpu MHz (aggregate over instances there)
        self._load: Dict[str, Dict[str, float]] = {}
        # memory demand per instance, recorded at placement time
        self._memory_demand: Dict[str, float] = {}
        # per-node caches
        self._node_memory_used: Dict[str, float] = {n.name: 0.0 for n in cluster}
        self._node_cpu_used: Dict[str, float] = {n.name: 0.0 for n in cluster}
        # dense mirrors of the per-node caches (see module docstring):
        # every value written to the dicts above is also written, bit for
        # bit, to these arrays at the node's column index.
        self._node_index: Dict[str, int] = {
            n.name: i for i, n in enumerate(cluster)
        }
        self._mem_used_arr = np.zeros(len(self._node_index))
        self._cpu_used_arr = np.zeros(len(self._node_index))
        # O(1) per-app instance totals (sum over the app's node dict)
        self._inst_total: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cluster(self) -> Cluster:
        return self._cluster

    @property
    def app_ids(self) -> List[str]:
        """Applications with at least one instance placed."""
        return [a for a, nodes in self._instances.items() if nodes]

    def instances(self, app_id: str) -> Dict[str, int]:
        """``{node: count}`` for ``app_id`` (empty if not placed)."""
        return dict(self._instances.get(app_id, {}))

    def instances_on(self, app_id: str, node: str) -> int:
        """``P[app_id][node]`` without copying the app's node dict."""
        return self._instances.get(app_id, {}).get(node, 0)

    def instance_items(self, app_id: str):
        """Read-only ``(node, count)`` view for ``app_id``, in insertion
        order.  Zero-copy; callers must not mutate the state while
        iterating."""
        return self._instances.get(app_id, {}).items()

    def instance_count(self, app_id: str) -> int:
        return self._inst_total.get(app_id, 0)

    def is_placed(self, app_id: str) -> bool:
        return self._inst_total.get(app_id, 0) > 0

    def nodes_of(self, app_id: str) -> List[str]:
        return [n for n, c in self._instances.get(app_id, {}).items() if c > 0]

    def apps_on(self, node: str) -> List[str]:
        """Applications with instances on ``node``, in insertion order."""
        return [
            app_id
            for app_id, nodes in self._instances.items()
            if nodes.get(node, 0) > 0
        ]

    def cpu_of(self, app_id: str) -> float:
        """Total CPU allocated to ``app_id`` across the cluster (``ω_m``)."""
        return sum(self._load.get(app_id, {}).values())

    def cpu_on(self, app_id: str, node: str) -> float:
        """CPU allocated to ``app_id`` on ``node`` (``L[m][n]``)."""
        return self._load.get(app_id, {}).get(node, 0.0)

    def memory_demand_of(self, app_id: str) -> Optional[float]:
        """Per-instance memory recorded when the app was first placed
        (``None`` if it never was)."""
        return self._memory_demand.get(app_id)

    def forget_memory_demand(self, app_id: str) -> None:
        """Clear the recorded per-instance memory so the application can
        be re-placed with a different (new stage's) demand.  Only valid
        while the application has no placed instances."""
        if self.instance_count(app_id) > 0:
            raise PlacementError(
                f"{app_id} still has instances; cannot change its demand"
            )
        self._memory_demand.pop(app_id, None)

    def memory_used(self, node: str) -> float:
        return self._node_memory_used[node]

    def memory_available(self, node: str) -> float:
        return self._cluster.node(node).memory_capacity - self._node_memory_used[node]

    def cpu_used(self, node: str) -> float:
        return self._node_cpu_used[node]

    def cpu_available(self, node: str) -> float:
        return self._cluster.node(node).cpu_capacity - self._node_cpu_used[node]

    def total_cpu_used(self) -> float:
        return sum(self._node_cpu_used.values())

    # ------------------------------------------------------------------
    # Dense array views (vectorized solver surface)
    # ------------------------------------------------------------------
    @property
    def node_index(self) -> Mapping[str, int]:
        """Node name -> array column, in cluster order.  Shared between
        copies (the cluster is immutable)."""
        return self._node_index

    def memory_used_array(self) -> np.ndarray:
        """Live per-node memory-used mirror (bitwise equal to the dict
        cache).  Callers must treat it as read-only."""
        return self._mem_used_arr

    def cpu_used_array(self) -> np.ndarray:
        """Live per-node CPU-used mirror (bitwise equal to the dict
        cache).  Callers must treat it as read-only."""
        return self._cpu_used_arr

    def capacity_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(cpu_capacity, memory_capacity)`` per node, in column order.

        Rebuilt on every call because capacities are availability-aware
        (an unavailable node reports 0.0).  Always float arrays, so the
        array kernels can subtract float loads from them in place even
        when a cluster was declared with integer capacities.
        """
        cpu = np.array(
            [self._cluster.node(n).cpu_capacity for n in self._node_index],
            dtype=float,
        )
        mem = np.array(
            [self._cluster.node(n).memory_capacity for n in self._node_index],
            dtype=float,
        )
        return cpu, mem

    def dense_view(self) -> DensePlacement:
        """Materialize ``P`` and ``L`` as dense ``(apps x nodes)`` arrays.

        Includes every app the placement dict tracks (even ones whose
        instance count has dropped to zero would be absent — the dict
        deletes them), with rows in dict insertion order.
        """
        app_ids = tuple(self._instances)
        app_index = {a: i for i, a in enumerate(app_ids)}
        n_apps, n_nodes = len(app_ids), len(self._node_index)
        inst = np.zeros((n_apps, n_nodes), dtype=np.int64)
        load = np.zeros((n_apps, n_nodes))
        for a, nodes in self._instances.items():
            row = app_index[a]
            for node, count in nodes.items():
                inst[row, self._node_index[node]] = count
        for a, nodes in self._load.items():
            row = app_index.get(a)
            if row is None:
                continue
            for node, cpu in nodes.items():
                load[row, self._node_index[node]] = cpu
        return DensePlacement(
            app_ids=app_ids,
            app_index=app_index,
            node_names=tuple(self._node_index),
            node_index=dict(self._node_index),
            instances=inst,
            load=load,
        )

    def allocations(self) -> Dict[str, float]:
        """``{app_id: total CPU}`` over all placed applications."""
        return {app_id: self.cpu_of(app_id) for app_id in self.app_ids}

    def as_matrix(self) -> Dict[str, Dict[str, int]]:
        """A deep copy of the placement matrix ``P``."""
        return {a: dict(nodes) for a, nodes in self._instances.items() if nodes}

    def matrix_key(self) -> Tuple[Tuple[str, Tuple[Tuple[str, int], ...]], ...]:
        """A hashable fingerprint of the placement matrix ``P``.

        Preserves dict *insertion order* (both the application order and
        each application's node order), not just contents: downstream
        consumers — the load distributor's tie-breaking, action diffing —
        iterate these dicts, so two states may only share a fingerprint
        when every order-sensitive iteration over them behaves
        identically.  This is what makes the controller's per-cycle
        evaluation memo byte-exact.
        """
        return tuple(
            (a, tuple(nodes.items()))
            for a, nodes in self._instances.items()
            if nodes
        )

    def load_matrix(self) -> Dict[str, Dict[str, float]]:
        """A deep copy of the load matrix ``L``."""
        return {
            a: {n: c for n, c in nodes.items() if c > EPSILON}
            for a, nodes in self._load.items()
            if any(c > EPSILON for c in nodes.values())
        }

    def load_entries(self) -> Tuple[Tuple[str, str, float], ...]:
        """The entries of :meth:`load_matrix` as ``(app, node, cpu)``
        triples in the same order, without building the copy."""
        return tuple(
            (a, n, c)
            for a, nodes in self._load.items()
            for n, c in nodes.items()
            if c > EPSILON
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def place(self, app_id: str, node: str, memory_mb: float, count: int = 1) -> None:
        """Place ``count`` instances of ``app_id`` on ``node``.

        Raises :class:`CapacityError` if the node lacks memory.
        """
        if count <= 0:
            raise PlacementError(f"instance count must be positive, got {count}")
        if node not in self._node_memory_used:
            raise PlacementError(f"unknown node: {node!r}")
        existing_demand = self._memory_demand.get(app_id)
        if existing_demand is not None and abs(existing_demand - memory_mb) > EPSILON:
            raise PlacementError(
                f"{app_id}: inconsistent memory demand "
                f"({existing_demand} vs {memory_mb})"
            )
        needed = memory_mb * count
        if needed > self.memory_available(node) + EPSILON:
            raise CapacityError(
                f"node {node}: {needed:.0f}MB needed for {count}x {app_id}, "
                f"only {self.memory_available(node):.0f}MB free"
            )
        self._memory_demand[app_id] = memory_mb
        self._instances.setdefault(app_id, {})
        self._instances[app_id][node] = self._instances[app_id].get(node, 0) + count
        new_used = self._node_memory_used[node] + needed
        self._node_memory_used[node] = new_used
        self._mem_used_arr[self._node_index[node]] = new_used
        self._inst_total[app_id] = self._inst_total.get(app_id, 0) + count

    def remove(self, app_id: str, node: str, count: int = 1) -> None:
        """Remove ``count`` instances of ``app_id`` from ``node``.

        Any CPU allocated to the application on the node is released.
        """
        have = self._instances.get(app_id, {}).get(node, 0)
        if count <= 0 or have < count:
            raise PlacementError(
                f"cannot remove {count}x {app_id} from {node}: {have} placed"
            )
        self._instances[app_id][node] = have - count
        if self._instances[app_id][node] == 0:
            del self._instances[app_id][node]
        new_total = self._inst_total.get(app_id, 0) - count
        if new_total > 0:
            self._inst_total[app_id] = new_total
        else:
            self._inst_total.pop(app_id, None)
        new_used = self._node_memory_used[node] - self._memory_demand[app_id] * count
        if new_used < 0:
            new_used = 0.0
        self._node_memory_used[node] = new_used
        self._mem_used_arr[self._node_index[node]] = new_used
        if self._instances[app_id].get(node, 0) == 0:
            self.set_cpu(app_id, node, 0.0)
        if not self._instances[app_id]:
            del self._instances[app_id]

    def set_cpu(self, app_id: str, node: str, cpu_mhz: float) -> None:
        """Set ``L[app_id][node] = cpu_mhz``.

        Raises :class:`CapacityError` on node CPU overflow and
        :class:`PlacementError` if the application has no instance there
        (unless setting to zero).
        """
        if cpu_mhz < -EPSILON:
            raise PlacementError(f"negative CPU allocation: {cpu_mhz}")
        cpu_mhz = max(0.0, cpu_mhz)
        if cpu_mhz > EPSILON and self._instances.get(app_id, {}).get(node, 0) == 0:
            raise PlacementError(f"{app_id} has no instance on {node}")
        current = self._load.get(app_id, {}).get(node, 0.0)
        new_used = self._node_cpu_used[node] - current + cpu_mhz
        capacity = self._cluster.node(node).cpu_capacity
        if new_used > capacity + EPSILON:
            raise CapacityError(
                f"node {node}: CPU {new_used:.1f}MHz exceeds capacity {capacity:.1f}MHz"
            )
        self._node_cpu_used[node] = new_used
        self._cpu_used_arr[self._node_index[node]] = new_used
        self._load.setdefault(app_id, {})[node] = cpu_mhz
        if cpu_mhz <= EPSILON:
            self._load[app_id].pop(node, None)

    def clear_load(self) -> None:
        """Zero the entire load matrix (placement is kept)."""
        self._load = {}
        self._node_cpu_used = {n: 0.0 for n in self._node_cpu_used}
        self._cpu_used_arr.fill(0.0)

    def copy(self) -> "PlacementState":
        """A deep, independent copy sharing only the (immutable) cluster."""
        clone = PlacementState.__new__(PlacementState)
        clone._cluster = self._cluster
        clone._instances = {a: dict(nodes) for a, nodes in self._instances.items()}
        clone._load = {a: dict(nodes) for a, nodes in self._load.items()}
        clone._memory_demand = dict(self._memory_demand)
        clone._node_memory_used = dict(self._node_memory_used)
        clone._node_cpu_used = dict(self._node_cpu_used)
        clone._node_index = self._node_index
        clone._mem_used_arr = self._mem_used_arr.copy()
        clone._cpu_used_arr = self._cpu_used_arr.copy()
        clone._inst_total = dict(self._inst_total)
        return clone

    # ------------------------------------------------------------------
    # Snapshot / restore (crash-safe simulations)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Verbatim JSON form of the full state, caches included.

        Two things are preserved deliberately: dict *insertion order*
        (see :meth:`matrix_key` — iteration order is semantically
        significant for tie-breaking and diffing, and JSON objects keep
        key order through a dump/load round trip), and the accumulated
        per-node usage caches (re-summing them fresh could differ in the
        last float ulp from the values the original run accumulated,
        breaking byte-identical resume).  Empty per-app entries are kept
        for the same order-sensitivity reason: re-placing such an app
        must land at its original dict position.
        """
        return {
            "instances": {a: dict(n) for a, n in self._instances.items()},
            "load": {a: dict(n) for a, n in self._load.items()},
            "memory_demand": dict(self._memory_demand),
            "node_memory_used": dict(self._node_memory_used),
            "node_cpu_used": dict(self._node_cpu_used),
        }

    @classmethod
    def from_dict(cls, cluster: Cluster, data: Dict[str, object]) -> "PlacementState":
        """Rebuild a state captured by :meth:`to_dict` over ``cluster``."""
        state = cls.__new__(cls)
        state._cluster = cluster
        state._instances = {
            a: {n: int(c) for n, c in nodes.items()}
            for a, nodes in data["instances"].items()
        }
        state._load = {
            a: {n: float(c) for n, c in nodes.items()}
            for a, nodes in data["load"].items()
        }
        state._memory_demand = {
            a: float(m) for a, m in data["memory_demand"].items()
        }
        state._node_memory_used = {
            n: float(v) for n, v in data["node_memory_used"].items()
        }
        state._node_cpu_used = {
            n: float(v) for n, v in data["node_cpu_used"].items()
        }
        unknown = set(state._node_memory_used) - set(cluster.node_names)
        if unknown:
            raise PlacementError(
                f"placement state references unknown nodes: {sorted(unknown)}"
            )
        state._node_index = {n: i for i, n in enumerate(cluster.node_names)}
        state._mem_used_arr = np.array(
            [state._node_memory_used.get(n, 0.0) for n in state._node_index]
        )
        state._cpu_used_arr = np.array(
            [state._node_cpu_used.get(n, 0.0) for n in state._node_index]
        )
        state._inst_total = {
            a: total
            for a, nodes in state._instances.items()
            if (total := sum(nodes.values()))
        }
        return state

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Re-derive caches and assert internal consistency (for tests)."""
        for node in self._cluster:
            mem = sum(
                self._memory_demand.get(a, 0.0) * nodes.get(node.name, 0)
                for a, nodes in self._instances.items()
            )
            if abs(mem - self._node_memory_used[node.name]) > 1e-3:
                raise PlacementError(
                    f"memory cache drift on {node.name}: "
                    f"{mem} vs {self._node_memory_used[node.name]}"
                )
            if mem > node.memory_capacity + EPSILON:
                raise CapacityError(f"node {node.name} memory overcommitted")
            cpu = sum(
                loads.get(node.name, 0.0) for loads in self._load.values()
            )
            if abs(cpu - self._node_cpu_used[node.name]) > 1e-3:
                raise PlacementError(
                    f"CPU cache drift on {node.name}: "
                    f"{cpu} vs {self._node_cpu_used[node.name]}"
                )
            if cpu > node.cpu_capacity + EPSILON:
                raise CapacityError(f"node {node.name} CPU overcommitted")
            col = self._node_index[node.name]
            if self._mem_used_arr[col] != self._node_memory_used[node.name]:
                raise PlacementError(
                    f"memory array mirror drift on {node.name}: "
                    f"{self._mem_used_arr[col]} vs "
                    f"{self._node_memory_used[node.name]}"
                )
            if self._cpu_used_arr[col] != self._node_cpu_used[node.name]:
                raise PlacementError(
                    f"CPU array mirror drift on {node.name}: "
                    f"{self._cpu_used_arr[col]} vs "
                    f"{self._node_cpu_used[node.name]}"
                )
        for app_id, nodes in self._instances.items():
            if self._inst_total.get(app_id, 0) != sum(nodes.values()):
                raise PlacementError(
                    f"instance-total drift for {app_id}: "
                    f"{self._inst_total.get(app_id, 0)} vs {sum(nodes.values())}"
                )
        for app_id, total in self._inst_total.items():
            if total <= 0 or app_id not in self._instances:
                raise PlacementError(
                    f"stale instance-total entry for {app_id}: {total}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        placed = sum(self.instance_count(a) for a in self.app_ids)
        return f"PlacementState({len(self.app_ids)} apps, {placed} instances)"
