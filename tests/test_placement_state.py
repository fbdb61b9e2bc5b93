"""Tests for the placement/load matrices."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core.placement import AppDemand, PlacementState
from repro.errors import CapacityError, PlacementError


@pytest.fixture
def state(small_cluster) -> PlacementState:
    return PlacementState(small_cluster)


FIRST = "node0"
SECOND = "node1"


class TestAppDemand:
    def test_defaults(self):
        d = AppDemand(app_id="a", memory_mb=100)
        assert d.min_cpu_mhz == 0.0
        assert d.max_instances == 1
        assert not d.divisible

    def test_rejects_negative_memory(self):
        with pytest.raises(PlacementError):
            AppDemand(app_id="a", memory_mb=-1)

    def test_rejects_max_below_min(self):
        with pytest.raises(PlacementError):
            AppDemand(app_id="a", memory_mb=0, min_cpu_mhz=10, max_cpu_per_instance_mhz=5)


class TestPlaceRemove:
    def test_place_updates_memory(self, state):
        state.place("a", FIRST, memory_mb=1000)
        assert state.memory_used(FIRST) == 1000
        assert state.instance_count("a") == 1
        assert state.is_placed("a")
        assert state.nodes_of("a") == [FIRST]

    def test_place_multiple_instances(self, state):
        state.place("a", FIRST, memory_mb=1000, count=3)
        assert state.instance_count("a") == 3
        assert state.memory_used(FIRST) == 3000

    def test_memory_capacity_enforced(self, state):
        with pytest.raises(CapacityError):
            state.place("a", FIRST, memory_mb=20_000)

    def test_inconsistent_memory_demand_rejected(self, state):
        state.place("a", FIRST, memory_mb=1000)
        with pytest.raises(PlacementError):
            state.place("a", SECOND, memory_mb=2000)

    def test_unknown_node_rejected(self, state):
        with pytest.raises(PlacementError):
            state.place("a", "nowhere", memory_mb=100)

    def test_remove_releases_memory_and_cpu(self, state):
        state.place("a", FIRST, memory_mb=1000)
        state.set_cpu("a", FIRST, 500)
        state.remove("a", FIRST)
        assert state.memory_used(FIRST) == 0
        assert state.cpu_used(FIRST) == 0
        assert not state.is_placed("a")

    def test_remove_more_than_placed_rejected(self, state):
        state.place("a", FIRST, memory_mb=100)
        with pytest.raises(PlacementError):
            state.remove("a", FIRST, count=2)

    def test_remove_unplaced_rejected(self, state):
        with pytest.raises(PlacementError):
            state.remove("a", FIRST)


class TestLoadMatrix:
    def test_set_cpu(self, state):
        state.place("a", FIRST, memory_mb=100)
        state.set_cpu("a", FIRST, 2000)
        assert state.cpu_of("a") == 2000
        assert state.cpu_on("a", FIRST) == 2000
        assert state.cpu_available(FIRST) == 4 * 3900 - 2000

    def test_cpu_capacity_enforced(self, state):
        state.place("a", FIRST, memory_mb=100)
        with pytest.raises(CapacityError):
            state.set_cpu("a", FIRST, 4 * 3900 + 1)

    def test_cpu_requires_instance(self, state):
        with pytest.raises(PlacementError):
            state.set_cpu("a", FIRST, 100)

    def test_zero_cpu_allowed_without_instance(self, state):
        state.set_cpu("a", FIRST, 0.0)
        assert state.cpu_of("a") == 0.0

    def test_replacing_allocation(self, state):
        state.place("a", FIRST, memory_mb=100)
        state.set_cpu("a", FIRST, 2000)
        state.set_cpu("a", FIRST, 500)
        assert state.cpu_used(FIRST) == 500

    def test_clear_load_keeps_placement(self, state):
        state.place("a", FIRST, memory_mb=100)
        state.set_cpu("a", FIRST, 2000)
        state.clear_load()
        assert state.cpu_used(FIRST) == 0
        assert state.is_placed("a")

    def test_allocations_and_matrices(self, state):
        state.place("a", FIRST, memory_mb=100)
        state.place("a", SECOND, memory_mb=100)
        state.set_cpu("a", FIRST, 100)
        state.set_cpu("a", SECOND, 200)
        assert state.allocations() == {"a": 300}
        assert state.as_matrix() == {"a": {FIRST: 1, SECOND: 1}}
        assert state.load_matrix() == {"a": {FIRST: 100, SECOND: 200}}

    def test_load_entries_flatten_the_load_matrix_in_order(
        self, state, small_cluster
    ):
        for app in ("c", "a", "b"):
            state.place(app, FIRST, memory_mb=100)
            state.place(app, SECOND, memory_mb=100)
        state.set_cpu("c", SECOND, 300)
        state.set_cpu("c", FIRST, 100)
        state.set_cpu("a", FIRST, 50)
        state.set_cpu("a", FIRST, 0.0)  # leaves an empty row behind
        state.set_cpu("b", FIRST, 200)
        # A restored state may hold entries at or below EPSILON; both
        # views leave them out.
        data = state.to_dict()
        data["load"]["b"] = {SECOND: 1e-9, FIRST: 200}
        data["load"]["d"] = {FIRST: 0.0}
        state = PlacementState.from_dict(small_cluster, data)
        flattened = tuple(
            (a, n, c)
            for a, nodes in state.load_matrix().items()
            for n, c in nodes.items()
        )
        assert state.load_entries() == flattened
        assert flattened == (
            ("c", SECOND, 300),
            ("c", FIRST, 100),
            ("b", FIRST, 200),
        )


class TestCopy:
    def test_copy_is_independent(self, state):
        state.place("a", FIRST, memory_mb=100)
        clone = state.copy()
        clone.place("b", FIRST, memory_mb=200)
        clone.set_cpu("a", FIRST, 50)
        assert not state.is_placed("b")
        assert state.cpu_of("a") == 0
        assert clone.instance_count("a") == 1

    def test_copy_preserves_state(self, state):
        state.place("a", FIRST, memory_mb=100)
        state.set_cpu("a", FIRST, 70)
        clone = state.copy()
        assert clone.as_matrix() == state.as_matrix()
        assert clone.load_matrix() == state.load_matrix()
        clone.validate()


class TestValidate:
    def test_validate_passes_on_consistent_state(self, state):
        state.place("a", FIRST, memory_mb=100)
        state.set_cpu("a", FIRST, 50)
        state.validate()

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from([FIRST, SECOND]),
                st.floats(min_value=0, max_value=3000),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=100)
    def test_random_place_allocate_sequences_stay_consistent(self, ops):
        cluster = Cluster.homogeneous(2, cpu_capacity=10_000, memory_capacity=8_000)
        state = PlacementState(cluster)
        for app, node, cpu in ops:
            try:
                state.place(app, node, memory_mb=1000)
                state.set_cpu(app, node, cpu)
            except (CapacityError, PlacementError):
                pass
        state.validate()
