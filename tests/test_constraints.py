"""Tests for placement constraints."""

import pytest

from repro.batch.job import JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import (
    APCConfig,
    ApplicationPlacementController,
    _FrontierIndex,
)
from repro.core.constraints import (
    AntiCollocation,
    Collocation,
    ConstraintSet,
    MaxInstancesPerNode,
    PinToNodes,
)
from repro.core.placement import PlacementState
from repro.obs.audit import DecisionAudit
from repro.obs.spans import SpanProfiler
from repro.txn.application import TransactionalApp
from repro.txn.model import TransactionalWorkloadModel
from repro.txn.workload import ConstantTrace

from tests.conftest import assert_solver_path, make_job


@pytest.fixture
def state(small_cluster):
    return PlacementState(small_cluster)


class TestPinToNodes:
    def test_allows_only_pinned_nodes(self, state):
        pin = PinToNodes("a", ["node0", "node1"])
        assert pin.allows(state, "a", "node0")
        assert not pin.allows(state, "a", "node2")

    def test_ignores_other_apps(self, state):
        pin = PinToNodes("a", ["node0"])
        assert pin.allows(state, "b", "node3")


class TestAntiCollocation:
    def test_blocks_shared_node(self, state):
        rule = AntiCollocation("a", "b")
        state.place("b", "node0", 100)
        assert not rule.allows(state, "a", "node0")
        assert rule.allows(state, "a", "node1")

    def test_symmetric(self, state):
        rule = AntiCollocation("a", "b")
        state.place("a", "node0", 100)
        assert not rule.allows(state, "b", "node0")

    def test_ignores_unrelated_apps(self, state):
        rule = AntiCollocation("a", "b")
        state.place("a", "node0", 100)
        assert rule.allows(state, "c", "node0")


class TestCollocation:
    def test_dependent_requires_anchor(self, state):
        rule = Collocation(dependent="cache", anchor="svc")
        assert not rule.allows(state, "cache", "node0")
        state.place("svc", "node0", 100)
        assert rule.allows(state, "cache", "node0")
        assert not rule.allows(state, "cache", "node1")

    def test_anchor_unconstrained(self, state):
        rule = Collocation(dependent="cache", anchor="svc")
        assert rule.allows(state, "svc", "node3")

    def test_unrelated_apps_unconstrained(self, state):
        rule = Collocation(dependent="cache", anchor="svc")
        assert rule.allows(state, "other", "node0")

    def test_self_collocation_rejected(self):
        with pytest.raises(ValueError):
            Collocation("a", "a")


class TestMaxInstancesPerNode:
    def test_default_limit_one(self, state):
        rule = MaxInstancesPerNode("a")
        assert rule.allows(state, "a", "node0")
        state.place("a", "node0", 100)
        assert not rule.allows(state, "a", "node0")
        assert rule.allows(state, "a", "node1")

    def test_custom_limit(self, state):
        rule = MaxInstancesPerNode("a", limit=2)
        state.place("a", "node0", 100)
        assert rule.allows(state, "a", "node0")
        state.place("a", "node0", 100)
        assert not rule.allows(state, "a", "node0")


class TestConstraintSet:
    def test_conjunction(self, state):
        rules = ConstraintSet([PinToNodes("a", ["node0"]), MaxInstancesPerNode("a")])
        assert rules.allows(state, "a", "node0")
        state.place("a", "node0", 100)
        assert not rules.allows(state, "a", "node0")  # limit
        assert not rules.allows(state, "a", "node1")  # pin

    def test_empty_set_allows_everything(self, state):
        assert ConstraintSet().allows(state, "anything", "node0")

    def test_add_and_len(self, state):
        rules = ConstraintSet()
        rules.add(PinToNodes("a", ["node0"]))
        assert len(rules) == 1
        assert list(rules)


class TestConstraintsOnFastPath:
    """Constraints do not switch solver kernels: on a 20-node cluster
    (above the default ``fast_path_min_nodes``) the fast path's array
    admission pass and frontier index check the constraints per node, in
    node order, after the earlier placements — and so decide exactly as
    the reference path does, cycle by cycle."""

    NODES = 20
    PINNED = tuple(f"node{i:02d}" for i in range(0, NODES, 2))

    def constraints(self):
        return ConstraintSet(
            [
                PinToNodes("web", self.PINNED),
                AntiCollocation("web", "J0"),
                AntiCollocation("J1", "J2"),
                MaxInstancesPerNode("web", 1),
                MaxInstancesPerNode("J5", 0),
            ]
        )

    def cluster(self):
        # Integer capacities on purpose: the array kernels must not
        # inherit an integer dtype from them.
        return Cluster.homogeneous(
            self.NODES,
            cpu_capacity=2 * 3900,
            memory_capacity=3 * 1024,
            cpu_per_processor=3900,
        )

    @staticmethod
    def web_model():
        web = TransactionalApp(
            app_id="web",
            memory_mb=500,
            demand_mcycles=40.0,
            response_time_goal=0.1,
            trace=ConstantTrace(400.0),
            single_thread_speed_mhz=3900.0,
            max_instances=7,
        )
        return TransactionalWorkloadModel([web])

    def run(self, fast_path_min_nodes, cycles=8, horizon=600.0):
        cluster = self.cluster()
        txn = self.web_model()
        queue = JobQueue()
        batch = BatchWorkloadModel(queue)
        audit = DecisionAudit()
        profiler = SpanProfiler()
        controller = ApplicationPlacementController(
            cluster,
            APCConfig(
                cycle_length=horizon, fast_path_min_nodes=fast_path_min_nodes
            ),
            constraints=self.constraints(),
            audit=audit,
            profiler=profiler,
        )
        pending = [
            make_job(
                f"J{i}",
                work=3900.0 * horizon * (1 + i % 3),
                max_speed=3900.0,
                memory=750.0 + 250.0 * (i % 4),
                submit=100.0 * i,
                goal_factor=1.5 + i % 4,
            )
            for i in range(60)
        ]
        state = PlacementState(cluster)
        now = 0.0
        placements = []
        for _ in range(cycles):
            while pending and pending[0].submit_time <= now:
                queue.submit(pending.pop(0))
            result = controller.place([txn, batch], state, now)
            state = result.state
            placements.append(state.as_matrix())
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
        verdicts = [r for r in audit.records if r["type"] == "audit_admission"]
        return placements, verdicts, profiler

    def test_fast_and_reference_paths_agree(self):
        fast, fast_verdicts, fast_spans = self.run(
            APCConfig().fast_path_min_nodes
        )
        ref, ref_verdicts, ref_spans = self.run(self.NODES + 1)
        assert_solver_path(fast_spans, fast=True)
        assert_solver_path(ref_spans, fast=False)
        assert fast == ref
        assert fast_verdicts == ref_verdicts
        # The run exercises the constraints, not just carries them.
        reasons = {v["reason"] for v in fast_verdicts}
        assert "constraint" in reasons
        assert any(
            "apc.search" == r.name for r in fast_spans.records
        ), "the nested-loop search (and its frontier checks) must run"
        for matrix in fast:
            web_nodes = {n for n, c in matrix.get("web", {}).items() if c}
            assert web_nodes and web_nodes <= set(self.PINNED)
            j1 = {n for n, c in matrix.get("J1", {}).items() if c}
            j2 = {n for n, c in matrix.get("J2", {}).items() if c}
            assert not j1 & j2
            assert not matrix.get("J5")

    def test_frontier_sees_constraints(self):
        """The fast path's no-op-node check answers exactly whether the
        reference fill would place anything on the node — constraint
        verdicts included, not just memory and CPU fit."""
        cluster = self.cluster()
        txn = self.web_model()
        queue = JobQueue()
        for job_id in ("J1", "J2"):
            queue.submit(make_job(job_id, memory=750.0))
        batch = BatchWorkloadModel(queue)
        specs = {**txn.app_specs(0.0), **batch.app_specs(0.0)}
        candidates = ["web", "J1"]
        state = PlacementState(cluster)
        # J2 on an unpinned node: there neither candidate may go (web is
        # pinned elsewhere, J1 is anti-collocated with J2) although both
        # fit by memory and CPU.
        state.place("J2", "node03", 750.0)
        constraints = self.constraints()
        controller = ApplicationPlacementController(
            cluster, constraints=constraints
        )
        frontier = _FrontierIndex.build(state, specs, candidates, constraints)
        answers = {}
        for node in cluster.node_names:
            answers[node] = frontier.fill_possible(
                state.memory_available(node),
                controller._node_committed_min(state, specs, node),
                cluster.node(node).cpu_capacity,
                node,
            )
            filled = controller._fill_node(
                state.copy(), specs, candidates, {}, node, forbidden=set()
            )
            assert answers[node] == filled, node
        assert answers["node03"] is False
        assert answers["node01"] is True and answers["node00"] is True
