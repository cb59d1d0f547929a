"""ScheduleDAG: pseudo-edges, critical paths, cost decomposition."""

import random

import pytest

from repro import TaskGraph
from repro.exceptions import CycleError, GraphError
from repro.graph.pseudo import ScheduleDAG
from repro.speedup import ExecutionProfile, LinearSpeedup


def make_base():
    g = TaskGraph("base")
    for n in ("A", "B", "C", "D"):
        g.add_task(n, ExecutionProfile(LinearSpeedup(), 10.0))
    g.add_edge("A", "B", 100.0)
    g.add_edge("A", "C", 100.0)
    g.add_edge("B", "D", 100.0)
    g.add_edge("C", "D", 100.0)
    return g


def make_sdag(vw=None, ew=None):
    base = make_base()
    vw = vw or {n: 10.0 for n in base.tasks()}
    ew = ew or {}
    return base, ScheduleDAG(base, vw, ew)


class TestConstruction:
    def test_missing_vertex_weight_rejected(self):
        base = make_base()
        with pytest.raises(GraphError, match="missing"):
            ScheduleDAG(base, {"A": 1.0}, {})

    def test_negative_edge_weight_rejected(self):
        base = make_base()
        with pytest.raises(GraphError):
            ScheduleDAG(
                base, {n: 1.0 for n in base.tasks()}, {("A", "B"): -1.0}
            )

    def test_default_edge_weight_zero(self):
        _, sdag = make_sdag()
        assert sdag.edge_weight("A", "B") == 0.0

    def test_real_edges_enumerated(self):
        _, sdag = make_sdag()
        assert set(sdag.real_edges()) == {
            ("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"),
        }


class TestPseudoEdges:
    def test_add_pseudo_edge(self):
        _, sdag = make_sdag()
        sdag.add_pseudo_edge("B", "C")
        assert sdag.is_pseudo("B", "C")
        assert ("B", "C") in sdag.pseudo_edges()
        assert sdag.edge_weight("B", "C") == 0.0

    def test_pseudo_parallel_to_real_is_noop(self):
        _, sdag = make_sdag()
        sdag.add_pseudo_edge("A", "B")
        assert not sdag.is_pseudo("A", "B")
        assert sdag.pseudo_edges() == []

    def test_pseudo_cycle_rejected(self):
        _, sdag = make_sdag()
        with pytest.raises(CycleError):
            sdag.add_pseudo_edge("D", "A")

    def test_pseudo_self_loop_rejected(self):
        _, sdag = make_sdag()
        with pytest.raises(CycleError):
            sdag.add_pseudo_edge("A", "A")

    def test_pseudo_unknown_endpoint(self):
        _, sdag = make_sdag()
        with pytest.raises(GraphError):
            sdag.add_pseudo_edge("A", "Z")

    def test_duplicate_pseudo_is_noop(self):
        _, sdag = make_sdag()
        sdag.add_pseudo_edge("B", "C")
        sdag.add_pseudo_edge("B", "C")
        assert sdag.pseudo_edges() == [("B", "C")]


class TestCriticalPath:
    def test_without_pseudo_edges(self):
        _, sdag = make_sdag()
        length, path = sdag.critical_path()
        assert length == 30.0
        assert path in (["A", "B", "D"], ["A", "C", "D"])

    def test_pseudo_edge_extends_cp(self):
        # Serializing B and C reproduces the paper's Fig 1: CP includes both.
        _, sdag = make_sdag()
        sdag.add_pseudo_edge("B", "C")
        length, path = sdag.critical_path()
        assert length == 40.0
        assert path == ["A", "B", "C", "D"]

    def test_edge_weights_counted(self):
        _, sdag = make_sdag(ew={("A", "B"): 5.0, ("B", "D"): 7.0})
        length, path = sdag.critical_path()
        assert length == 42.0
        assert path == ["A", "B", "D"]

    def test_path_costs_decomposition(self):
        _, sdag = make_sdag(ew={("A", "B"): 5.0, ("B", "D"): 7.0})
        _, path = sdag.critical_path()
        tcomp, tcomm = sdag.path_costs(path)
        assert tcomp == 30.0
        assert tcomm == 12.0

    def test_path_costs_pseudo_edges_free(self):
        _, sdag = make_sdag()
        sdag.add_pseudo_edge("B", "C")
        _, path = sdag.critical_path()
        tcomp, tcomm = sdag.path_costs(path)
        assert tcomp == 40.0
        assert tcomm == 0.0

    def test_path_costs_rejects_non_path(self):
        _, sdag = make_sdag()
        with pytest.raises(GraphError):
            sdag.path_costs(["A", "D"])

    def test_real_edges_on_path_skips_pseudo(self):
        _, sdag = make_sdag(ew={("A", "B"): 5.0, ("C", "D"): 3.0})
        sdag.add_pseudo_edge("B", "C")
        _, path = sdag.critical_path()
        reals = sdag.real_edges_on_path(path)
        assert ("A", "B", 5.0) in reals
        assert ("C", "D", 3.0) in reals
        assert all(not sdag.is_pseudo(u, v) for u, v, _ in reals)


def random_sdag(seed, n=12):
    """A random DAG over T0..Tn-1 (edges run up the index) and its G'."""
    rng = random.Random(seed)
    g = TaskGraph(f"rand{seed}")
    for i in range(n):
        g.add_task(f"T{i}", ExecutionProfile(LinearSpeedup(), 1.0))
    for j in range(1, n):
        for i in rng.sample(range(j), k=min(j, rng.randint(0, 2))):
            g.add_edge(f"T{i}", f"T{j}", 1.0)
    vw = {t: rng.uniform(0.5, 5.0) for t in g.tasks()}
    ew = {e: rng.choice([0.0, rng.uniform(0.1, 3.0)]) for e in g.edges()}
    return g, vw, ew


class TestAddPseudoEdges:
    """``add_pseudo_edges`` equals one ``add_pseudo_edge`` call per pair."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_one_by_one(self, seed):
        rng = random.Random(100 + seed)
        g, vw, ew = random_sdag(seed)
        order = g.tasks()  # edges run up the index: a topological order
        pairs = []
        for _ in range(20):
            i, j = sorted(rng.sample(range(len(order)), 2))
            pairs.append((order[i], order[j]))
        pairs += pairs[:3]  # repeats are no-ops
        pairs += g.edges()[:2]  # so are pairs parallel to real edges
        one_by_one = ScheduleDAG(g, vw, ew)
        for u, v in pairs:
            one_by_one.add_pseudo_edge(u, v)
        bulk = ScheduleDAG(g, vw, ew)
        bulk.add_pseudo_edges(pairs, order)
        assert bulk.pseudo_edges() == one_by_one.pseudo_edges()
        assert bulk.critical_path() == one_by_one.critical_path()

    def test_backward_pairs_take_the_checked_path(self):
        _, sdag = make_sdag()
        eager = make_sdag()[1]
        pairs = [("C", "B"), ("A", "D")]
        for u, v in pairs:
            eager.add_pseudo_edge(u, v)
        # C -> B runs backward in this order but closes no cycle
        sdag.add_pseudo_edges(pairs, ["A", "B", "C", "D"])
        assert sdag.pseudo_edges() == eager.pseudo_edges()
        assert sdag.pseudo_edges() == [("A", "D"), ("C", "B")]

    def test_backward_pair_closing_a_cycle_raises(self):
        _, sdag = make_sdag()
        with pytest.raises(CycleError):
            sdag.add_pseudo_edges([("B", "C"), ("D", "A")], ["A", "B", "C", "D"])

    def test_forward_pair_after_an_added_backward_pair_is_checked(self):
        _, sdag = make_sdag()
        # C -> B is fine alone, but then B -> C (forward) closes a cycle
        with pytest.raises(CycleError):
            sdag.add_pseudo_edges([("C", "B"), ("B", "C")], ["A", "B", "C", "D"])

    def test_pair_parallel_to_real_edge_is_noop(self):
        _, sdag = make_sdag()
        sdag.add_pseudo_edges([("A", "B"), ("C", "D")], ["A", "B", "C", "D"])
        assert sdag.pseudo_edges() == []
        assert not sdag.is_pseudo("A", "B")

    def test_unknown_endpoint_rejected(self):
        _, sdag = make_sdag()
        with pytest.raises(GraphError):
            sdag.add_pseudo_edges([("A", "Z")], ["A", "B", "C", "D"])

    @pytest.mark.parametrize(
        "order",
        [["A", "C", "B"], ["A", "B", "C", "D", "D"], ["A", "C", "B", "E"],
         ["D", "B", "C", "A"]],
    )
    def test_order_must_be_topological_over_every_task(self, order):
        _, sdag = make_sdag()
        with pytest.raises(GraphError, match="order"):
            sdag.add_pseudo_edges([], order)
