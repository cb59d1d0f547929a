"""TaskGraph construction, queries, and invariants."""

import pytest

from repro import TaskGraph
from repro.exceptions import (
    CycleError,
    EdgeVolumeError,
    GraphError,
    UnknownTaskError,
)
from repro.speedup import ExecutionProfile, LinearSpeedup


def profile(et1=10.0):
    return ExecutionProfile(LinearSpeedup(), et1)


@pytest.fixture
def diamond():
    g = TaskGraph("diamond")
    for name in ("A", "B", "C", "D"):
        g.add_task(name, profile())
    g.add_edge("A", "B", 100.0)
    g.add_edge("A", "C", 200.0)
    g.add_edge("B", "D", 300.0)
    g.add_edge("C", "D", 400.0)
    return g


class TestConstruction:
    def test_add_task_returns_task(self):
        g = TaskGraph()
        t = g.add_task("X", profile(5.0), kind="add")
        assert t.name == "X"
        assert t.attrs == {"kind": "add"}
        assert t.time(2) == 2.5

    def test_task_fields_are_frozen(self):
        # graph caches keyed by (graph, revision) hold each task's profile;
        # reassigning it would serve stale values
        import dataclasses

        g = TaskGraph()
        t = g.add_task("X", profile(5.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.profile = profile(1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.name = "Y"
        assert g.task("X").time(1) == 5.0

    def test_duplicate_task_rejected(self):
        g = TaskGraph()
        g.add_task("X", profile())
        with pytest.raises(GraphError, match="duplicate"):
            g.add_task("X", profile())

    def test_bad_profile_rejected(self):
        g = TaskGraph()
        with pytest.raises(GraphError):
            g.add_task("X", 3.0)

    def test_edge_to_unknown_task(self):
        g = TaskGraph()
        g.add_task("X", profile())
        with pytest.raises(UnknownTaskError):
            g.add_edge("X", "Y")

    def test_self_loop_rejected(self):
        g = TaskGraph()
        g.add_task("X", profile())
        with pytest.raises(CycleError):
            g.add_edge("X", "X")

    def test_cycle_rejected_immediately(self):
        g = TaskGraph()
        for n in ("A", "B", "C"):
            g.add_task(n, profile())
        g.add_edge("A", "B")
        g.add_edge("B", "C")
        with pytest.raises(CycleError):
            g.add_edge("C", "A")

    def test_duplicate_edge_rejected(self, diamond):
        with pytest.raises(GraphError, match="duplicate edge"):
            diamond.add_edge("A", "B")

    def test_negative_volume_rejected(self):
        g = TaskGraph()
        g.add_task("A", profile())
        g.add_task("B", profile())
        with pytest.raises(ValueError):
            g.add_edge("A", "B", -1.0)

    @pytest.mark.parametrize("volume", [-1.0, float("nan"), float("inf")])
    def test_bad_volume_raises_edge_volume_error(self, volume):
        g = TaskGraph()
        g.add_task("A", profile())
        g.add_task("B", profile())
        with pytest.raises(EdgeVolumeError, match="'A' -> 'B'") as info:
            g.add_edge("A", "B", volume)
        assert isinstance(info.value, GraphError)
        assert isinstance(info.value, ValueError)
        assert g.num_edges == 0


class TestQueries:
    def test_counts(self, diamond):
        assert diamond.num_tasks == 4
        assert diamond.num_edges == 4
        assert len(diamond) == 4

    def test_membership(self, diamond):
        assert "A" in diamond
        assert "Z" not in diamond

    def test_data_volume(self, diamond):
        assert diamond.data_volume("C", "D") == 400.0

    def test_data_volume_missing_edge(self, diamond):
        with pytest.raises(GraphError):
            diamond.data_volume("A", "D")

    def test_predecessors_successors(self, diamond):
        assert set(diamond.predecessors("D")) == {"B", "C"}
        assert set(diamond.successors("A")) == {"B", "C"}

    def test_sources_sinks(self, diamond):
        assert diamond.sources() == ["A"]
        assert diamond.sinks() == ["D"]

    def test_et(self, diamond):
        assert diamond.et("A", 2) == 5.0
        assert diamond.sequential_time("A") == 10.0

    def test_total_sequential_work(self, diamond):
        assert diamond.total_sequential_work() == 40.0

    def test_topological_order_valid(self, diamond):
        order = diamond.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for u, v in diamond.edges():
            assert pos[u] < pos[v]

    def test_unknown_task_raises(self, diamond):
        with pytest.raises(UnknownTaskError):
            diamond.task("nope")


class TestTransforms:
    def test_copy_is_structural(self, diamond):
        c = diamond.copy()
        assert c.tasks() == diamond.tasks()
        assert c.edges() == diamond.edges()
        c.add_task("E", profile())
        assert "E" not in diamond

    def test_copy_shares_profiles(self, diamond):
        c = diamond.copy()
        assert c.task("A").profile is diamond.task("A").profile

    def test_validate_passes(self, diamond):
        diamond.validate()

    def test_validate_detects_backdoor_cycle(self, diamond):
        diamond.nx_graph().add_edge("D", "A", data_volume=0.0)
        with pytest.raises(CycleError):
            diamond.validate()

    def test_validate_detects_bad_volume(self, diamond):
        diamond.nx_graph().edges["A", "B"]["data_volume"] = -5
        with pytest.raises(GraphError):
            diamond.validate()
