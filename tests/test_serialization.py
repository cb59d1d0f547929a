"""Graph JSON round-trips for every speedup model family."""

import json

import pytest

from repro import TaskGraph, load_graph, save_graph
from repro.exceptions import EdgeVolumeError, GraphError, MissingFieldError
from repro.graph.serialization import graph_from_dict, graph_to_dict
from repro.speedup import (
    AmdahlSpeedup,
    DowneySpeedup,
    ExecutionProfile,
    LinearSpeedup,
    SpeedupModel,
    TableSpeedup,
)


def make_graph():
    g = TaskGraph("mix")
    g.add_task("D", ExecutionProfile(DowneySpeedup(16, 1.5), 10.0), kind="x")
    g.add_task("A", ExecutionProfile(AmdahlSpeedup(0.25), 20.0))
    g.add_task("L", ExecutionProfile(LinearSpeedup(cap=4), 30.0))
    g.add_task("T", ExecutionProfile.from_table({1: 8.0, 2: 5.0, 4: 3.0}))
    g.add_edge("D", "A", 1e6)
    g.add_edge("A", "L", 2e6)
    g.add_edge("L", "T", 0.0)
    return g


class TestRoundTrip:
    def test_structure_preserved(self):
        g = make_graph()
        g2 = graph_from_dict(graph_to_dict(g))
        assert g2.tasks() == g.tasks()
        assert g2.edges() == g.edges()
        assert g2.name == g.name

    def test_volumes_preserved(self):
        g2 = graph_from_dict(graph_to_dict(make_graph()))
        assert g2.data_volume("A", "L") == 2e6
        assert g2.data_volume("L", "T") == 0.0

    def test_attrs_preserved(self):
        g2 = graph_from_dict(graph_to_dict(make_graph()))
        assert g2.task("D").attrs == {"kind": "x"}

    @pytest.mark.parametrize("task,p", [("D", 4), ("A", 8), ("L", 16), ("T", 2)])
    def test_profiles_reproduce_times(self, task, p):
        g = make_graph()
        g2 = graph_from_dict(graph_to_dict(g))
        assert g2.et(task, p) == pytest.approx(g.et(task, p))

    def test_file_round_trip(self, tmp_path):
        g = make_graph()
        path = tmp_path / "graph.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.tasks() == g.tasks()
        # on-disk format is plain JSON
        doc = json.loads(path.read_text())
        assert doc["name"] == "mix"
        assert len(doc["tasks"]) == 4


class TestErrors:
    def test_unknown_model_type(self):
        doc = graph_to_dict(make_graph())
        doc["tasks"][0]["model"]["type"] = "mystery"
        with pytest.raises(GraphError, match="unknown speedup model"):
            graph_from_dict(doc)

    @pytest.mark.parametrize("field", ["tasks", "edges"])
    def test_missing_top_level_field(self, field):
        doc = graph_to_dict(make_graph())
        del doc[field]
        with pytest.raises(MissingFieldError, match=field) as info:
            graph_from_dict(doc)
        # still a KeyError for callers that catch the old bare error
        assert isinstance(info.value, KeyError)
        assert isinstance(info.value, GraphError)

    @pytest.mark.parametrize("volume", [-1.0, float("nan"), float("inf")])
    def test_bad_edge_volume(self, volume):
        doc = graph_to_dict(make_graph())
        doc["edges"][0]["data_volume"] = volume
        with pytest.raises(EdgeVolumeError, match="data_volume"):
            graph_from_dict(doc)

    def test_missing_task_field(self):
        doc = graph_to_dict(make_graph())
        del doc["tasks"][0]["sequential_time"]
        with pytest.raises(MissingFieldError, match="sequential_time"):
            graph_from_dict(doc)

    def test_unregistered_model_rejected_on_encode(self):
        class Weird(SpeedupModel):
            def speedup(self, n):
                return 1.0

        g = TaskGraph()
        g.add_task("X", ExecutionProfile(Weird(), 1.0))
        with pytest.raises(GraphError, match="cannot serialize"):
            graph_to_dict(g)
