"""Graph JSON round-trips for every speedup model family."""

import json

import pytest

from repro import TaskGraph, load_graph, save_graph
from repro.exceptions import EdgeVolumeError, GraphError, MissingFieldError
from repro.exceptions import GraphShapeError
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


class TestShapeErrors:
    """A field of the wrong type raises :class:`GraphShapeError`.

    It is both a :class:`GraphError` and the :class:`TypeError` these
    inputs raised before, so either ``except`` clause still catches it.
    """

    def _raises(self, doc, match):
        with pytest.raises(GraphShapeError, match=match) as info:
            graph_from_dict(doc)
        assert isinstance(info.value, GraphError)
        assert isinstance(info.value, TypeError)

    def test_document_is_a_list(self):
        self._raises([graph_to_dict(make_graph())], "graph document")

    def test_model_is_null(self):
        doc = graph_to_dict(make_graph())
        doc["tasks"][0]["model"] = None
        self._raises(doc, "task model")

    def test_model_is_a_list(self):
        doc = graph_to_dict(make_graph())
        doc["tasks"][0]["model"] = [doc["tasks"][0]["model"]]
        self._raises(doc, "task model")

    @pytest.mark.parametrize("field", ["tasks", "edges"])
    @pytest.mark.parametrize("value", [7, "T1", {"T1": {}}], ids=["int", "str", "dict"])
    def test_tasks_or_edges_not_a_list(self, field, value):
        doc = graph_to_dict(make_graph())
        doc[field] = value
        self._raises(doc, field)

    def test_task_entry_is_a_string(self):
        doc = graph_to_dict(make_graph())
        doc["tasks"][0] = "D"
        self._raises(doc, "task entry")

    def test_task_name_is_a_list(self):
        doc = graph_to_dict(make_graph())
        doc["tasks"][0]["name"] = ["D"]
        self._raises(doc, "task name")

    @pytest.mark.parametrize("attrs", [["x"], "kind", 3])
    def test_attrs_not_a_dict(self, attrs):
        doc = graph_to_dict(make_graph())
        doc["tasks"][0]["attrs"] = attrs
        self._raises(doc, "task attrs")

    def test_attrs_key_not_a_string(self):
        doc = graph_to_dict(make_graph())
        doc["tasks"][0]["attrs"] = {1: "x"}
        self._raises(doc, "non-string key")

    def test_data_volume_is_a_string(self):
        doc = graph_to_dict(make_graph())
        doc["edges"][0]["data_volume"] = "1e6"
        self._raises(doc, "data_volume")

    def test_sequential_time_is_a_string(self):
        doc = graph_to_dict(make_graph())
        doc["tasks"][0]["sequential_time"] = "10"
        self._raises(doc, "sequential_time")

    def test_edge_entry_is_a_string(self):
        doc = graph_to_dict(make_graph())
        doc["edges"][0] = "D->A"
        self._raises(doc, "edge entry")

    def test_edge_endpoint_is_a_list(self):
        doc = graph_to_dict(make_graph())
        doc["edges"][0]["src"] = ["D"]
        self._raises(doc, "edge src")

    def test_serial_fraction_is_a_string(self):
        doc = graph_to_dict(make_graph())
        doc["tasks"][1]["model"]["serial_fraction"] = "0.25"
        self._raises(doc, "amdahl model")

    def test_table_times_not_a_dict(self):
        doc = graph_to_dict(make_graph())
        doc["tasks"][3]["model"]["times"] = [8.0, 5.0]
        self._raises(doc, "table times")

    def test_model_type_not_a_string_is_unknown(self):
        doc = graph_to_dict(make_graph())
        doc["tasks"][0]["model"]["type"] = ["downey"]
        with pytest.raises(GraphError, match="unknown speedup model"):
            graph_from_dict(doc)

    def test_non_string_task_names_still_load(self):
        doc = graph_to_dict(make_graph())
        doc["tasks"][0]["name"] = 5
        doc["edges"][0]["src"] = 5
        assert graph_from_dict(doc).tasks()[0] == 5
