"""JSON (de)serialization of task graphs, including speedup models.

The on-disk format is a plain JSON document::

    {
      "name": "...",
      "tasks": [
        {"name": "T1", "sequential_time": 40.0,
         "model": {"type": "downey", "A": 16.0, "sigma": 1.0},
         "attrs": {...}},
        ...
      ],
      "edges": [{"src": "T1", "dst": "T2", "data_volume": 1.5e6}, ...]
    }

Model types are registered in :data:`MODEL_CODECS`; adding a new speedup
family means adding one encoder/decoder pair there.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Tuple, Union

from repro.exceptions import GraphError, MissingFieldError
from repro.graph.taskgraph import TaskGraph
from repro.speedup import (
    AmdahlSpeedup,
    DowneySpeedup,
    ExecutionProfile,
    LinearSpeedup,
    SpeedupModel,
    TableSpeedup,
)

__all__ = ["graph_to_dict", "graph_from_dict", "save_graph", "load_graph"]


def _encode_downey(m: DowneySpeedup) -> Dict[str, Any]:
    return {"type": "downey", "A": m.A, "sigma": m.sigma}


def _encode_amdahl(m: AmdahlSpeedup) -> Dict[str, Any]:
    return {"type": "amdahl", "serial_fraction": m.serial_fraction}


def _encode_linear(m: LinearSpeedup) -> Dict[str, Any]:
    return {"type": "linear", "cap": m.cap}


def _encode_table(m: TableSpeedup) -> Dict[str, Any]:
    return {"type": "table", "times": {str(p): t for p, t in m.table.items()}}


#: type name -> (model class, encoder, decoder)
MODEL_CODECS: Dict[str, Tuple[type, Callable, Callable]] = {
    "downey": (
        DowneySpeedup,
        _encode_downey,
        lambda d: DowneySpeedup(d["A"], d["sigma"]),
    ),
    "amdahl": (
        AmdahlSpeedup,
        _encode_amdahl,
        lambda d: AmdahlSpeedup(d["serial_fraction"]),
    ),
    "linear": (
        LinearSpeedup,
        _encode_linear,
        lambda d: LinearSpeedup(d["cap"]),
    ),
    "table": (
        TableSpeedup,
        _encode_table,
        lambda d: TableSpeedup({int(p): t for p, t in d["times"].items()}),
    ),
}


def _encode_model(model: SpeedupModel) -> Dict[str, Any]:
    for _name, (cls, enc, _dec) in MODEL_CODECS.items():
        if type(model) is cls:
            return enc(model)
    raise GraphError(
        f"cannot serialize speedup model of type {type(model).__name__}; "
        f"register it in MODEL_CODECS"
    )


def _decode_model(doc: Dict[str, Any]) -> SpeedupModel:
    kind = doc.get("type")
    entry = MODEL_CODECS.get(kind)
    if entry is None:
        raise GraphError(f"unknown speedup model type {kind!r}")
    return entry[2](doc)


def graph_to_dict(graph: TaskGraph) -> Dict[str, Any]:
    """Convert *graph* to a JSON-serializable dictionary."""
    tasks = []
    for name in graph.tasks():
        task = graph.task(name)
        tasks.append(
            {
                "name": name,
                "sequential_time": task.profile.sequential_time,
                "model": _encode_model(task.profile.model),
                "attrs": dict(task.attrs),
            }
        )
    edges = [
        {"src": u, "dst": v, "data_volume": graph.data_volume(u, v)}
        for u, v in graph.edges()
    ]
    return {"name": graph.name, "tasks": tasks, "edges": edges}


def graph_from_dict(doc: Dict[str, Any]) -> TaskGraph:
    """Reconstruct a :class:`TaskGraph` from :func:`graph_to_dict` output."""
    graph = TaskGraph(doc.get("name", "taskgraph"))
    try:
        for tdoc in doc["tasks"]:
            model = _decode_model(tdoc["model"])
            profile = ExecutionProfile(model, tdoc["sequential_time"])
            graph.add_task(tdoc["name"], profile, **tdoc.get("attrs", {}))
        for edoc in doc["edges"]:
            graph.add_edge(edoc["src"], edoc["dst"], edoc.get("data_volume", 0.0))
    except GraphError:
        raise
    except KeyError as err:
        raise MissingFieldError(f"graph document lacks field {err.args[0]!r}") from None
    return graph


def save_graph(graph: TaskGraph, path: Union[str, Path]) -> None:
    """Write *graph* to *path* as JSON."""
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2))


def load_graph(path: Union[str, Path]) -> TaskGraph:
    """Read a task graph written by :func:`save_graph`."""
    return graph_from_dict(json.loads(Path(path).read_text()))
