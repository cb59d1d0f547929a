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
from collections.abc import Mapping
from numbers import Real
from pathlib import Path
from typing import Any, Callable, Dict, Tuple, Union

from repro.exceptions import (
    GraphError, GraphShapeError, InvalidProfileError, MissingFieldError,
)
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


def _shaped(value: Any, kind: Any, what: str) -> Any:
    """*value* if it is a *kind*, else :class:`GraphShapeError`."""
    if not isinstance(value, kind):
        raise GraphShapeError(f"{what} has the wrong type: {type(value).__name__}")
    return value


def _name(value: Any, what: str) -> Any:
    """*value* if it can name a task, else :class:`GraphShapeError`."""
    try:
        hash(value)
    except TypeError:
        raise GraphShapeError(f"{what} is unhashable: {value!r}") from None
    return value


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
        lambda d: TableSpeedup(
            {int(p): t for p, t in _shaped(d["times"], Mapping, "table times").items()}
        ),
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
    entry = MODEL_CODECS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise GraphError(f"unknown speedup model type {kind!r}")
    try:
        return entry[2](doc)
    except (GraphError, InvalidProfileError):
        raise
    except TypeError as err:  # a parameter that is not a number
        raise GraphShapeError(f"{kind} model: {err}") from None
    except ValueError as err:  # a table width that is not an integer
        raise InvalidProfileError(f"{kind} model: {err}") from None


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
    """Reconstruct a :class:`TaskGraph` from :func:`graph_to_dict` output.

    A missing field raises :class:`~repro.exceptions.MissingFieldError`,
    a field of the wrong type :class:`~repro.exceptions.GraphShapeError`.
    """
    _shaped(doc, Mapping, "graph document")
    graph = TaskGraph(doc.get("name", "taskgraph"))
    try:
        for tdoc in _shaped(doc["tasks"], (list, tuple), "'tasks'"):
            _shaped(tdoc, Mapping, "task entry")
            model = _decode_model(_shaped(tdoc["model"], Mapping, "task model"))
            seq = _shaped(tdoc["sequential_time"], Real, "task sequential_time")
            attrs = _shaped(tdoc.get("attrs", {}), Mapping, "task attrs")
            if not all(isinstance(key, str) for key in attrs):
                raise GraphShapeError(f"task attrs has a non-string key: {attrs!r}")
            graph.add_task(
                _name(tdoc["name"], "task name"),
                ExecutionProfile(model, seq),
                **attrs,
            )
        for edoc in _shaped(doc["edges"], (list, tuple), "'edges'"):
            _shaped(edoc, Mapping, "edge entry")
            graph.add_edge(
                _name(edoc["src"], "edge src"),
                _name(edoc["dst"], "edge dst"),
                _shaped(edoc.get("data_volume", 0.0), Real, "edge data_volume"),
            )
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
