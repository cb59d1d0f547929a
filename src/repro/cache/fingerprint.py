"""Canonical content fingerprints for (TaskGraph, Cluster, config) requests.

The schedule cache is keyed by *content*, not by object identity or
insertion history: two graphs built in different vertex/edge orders, in
different processes, under different ``PYTHONHASHSEED`` values, must map
to the same fingerprint whenever they describe the same application. The
canonical form therefore

* sorts tasks by name and edges by ``(src, dst)`` — insertion order never
  leaks into the digest;
* encodes speedup models through the same codecs as
  :mod:`repro.graph.serialization` (adding a model family there makes it
  fingerprintable here for free);
* normalizes every number through ``float()``/``repr`` — CPython's
  shortest-round-trip float repr, stable across processes and supported
  Python versions;
* rejects non-finite values (``allow_nan=False``) instead of silently
  producing a JSON dialect;
* deliberately **excludes cosmetic names** (``TaskGraph.name``,
  ``Cluster.name``) — a renamed copy of the same application on the same
  machine is the same request.

:func:`graph_signature` produces the per-vertex content hashes used by
the warm-start neighbor search: a task's hash covers its profile, attrs,
and incident edges, so the *vertex delta* between two graphs is simply
the number of task names whose hashes disagree (plus names present in
only one of the two).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Mapping

from repro.cluster import Cluster
from repro.exceptions import CacheError
from repro.graph import TaskGraph
from repro.graph.serialization import graph_to_dict

__all__ = [
    "FINGERPRINT_SCHEMA",
    "RequestKey",
    "canonical_json",
    "canonical_graph_doc",
    "graph_fingerprint",
    "cluster_fingerprint",
    "config_fingerprint",
    "request_fingerprint",
    "graph_signature",
    "signature_delta",
]

#: bump when the canonical form changes — old cache entries stop matching
#: instead of silently colliding with the new encoding
FINGERPRINT_SCHEMA = "repro.cache.fingerprint/v1"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, finite floats only."""
    try:
        return json.dumps(
            obj, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise CacheError(f"value is not canonically serializable: {exc}") from exc


def _digest(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def canonical_graph_doc(graph: TaskGraph) -> Dict[str, Any]:
    """The order-invariant content of *graph* (name dropped, lists sorted)."""
    doc = graph_to_dict(graph)
    tasks = sorted(
        (
            {
                "name": t["name"],
                "sequential_time": float(t["sequential_time"]),
                "model": t["model"],
                "attrs": t["attrs"],
            }
            for t in doc["tasks"]
        ),
        key=lambda t: t["name"],
    )
    edges = sorted(
        (
            {
                "src": e["src"],
                "dst": e["dst"],
                "data_volume": float(e["data_volume"]),
            }
            for e in doc["edges"]
        ),
        key=lambda e: (e["src"], e["dst"]),
    )
    return {"tasks": tasks, "edges": edges}


def graph_fingerprint(graph: TaskGraph) -> str:
    """Content hash of *graph*, invariant to vertex/edge insertion order."""
    return _digest(canonical_graph_doc(graph))


def cluster_fingerprint(cluster: Cluster) -> str:
    """Content hash of *cluster* (the cosmetic ``name`` is excluded)."""
    return _digest(
        {
            "num_processors": int(cluster.num_processors),
            "bandwidth": float(cluster.bandwidth),
            "overlap": bool(cluster.overlap),
        }
    )


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """Content hash of a scheduler-configuration mapping.

    The mapping must be JSON-serializable; key order never matters.
    Accelerator-only knobs (``initial_allocation``, tracers) must NOT be part of the config a caller fingerprints — they
    change how fast a result is computed, and in the warm-start case
    *which local optimum is reached*, but they are not part of the
    request's identity. :class:`~repro.cache.store.ScheduleCache` entries
    record the computation ``mode`` separately for exactly that reason.
    """
    return _digest(dict(config))


@dataclass(frozen=True)
class RequestKey:
    """The composite cache key of one scheduling request."""

    graph_fp: str
    cluster_fp: str
    config_fp: str

    @cached_property
    def fingerprint(self) -> str:
        """The combined content address (what names the disk entry).

        Computed on first access and kept on the key: the service and the
        store each read it for every request.
        """
        return _digest(
            {
                "schema": FINGERPRINT_SCHEMA,
                "graph": self.graph_fp,
                "cluster": self.cluster_fp,
                "config": self.config_fp,
            }
        )


def request_fingerprint(
    graph: TaskGraph, cluster: Cluster, config: Mapping[str, Any]
) -> RequestKey:
    """The :class:`RequestKey` of a (graph, cluster, config) request."""
    return RequestKey(
        graph_fp=graph_fingerprint(graph),
        cluster_fp=cluster_fingerprint(cluster),
        config_fp=config_fingerprint(config),
    )


def graph_signature(graph: TaskGraph) -> Dict[str, str]:
    """Per-task content hashes (profile + attrs + incident edges).

    A task's hash changes when its own definition changes *or* when any
    edge touching it changes, so
    ``signature_delta(graph_signature(a), graph_signature(b))`` counts
    exactly the vertices a warm start would have to re-derive.
    """
    doc = graph_to_dict(graph)
    tasks: Dict[str, Dict[str, Any]] = {
        t["name"]: {
            "sequential_time": float(t["sequential_time"]),
            "model": t["model"],
            "attrs": t["attrs"],
            "in": [],
            "out": [],
        }
        for t in doc["tasks"]
    }
    for e in doc["edges"]:
        vol = float(e["data_volume"])
        tasks[e["dst"]]["in"].append([e["src"], vol])
        tasks[e["src"]]["out"].append([e["dst"], vol])
    out: Dict[str, str] = {}
    for name, body in tasks.items():
        body["in"].sort()
        body["out"].sort()
        out[name] = _digest(body)
    return out


def signature_delta(a: Mapping[str, str], b: Mapping[str, str]) -> int:
    """Vertex delta between two :func:`graph_signature` mappings.

    Counts tasks present in only one graph plus tasks whose content hash
    differs. Zero iff the graphs have identical content.
    """
    delta = 0
    for name, h in a.items():
        if b.get(name) != h:
            delta += 1
    for name in b:
        if name not in a:
            delta += 1
    return delta
