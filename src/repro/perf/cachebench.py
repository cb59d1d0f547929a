"""Near-neighbour graphs for the schedule cache's warm-start path.

:func:`perturb_graph` builds the perturbed neighbours of the ``cache``
workload of the benchmark in ``bench/`` (``python bench/run.py``), which
imports it from here.
"""

from __future__ import annotations

from typing import Optional

from repro.graph import TaskGraph, graph_from_dict, graph_to_dict

__all__ = ["perturb_graph"]


def perturb_graph(
    graph: TaskGraph,
    *,
    count: int = 3,
    factor: float = 1.05,
    name: Optional[str] = None,
) -> TaskGraph:
    """A copy of *graph* with *count* tasks' sequential times scaled.

    Perturbs the first *count* task names in sorted order — a
    deterministic few-vertex delta that changes the graph fingerprint
    (and those tasks' signatures) while leaving the topology intact,
    i.e. exactly the "resubmitted with refreshed profiling data" case
    graph-delta warm starts target.
    """
    doc = graph_to_dict(graph)
    chosen = set(sorted(t["name"] for t in doc["tasks"])[: max(0, count)])
    for tdoc in doc["tasks"]:
        if tdoc["name"] in chosen:
            tdoc["sequential_time"] = float(tdoc["sequential_time"]) * factor
    doc["name"] = name or f"{doc.get('name', 'graph')}-perturbed"
    return graph_from_dict(doc)
