"""DAG analyses used by the allocation loops.

All functions operate on a :class:`networkx.DiGraph` plus caller-supplied
weight callables, so the same code serves both the application DAG ``G``
(edge weights from the bandwidth model) and the schedule-DAG ``G'`` (actual
scheduled communication times, zero on pseudo-edges).

Definitions follow the paper's Section II:

* ``topL(v)``   — longest path length from any source to ``v``, *excluding*
  ``v``'s own weight.
* ``bottomL(v)``— longest path length from ``v`` to any sink, *including*
  ``v``'s weight.
* critical path — any maximal-length source-to-sink path; every vertex with
  maximal ``topL(v) + bottomL(v)`` lies on one.
* ``cG(t)``     — the maximal set of tasks with no path to or from ``t``
  (computed via DFS on ``G`` and on its transpose).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Set, Tuple

import networkx as nx

from repro.exceptions import CycleError
from repro.graph.pseudo import critical_path_walk

__all__ = [
    "top_levels",
    "bottom_levels",
    "critical_path",
    "critical_path_length",
    "concurrent_tasks",
    "concurrency_ratio",
]

VertexWeight = Callable[[str], float]
EdgeWeight = Callable[[str, str], float]


def _topo_order(g: nx.DiGraph) -> List[str]:
    """One valid topological order via Kahn's algorithm; raises on cycles.

    Level relaxations only need *a* topological visit (the resulting values
    are order-independent), so this replaces the seed's two networkx
    traversals per call — ``is_directed_acyclic_graph`` (which runs a full
    topological sort just to discard it) followed by ``topological_sort`` —
    with a single plain-dict pass. Called on every look-ahead step of the
    outer loop, which made the traversal overhead a measurable slice of
    scheduling wall-clock.
    """
    indeg = {v: d for v, d in g.in_degree()}
    order = [v for v, d in indeg.items() if d == 0]
    adj = g.adj
    for v in order:  # grows while iterating: classic in-place Kahn
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != len(indeg):
        raise CycleError("graph contains a cycle; level analyses need a DAG")
    return order


def top_levels(
    g: nx.DiGraph, vertex_weight: VertexWeight, edge_weight: EdgeWeight
) -> Dict[str, float]:
    """``topL(v)`` for every vertex (0 for sources)."""
    levels: Dict[str, float] = {}
    for v in _topo_order(g):
        best = 0.0
        for u in g.pred[v]:
            cand = levels[u] + vertex_weight(u) + edge_weight(u, v)
            if cand > best:
                best = cand
        levels[v] = best
    return levels


def bottom_levels(
    g: nx.DiGraph, vertex_weight: VertexWeight, edge_weight: EdgeWeight
) -> Dict[str, float]:
    """``bottomL(v)`` for every vertex (own weight for sinks)."""
    levels: Dict[str, float] = {}
    for v in reversed(_topo_order(g)):
        best = 0.0
        for w in g.succ[v]:
            cand = edge_weight(v, w) + levels[w]
            if cand > best:
                best = cand
        levels[v] = vertex_weight(v) + best
    return levels


def critical_path(
    g: nx.DiGraph, vertex_weight: VertexWeight, edge_weight: EdgeWeight
) -> Tuple[float, List[str]]:
    """``(length, vertices)`` of one critical (longest) path of the DAG.

    Deterministic: among equally long extensions the lexicographically
    smallest successor is chosen, so repeated calls on the same graph return
    the same path (important for the iterative allocation loops, which must
    not oscillate between tie-broken paths). The walk is
    :func:`repro.graph.pseudo.critical_path_walk`.
    """
    # acyclicity is checked (once) inside bottom_levels
    bottoms = bottom_levels(g, vertex_weight, edge_weight)
    return critical_path_walk(bottoms, g.succ.__getitem__, vertex_weight, edge_weight)


def critical_path_length(
    g: nx.DiGraph, vertex_weight: VertexWeight, edge_weight: EdgeWeight
) -> float:
    """Length of the critical path only (cheaper than materializing it)."""
    if g.number_of_nodes() == 0:
        return 0.0
    # acyclicity is checked (once) inside bottom_levels
    bottoms = bottom_levels(g, vertex_weight, edge_weight)
    return max(bottoms.values())


def concurrent_tasks(g: nx.DiGraph, t: str) -> Set[str]:
    """``cG(t)``: tasks with no directed path to or from *t*.

    Implemented exactly as the paper describes: a DFS from *t* on ``G``
    collects descendants, a DFS on ``G^T`` collects ancestors, and the
    complement (minus *t* itself) is the maximal concurrent set.
    """
    if t not in g:
        raise KeyError(t)
    descendants = nx.descendants(g, t)
    ancestors = nx.ancestors(g, t)
    return set(g.nodes) - descendants - ancestors - {t}


def concurrency_ratio(
    g: nx.DiGraph, t: str, sequential_time: Callable[[str], float]
) -> float:
    """``cr(t) = sum_{t' in cG(t)} et(t',1) / et(t,1)``.

    Measures how much potentially concurrent work exists relative to the
    task's own work; the LoC-MPS candidate selection prefers low values
    (widening such a task serializes little else). ``cG(t)`` is a set, so
    its iteration order follows the string hash seed; ``math.fsum`` is
    exactly rounded and thus order-independent, which keeps the ratio (and
    every tie it breaks) identical across Python processes.
    """
    own = sequential_time(t)
    if own <= 0:
        raise ValueError(f"task {t!r} has non-positive sequential time {own!r}")
    return math.fsum(sequential_time(x) for x in concurrent_tasks(g, t)) / own
