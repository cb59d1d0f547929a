"""The schedule-DAG ``G'``: application DAG plus resource pseudo-edges.

After LoCBS places every task, resource-induced serializations (task ``b``
could only start when ``a`` released processors, although no data flows
between them) are recorded as zero-weight *pseudo-edges*. The critical path
of this augmented DAG is the longest chain in the actual schedule, and is
what the LoC-MPS allocation loop shortens each iteration (paper Fig 1).

The graph is stored as plain dict adjacency rather than a
:class:`networkx.DiGraph`, and its critical path is cached per instance
(pseudo-edge insertion invalidates it). The level arithmetic replicates
:func:`repro.graph.dag_ops.bottom_levels` operation for operation.

:func:`critical_path_walk` is the one critical-path walk of the package:
given every vertex's bottom level, it picks the start vertex and follows
the tie-broken continuation to a sink. :meth:`ScheduleDAG.critical_path`,
:func:`repro.graph.dag_ops.critical_path` and the LoC-MPS look-ahead all
call it. LoC-MPS builds no ``G'``: it sweeps a LoCBS pass's pop order,
which is a topological order of ``G'``, for the same bottom levels and
hands them to the same walk (see :mod:`repro.schedulers.locmps`). The
results are bit-identical to running :func:`repro.graph.dag_ops.critical_path`
on the equivalent :class:`networkx.DiGraph` (property-tested in
``tests/test_pseudo.py`` and, for the sweep, ``tests/test_pop_order_cp.py``).
"""

from __future__ import annotations

import math
from typing import (
    Callable, Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

import networkx as nx

from repro.exceptions import CycleError, GraphError
from repro.graph.taskgraph import TaskGraph

__all__ = ["ScheduleDAG", "critical_path_walk"]


class ScheduleDAG:
    """``G'`` — the scheduled DAG with pseudo-edges.

    Parameters
    ----------
    base:
        The application task graph ``G``.
    vertex_weights:
        Scheduled execution duration of each task (``et(t, np(t))``).
    edge_weights:
        Actual scheduled communication time of each *real* edge of ``G``.
        Pseudo-edges always weigh zero.
    """

    __slots__ = ("base", "_vw", "_nodes", "_succ", "_pred", "_ew", "_ps", "_cp")

    def __init__(
        self,
        base: TaskGraph,
        vertex_weights: Mapping[str, float],
        edge_weights: Mapping[Tuple[str, str], float],
    ) -> None:
        tasks = list(base.tasks())
        missing = set(tasks) - set(vertex_weights)
        if missing:
            raise GraphError(f"vertex_weights missing tasks: {sorted(missing)!r}")
        self.base = base
        self._vw: Dict[str, float] = {t: float(vertex_weights[t]) for t in tasks}
        self._nodes: List[str] = tasks
        self._succ: Dict[str, List[str]] = {t: [] for t in tasks}
        self._pred: Dict[str, List[str]] = {t: [] for t in tasks}
        self._ew: Dict[Tuple[str, str], float] = {}
        #: edge -> is-pseudo flag (doubles as the edge-existence set)
        self._ps: Dict[Tuple[str, str], bool] = {}
        for u, v in base.edges():
            w = float(edge_weights.get((u, v), 0.0))
            if w < 0:
                raise GraphError(f"negative edge weight on {u!r} -> {v!r}: {w}")
            self._succ[u].append(v)
            self._pred[v].append(u)
            self._ew[(u, v)] = w
            self._ps[(u, v)] = False
        #: cached (length, path) — invalidated by add_pseudo_edge
        self._cp: Tuple[float, List[str]] | None = None

    # -- construction ------------------------------------------------------------

    def add_pseudo_edge(self, src: str, dst: str) -> None:
        """Record that *dst* waited on resources released by *src*.

        A pseudo-edge that parallels an existing real edge is a no-op (the
        real dependence already orders the pair). Cycles are rejected.
        """
        if src not in self._vw or dst not in self._vw:
            raise GraphError(f"pseudo-edge endpoints unknown: {src!r}, {dst!r}")
        if src == dst:
            raise CycleError(f"pseudo self-loop on {src!r}")
        if (src, dst) in self._ps:
            return
        if self._has_path(dst, src):
            raise CycleError(f"pseudo-edge {src!r} -> {dst!r} would create a cycle")
        self._link(src, dst)

    def add_pseudo_edges(
        self, pairs: Iterable[Tuple[str, str]], order: Sequence[str]
    ) -> None:
        """:meth:`add_pseudo_edge` for each ``(src, dst)`` of *pairs*, in turn.

        *order* must be a topological order of the current edges (checked
        once; :class:`GraphError` otherwise). A pair running forward in it
        cannot close a cycle, so it skips the reachability search. Any
        other pair goes through :meth:`add_pseudo_edge`, and once one of
        them is added *order* no longer covers the edges, so the pairs
        after it do too. LoCBS records ``(blocker, task)`` pairs with the
        blocker placed first, so in its pop order every pair runs forward.
        """
        pos: Optional[Dict[str, int]] = {t: i for i, t in enumerate(order)}
        if len(pos) != len(order) or pos.keys() != self._vw.keys():
            raise GraphError("order does not list every task of G' once")
        if any(pos[u] >= pos[v] for u, v in self._ps):
            raise GraphError("order is not a topological order of G'")
        ps = self._ps
        for src, dst in pairs:
            if pos is not None and pos.get(src, math.inf) < pos.get(dst, -1):
                if (src, dst) not in ps:
                    self._link(src, dst)
                continue
            n_edges = len(ps)
            self.add_pseudo_edge(src, dst)
            if len(ps) != n_edges:
                pos = None

    def _link(self, src: str, dst: str) -> None:
        """Insert the pseudo-edge ``src -> dst`` (already checked)."""
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        self._ew[(src, dst)] = 0.0
        self._ps[(src, dst)] = True
        self._cp = None

    def _has_path(self, a: str, b: str) -> bool:
        """Iterative DFS reachability ``a ->* b`` (used by cycle rejection)."""
        if a == b:
            return True
        succ = self._succ
        seen = {a}
        stack = [a]
        while stack:
            for w in succ[stack.pop()]:
                if w == b:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    # -- weights -----------------------------------------------------------------

    def vertex_weight(self, t: str) -> float:
        return self._vw[t]

    def edge_weight(self, u: str, v: str) -> float:
        return self._ew[(u, v)]

    def is_pseudo(self, u: str, v: str) -> bool:
        return self._ps[(u, v)]

    def pseudo_edges(self) -> List[Tuple[str, str]]:
        ps = self._ps
        return [
            (u, v) for u in self._nodes for v in self._succ[u] if ps[(u, v)]
        ]

    def real_edges(self) -> List[Tuple[str, str]]:
        ps = self._ps
        return [
            (u, v) for u in self._nodes for v in self._succ[u] if not ps[(u, v)]
        ]

    def nx_graph(self) -> nx.DiGraph:
        """The equivalent :class:`networkx.DiGraph` (built on demand).

        Materialized only when asked for — nothing on the scheduling hot
        path needs it; it exists for external analyses and the differential
        tests that hold this class equal to the generic-graph algorithms.
        """
        g = nx.DiGraph()
        g.add_nodes_from(self._nodes)
        for u in self._nodes:
            for v in self._succ[u]:
                g.add_edge(u, v, weight=self._ew[(u, v)], pseudo=self._ps[(u, v)])
        return g

    # -- critical-path analysis ----------------------------------------------------

    def _bottom_levels(self) -> Dict[str, float]:
        """``bottomL(v)`` for every vertex — dag_ops.bottom_levels verbatim.

        Same Kahn topological visit and the same comparison-based
        relaxation maxima, so every level is the bit-identical float.
        """
        succ = self._succ
        indeg = {v: len(self._pred[v]) for v in self._nodes}
        order = [v for v in self._nodes if indeg[v] == 0]
        for v in order:  # grows while iterating: classic in-place Kahn
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
        if len(order) != len(indeg):
            raise CycleError("graph contains a cycle; level analyses need a DAG")
        vw, ew = self._vw, self._ew
        levels: Dict[str, float] = {}
        for v in reversed(order):
            best = 0.0
            for w in succ[v]:
                cand = ew[(v, w)] + levels[w]
                if cand > best:
                    best = cand
            levels[v] = vw[v] + best
        return levels

    def critical_path(self) -> Tuple[float, List[str]]:
        """``(length, vertices)`` of the schedule's critical path.

        Cached — ``G'`` is immutable once its pseudo-edges are added. The
        path is :func:`critical_path_walk` over :meth:`_bottom_levels`.
        """
        if self._cp is None:
            self._cp = self._compute_cp()
        length, path = self._cp
        return length, list(path)

    def _compute_cp(self) -> Tuple[float, List[str]]:
        ew = self._ew
        return critical_path_walk(
            self._bottom_levels(),
            self._succ.__getitem__,
            self._vw.__getitem__,
            lambda u, v: ew[(u, v)],
        )

    def path_costs(self, path: Iterable[str]) -> Tuple[float, float]:
        """``(Tcomp, Tcomm)`` decomposition of a vertex path.

        ``Tcomp`` sums vertex weights, ``Tcomm`` sums the weights of the
        edges between consecutive path vertices (pseudo-edges contribute 0).
        """
        verts = list(path)
        tcomp = sum(self._vw[v] for v in verts)
        tcomm = 0.0
        ew = self._ew
        for u, v in zip(verts, verts[1:]):
            w = ew.get((u, v))
            if w is None:
                raise GraphError(f"path step {u!r} -> {v!r} is not an edge of G'")
            tcomm += w
        return tcomp, tcomm

    def real_edges_on_path(self, path: Iterable[str]) -> List[Tuple[str, str, float]]:
        """Non-pseudo edges between consecutive path vertices, with weights."""
        verts = list(path)
        out: List[Tuple[str, str, float]] = []
        for u, v in zip(verts, verts[1:]):
            if not self._ps[(u, v)]:
                out.append((u, v, self._ew[(u, v)]))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n_pseudo = sum(1 for flag in self._ps.values() if flag)
        return (
            f"ScheduleDAG(tasks={len(self._nodes)}, "
            f"real_edges={len(self._ps) - n_pseudo}, "
            f"pseudo_edges={n_pseudo})"
        )


def critical_path_walk(
    levels: Mapping[str, float],
    successors: Callable[[str], Collection[str]],
    vertex_weight: Callable[[str], float],
    edge_weight: Callable[[str, str], float],
) -> Tuple[float, List[str]]:
    """``(length, vertices)`` of the critical path that *levels* describe.

    *levels* holds every vertex's bottom level (``bottomL``). The walk
    starts at the minimum by ``(-bottomL, name)`` and each step takes the
    first sorted successor whose level closes the telescoping sum
    ``bottomL(cur) == wt(cur) + edge(cur, nxt) + bottomL(nxt)`` within a
    relative tolerance, falling back to the max-valued successor. No
    choice depends on the order *successors* lists them, so the result
    depends only on the graph and its weights.
    """
    if not levels:
        return 0.0, []
    start = min(levels, key=lambda v: (-levels[v], v))
    path = [start]
    cur = start
    while True:
        succs = successors(cur)
        if not succs:
            break
        target = levels[cur] - vertex_weight(cur)
        best_next = None
        for w in sorted(succs):
            if abs(edge_weight(cur, w) + levels[w] - target) <= 1e-9 * max(
                1.0, abs(target)
            ) + 1e-12:
                best_next = w
                break
        if best_next is None:
            # Numerical slack: fall back to the max-valued successor.
            best_next = max(succs, key=lambda w: (edge_weight(cur, w) + levels[w], w))
            if edge_weight(cur, best_next) + levels[best_next] <= 0:
                break
        path.append(best_next)
        cur = best_next
    return levels[start], path
