"""Run-scoped memoization of allocation-time and schedule-time comm costs.

The LoC-MPS outer loop re-invokes LoCBS once per look-ahead step, and each
step changes the allocation of only one or two tasks. Yet every LoCBS call
rebuilt the full allocation-time edge-cost map from scratch, and the hole
scan re-timed the same ``(src procs, dst procs, volume)`` redistribution
triples over and over. Both computations are pure functions of their
arguments, so a single cache shared across all LoCBS calls of one
:meth:`LocMpsScheduler.run` reuses ~all of that work: an edge's estimate
only changes when one of its *endpoint widths* changes, and a concrete
transfer time never changes at all.

:class:`CostCache` exposes the one
:class:`~repro.redistribution.RedistributionModel` method the LoCBS hot
path uses (:meth:`transfer_time`), and the hole scan prices every
transfer through it. Cached values are the exact objects the underlying
pure functions return — schedules computed through the cache are
bit-identical to uncached ones (property-tested in
``tests/test_perf_equivalence.py``).

Knobs and telemetry:

* ``transfer_limit`` bounds the concrete-transfer memo (it is cleared
  wholesale when full — correctness is unaffected, only reuse).
* :attr:`stats` counts hits/misses per memo; :meth:`hit_rate` and
  :meth:`snapshot` feed ``LocMpsScheduler.cost_cache_stats``, which the
  benchmark in ``bench/`` (``python bench/run.py``) reports per layer.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import networkx as nx

from repro.cluster import Cluster
from repro.exceptions import CycleError
from repro.graph import TaskGraph
from repro.redistribution import RedistributionModel
from repro.redistribution.cost import estimate_edge_cost

__all__ = ["CostCache", "GraphInvariants"]

#: key of one concrete redistribution: (src procs, dst procs, volume)
_TransferKey = Tuple[Tuple[int, ...], Tuple[int, ...], float]


class GraphInvariants:
    """Allocation-independent structure of one task graph, computed once.

    Every LoCBS call needs a topological order (bottom levels), the
    predecessor lists (priorities, parent lookups) and the successor lists
    (ready-queue updates). None of these depend on the allocation, yet the
    seed code re-derived them through networkx traversals on every
    look-ahead step. The tuples here are snapshots of the exact iteration
    order networkx produced, so computations running over them are
    bit-identical to the uncached originals.
    """

    __slots__ = ("order", "preds", "succs")

    def __init__(self, graph: TaskGraph) -> None:
        g = graph.nx_graph()
        try:
            #: one valid topological order (bottom levels only need *a*
            #: reverse topological visit; values are order-independent)
            self.order: Tuple[str, ...] = tuple(nx.topological_sort(g))
        except nx.NetworkXUnfeasible as exc:
            raise CycleError(
                "graph contains a cycle; level analyses need a DAG"
            ) from exc
        self.preds: Dict[str, Tuple[str, ...]] = {
            t: tuple(g.predecessors(t)) for t in g.nodes
        }
        self.succs: Dict[str, Tuple[str, ...]] = {
            t: tuple(g.successors(t)) for t in g.nodes
        }


class CostCache:
    """Memoizes edge-cost estimates and concrete redistribution times."""

    __slots__ = ("model", "_bandwidth", "_edge_memo", "_transfer_memo",
                 "_graph_memo", "transfer_limit", "stats")

    #: the :attr:`stats` counters, in report order
    STAT_KEYS: Tuple[str, ...] = (
        "edge_hits",
        "edge_misses",
        "transfer_hits",
        "transfer_misses",
        "transfer_clears",
        "graph_hits",
        "graph_misses",
        "probes_considered",
        "probes_bound_pruned",
        # always 0 (the LoCBS scan has no dominance memo); kept because
        # the benchmark's tracing layer still reads it
        "probes_dominance_pruned",
    )

    def __init__(
        self, cluster: Cluster, *, transfer_limit: Optional[int] = None
    ) -> None:
        if transfer_limit is not None and transfer_limit < 1:
            raise ValueError(
                f"transfer_limit must be >= 1 or None, got {transfer_limit}"
            )
        self.model = RedistributionModel(cluster)
        self._bandwidth = cluster.bandwidth
        #: per graph edge: endpoint widths -> allocation-time estimate
        self._edge_memo: Dict[Tuple[str, str], Dict[Tuple[int, int], float]] = {}
        self._transfer_memo: Dict[_TransferKey, float] = {}
        #: graph object id -> (graph ref, (num_tasks, num_edges), invariants)
        self._graph_memo: Dict[
            int, Tuple[TaskGraph, Tuple[int, int], GraphInvariants]
        ] = {}
        self.transfer_limit = transfer_limit
        self.stats: Dict[str, int] = dict.fromkeys(self.STAT_KEYS, 0)

    # -- allocation-independent graph structure ------------------------------------

    def graph_invariants(self, graph: TaskGraph) -> GraphInvariants:
        """Topological order and pred/succ lists of *graph*, memoized.

        Keyed by the graph object plus its ``(num_tasks, num_edges)``
        size: :class:`~repro.graph.TaskGraph` is append-only, so any
        mutation changes the size and invalidates the entry. The graph is
        kept referenced so the ``id`` key cannot be recycled.
        """
        key = id(graph)
        size = (graph.num_tasks, graph.num_edges)
        entry = self._graph_memo.get(key)
        if entry is not None and entry[1] == size:
            self.stats["graph_hits"] += 1
            return entry[2]
        self.stats["graph_misses"] += 1
        inv = GraphInvariants(graph)
        self._graph_memo[key] = (graph, size, inv)
        return inv

    def release_graph(self, graph: TaskGraph) -> None:
        """Drop per-graph state for a job that left the machine.

        A long-lived cache (the online daemon keeps one for its whole run)
        would otherwise pin every finished job's graph via the invariants
        memo and accumulate edge entries forever. Job task names are
        namespaced per submission, so an edge key belongs to exactly one
        graph and dropping it cannot evict another job's estimates. The
        transfer memo is left alone: it is keyed by concrete processor
        sets and volumes, is name-independent, and is exactly the
        cross-job reuse the daemon wants.
        """
        self._graph_memo.pop(id(graph), None)
        for edge in graph.edges():
            self._edge_memo.pop(edge, None)

    # -- allocation-time estimates -------------------------------------------------

    def edge_cost_map(
        self,
        graph: TaskGraph,
        allocation: Mapping[str, int],
        *,
        comm_blind: bool = False,
    ) -> Dict[Tuple[str, str], float]:
        """Cached equivalent of :func:`repro.schedulers.base.edge_cost_map`.

        Each edge's estimate ``D / (min(np_u, np_v) * bw)`` is memoized by
        its endpoint widths ``(np_u, np_v)``; a look-ahead step that grows
        one task re-derives only that task's incident edges.
        """
        if comm_blind:
            return {(u, v): 0.0 for u, v in graph.edges()}
        costs: Dict[Tuple[str, str], float] = {}
        stats = self.stats
        edge_memo = self._edge_memo
        bandwidth = self._bandwidth
        for u, v in graph.edges():
            widths = (allocation[u], allocation[v])
            per_edge = edge_memo.get((u, v))
            if per_edge is None:
                per_edge = edge_memo[(u, v)] = {}
            cost = per_edge.get(widths)
            if cost is None:
                stats["edge_misses"] += 1
                cost = per_edge[widths] = estimate_edge_cost(
                    widths[0], widths[1], graph.data_volume(u, v), bandwidth
                )
            else:
                stats["edge_hits"] += 1
            costs[(u, v)] = cost
        return costs

    # -- schedule-time actual costs ------------------------------------------------

    def transfer_time(
        self,
        src_procs: Tuple[int, ...],
        dst_procs: Tuple[int, ...],
        volume: float,
    ) -> float:
        """Cached :meth:`RedistributionModel.transfer_time` (exact values).

        Callers on the LoCBS hot path already hold canonical processor
        tuples, so the triple is directly hashable.
        """
        key = (src_procs, dst_procs, volume)
        memo = self._transfer_memo
        t = memo.get(key)
        if t is None:
            self.stats["transfer_misses"] += 1
            if (
                self.transfer_limit is not None
                and len(memo) >= self.transfer_limit
            ):
                memo.clear()
                self.stats["transfer_clears"] += 1
            t = memo[key] = self.model.transfer_time(src_procs, dst_procs, volume)
        else:
            self.stats["transfer_hits"] += 1
        return t

    # -- telemetry -----------------------------------------------------------------

    def hit_rate(self, kind: str) -> float:
        """Fraction of ``kind`` ("edge" or "transfer") lookups served cached."""
        hits = self.stats[f"{kind}_hits"]
        total = hits + self.stats[f"{kind}_misses"]
        return hits / total if total else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Plain-JSON stats rollup (counts, sizes, hit rates)."""
        out: Dict[str, float] = dict(self.stats)
        out["edge_entries"] = sum(len(m) for m in self._edge_memo.values())
        out["transfer_entries"] = len(self._transfer_memo)
        out["graph_entries"] = len(self._graph_memo)
        out["edge_hit_rate"] = self.hit_rate("edge")
        out["transfer_hit_rate"] = self.hit_rate("transfer")
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CostCache(edges={len(self._edge_memo)}, "
            f"transfers={len(self._transfer_memo)})"
        )
