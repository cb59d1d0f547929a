"""Run-scoped memoization of allocation-time and schedule-time comm costs.

The LoC-MPS outer loop re-invokes LoCBS once per look-ahead step, and each
step changes the allocation of only one or two tasks. Yet every LoCBS call
rebuilt the full allocation-time edge-cost map from scratch, and the hole
scan re-priced the same ``(src procs, dst procs)`` redistribution pairs
over and over. Both computations are pure functions of their arguments,
so a single cache shared across all LoCBS calls of one
:meth:`LocMpsScheduler.run` reuses ~all of that work: an edge's estimate
only changes when one of its *endpoint widths* changes, and the
non-local fraction and aggregate bandwidth of a processor-set pair never
change at all.

:class:`CostCache` exposes the one
:class:`~repro.redistribution.RedistributionModel` method the LoCBS hot
path uses (:meth:`transfer_time`), and the hole scan prices every
transfer through it. It memoizes the volume-free
:meth:`~repro.redistribution.RedistributionModel.pair_cost` of each
``(src, dst)`` pair and applies the volume with the model's own
expression, so schedules computed through the cache are bit-identical to
uncached ones (property-tested in ``tests/test_perf_equivalence.py``).

Knobs and telemetry:

* ``transfer_limit`` bounds the pair memo (it is cleared wholesale when
  full — correctness is unaffected, only reuse).
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
from repro.speedup import ExecutionProfile
from repro.utils.validation import check_non_negative

__all__ = ["CostCache", "GraphInvariants"]

#: per graph edge: endpoint widths -> allocation-time estimate
_EdgeMemo = Dict[Tuple[str, str], Dict[Tuple[int, int], float]]


class GraphInvariants:
    """Allocation-independent structure of one task graph, computed once.

    Every LoCBS call needs a topological order (bottom levels), the
    predecessor lists (priorities, parent lookups), the successor lists
    (ready-queue updates), the edge volumes (cost estimates, transfer
    pricing) and the tasks' execution profiles. None of these depend on
    the allocation, yet the seed code re-derived them through networkx
    traversals on every look-ahead step. The containers here are
    snapshots of the exact iteration order networkx produced, so
    computations running over them are bit-identical to the uncached
    originals.
    """

    __slots__ = ("order", "preds", "succs", "volumes", "profiles")

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
        #: every edge with its data volume, in ``graph.edges()`` order
        self.volumes: Dict[Tuple[str, str], float] = {
            (u, v): vol for u, v, vol in g.edges(data="data_volume")
        }
        #: each task's execution-time profile
        self.profiles: Dict[str, ExecutionProfile] = {
            t: graph.task(t).profile for t in graph.tasks()
        }


#: one graph memo entry: (graph ref, graph revision, invariants, estimates)
_GraphEntry = Tuple[TaskGraph, int, GraphInvariants, _EdgeMemo]


class CostCache:
    """Memoizes edge-cost estimates and concrete redistribution prices."""

    __slots__ = ("model", "_bandwidth", "_pair_memo", "_graph_memo",
                 "transfer_limit", "stats")

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
        #: (src procs, dst procs) -> (nonlocal fraction, aggregate bandwidth)
        self._pair_memo: Dict[
            Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[float, float]
        ] = {}
        #: graph object id -> (graph ref, graph revision, invariants,
        #: that graph's edge estimates)
        self._graph_memo: Dict[int, _GraphEntry] = {}
        self.transfer_limit = transfer_limit
        self.stats: Dict[str, int] = dict.fromkeys(self.STAT_KEYS, 0)

    # -- allocation-independent graph structure ------------------------------------

    def graph_invariants(self, graph: TaskGraph) -> GraphInvariants:
        """The :class:`GraphInvariants` of *graph*, memoized.

        Keyed by the graph object plus its
        :attr:`~repro.graph.TaskGraph.revision`: the graph is
        append-only, so any mutation bumps the revision and invalidates
        the entry, and the check is O(1). The graph is kept referenced so
        the ``id`` key cannot be recycled.
        """
        return self._graph_entry(graph)[2]

    def _graph_entry(self, graph: TaskGraph) -> _GraphEntry:
        """*graph*'s memo entry: its invariants and its edge estimates.

        The estimates live in the graph's own entry, so two graphs that
        share task names never read each other's values, and a revision
        change drops them with the invariants.
        """
        key = id(graph)
        revision = graph.revision
        entry = self._graph_memo.get(key)
        if entry is not None and entry[1] == revision:
            self.stats["graph_hits"] += 1
            return entry
        self.stats["graph_misses"] += 1
        entry = self._graph_memo[key] = (
            graph, revision, GraphInvariants(graph), {}
        )
        return entry

    def release_graph(self, graph: TaskGraph) -> None:
        """Drop per-graph state for a job that left the machine.

        A long-lived cache (the online daemon keeps one for its whole run)
        would otherwise pin every finished job's graph via the graph memo.
        One pop drops the graph's invariants and its edge estimates
        together. The pair memo is left alone: it is keyed by concrete
        ``(src, dst)`` processor sets, is name-independent, and is exactly
        the cross-job reuse the daemon wants.
        """
        self._graph_memo.pop(id(graph), None)

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
        one task re-derives only that task's incident edges. Edges and
        volumes come from the graph's cached invariants.
        """
        _, _, inv, edge_memo = self._graph_entry(graph)
        volumes = inv.volumes
        if comm_blind:
            return dict.fromkeys(volumes, 0.0)
        costs: Dict[Tuple[str, str], float] = {}
        stats = self.stats
        bandwidth = self._bandwidth
        for (u, v), volume in volumes.items():
            widths = (allocation[u], allocation[v])
            per_edge = edge_memo.get((u, v))
            if per_edge is None:
                per_edge = edge_memo[(u, v)] = {}
            cost = per_edge.get(widths)
            if cost is None:
                stats["edge_misses"] += 1
                cost = per_edge[widths] = estimate_edge_cost(
                    widths[0], widths[1], volume, bandwidth
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

        Each call looks up the ``(src, dst)`` pair, counting one hit or
        miss, and prices *volume* with the pair's memoized
        :meth:`~repro.redistribution.RedistributionModel.pair_cost`.
        Callers on the LoCBS hot path already hold canonical processor
        tuples, so the pair is directly hashable.
        """
        if volume < 0:
            check_non_negative(volume, "volume")
        key = (src_procs, dst_procs)
        memo = self._pair_memo
        pair = memo.get(key)
        if pair is None:
            self.stats["transfer_misses"] += 1
            if (
                self.transfer_limit is not None
                and len(memo) >= self.transfer_limit
            ):
                memo.clear()
                self.stats["transfer_clears"] += 1
            pair = memo[key] = self.model.pair_cost(src_procs, dst_procs)
        else:
            self.stats["transfer_hits"] += 1
        # the model's expression: literal 0.0 for no volume or no
        # non-local data
        if volume == 0.0:
            return 0.0
        frac, agg = pair
        if frac <= 0.0:
            return 0.0
        return volume * frac / agg

    # -- telemetry -----------------------------------------------------------------

    def hit_rate(self, kind: str) -> float:
        """Fraction of ``kind`` ("edge" or "transfer") lookups served cached."""
        hits = self.stats[f"{kind}_hits"]
        total = hits + self.stats[f"{kind}_misses"]
        return hits / total if total else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Plain-JSON stats rollup (counts, sizes, hit rates)."""
        out: Dict[str, float] = dict(self.stats)
        out["edge_entries"] = sum(
            len(per_edge)
            for entry in self._graph_memo.values()
            for per_edge in entry[3].values()
        )
        out["transfer_entries"] = len(self._pair_memo)
        out["graph_entries"] = len(self._graph_memo)
        out["edge_hit_rate"] = self.hit_rate("edge")
        out["transfer_hit_rate"] = self.hit_rate("transfer")
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CostCache(graphs={len(self._graph_memo)}, "
            f"pairs={len(self._pair_memo)})"
        )
