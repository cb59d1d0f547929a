"""Incremental per-event placement — the online daemon's perf core.

:class:`IncrementalPlacer` persists the
:class:`~repro.schedule.ProcessorTimeline` and the
:class:`~repro.schedulers.costcache.CostCache` across events: placing an
arriving job is **one** call to
:func:`~repro.schedulers.locbs.splice_schedule` — the offline LoCBS pass
run on the live chart — so the hole scan prices only the candidate start
times the job's own window can touch (its submission-time floor plus the
release times after it) — never the accumulated history.

Jobs of one template are spliced from the template's own graph, with the
job's ``"<job id>/"`` *prefix* put on the returned placement names. The
graph's invariants and edge estimates (in the cost cache) and its pop
order (:func:`~repro.schedulers.locbs.locbs_plan`, memoized here per
``(graph, allocation)``) are then derived once per template, not once
per job. The pop order is unchanged by the prefix: the ready queue breaks
ties by name, and one prefix shared by all of a job's tasks keeps their
order. Splice spans are unowned, so the chart never sees a name.

:class:`ColdRebuildPlacer` is the differential arm: it answers the same
``place`` request by rebuilding the machine **from empty** — replaying
every previously committed job (recorded graph, allocation vector and
arrival floor, in commit order) through fresh state, planning every
splice from scratch, and then splicing the new job. Because the
chart's sorted structures are content-determined (insertion-order
independent) and cached cost values are exact, the two arms must produce
bit-identical placements on every event; the daemon's
``differential=True`` mode asserts exactly that, reusing the oracle
pattern of ``tests/test_array_equivalence.py``. The cold arm is also the
honest baseline the incremental arm is measured against:
its per-event cost grows with history (it re-prices every historical
hole scan), which is precisely what cold-starting LoCBS per event costs.

Both arms report the hole-ladder candidates they priced
(``probes_considered``) per placement, so CI can assert the incremental
arm priced *strictly fewer* candidate holes than the cold rebuild.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.cluster import Cluster
from repro.graph import TaskGraph
from repro.schedule import PlacedTask, ProcessorTimeline
from repro.schedulers.costcache import CostCache
from repro.schedulers.locbs import (
    LocbsOptions,
    Plan,
    locbs_plan,
    splice_schedule,
)

__all__ = ["PlacementResult", "IncrementalPlacer", "ColdRebuildPlacer"]

#: one committed splice: (graph, allocation, arrival floor)
_HistoryEntry = Tuple[TaskGraph, Dict[str, int], float]


@dataclass(frozen=True)
class PlacementResult:
    """One ``place`` call's outcome and cost."""

    placements: List[PlacedTask]
    latency_s: float  #: wall-clock seconds this placement took
    probes_considered: int  #: hole-ladder candidates priced for this call


def _prefixed(placements: List[PlacedTask], prefix: str) -> List[PlacedTask]:
    """*placements* with every task name prefixed by *prefix*."""
    if not prefix:
        return placements
    return [
        PlacedTask(prefix + p.name, p.start, p.exec_start, p.finish, p.processors)
        for p in placements
    ]


class IncrementalPlacer:
    """Splice jobs into one live chart, reusing all state across events."""

    def __init__(
        self, cluster: Cluster, *, options: LocbsOptions = LocbsOptions()
    ) -> None:
        self.cluster = cluster
        self.options = options
        self.timeline = ProcessorTimeline(cluster.processors)
        self.cost_cache = CostCache(cluster)
        #: graph object id -> (graph ref, graph revision, allocation, pop order)
        self._plans: Dict[int, Tuple[TaskGraph, int, Dict[str, int], Plan]] = {}

    def place(
        self,
        graph: TaskGraph,
        allocation: Mapping[str, int],
        release_floor: float,
        *,
        prefix: str = "",
    ) -> PlacementResult:
        """Splice *graph* into the live chart; O(job + open holes).

        The placements are named ``prefix + task``. The pop order is
        reused from the last call with the same graph and allocation.
        """
        before = self.cost_cache.stats["probes_considered"]
        t0 = time.perf_counter()
        placements = splice_schedule(
            graph,
            self.cluster,
            allocation,
            self.timeline,
            release_floor=release_floor,
            options=self.options,
            cost_cache=self.cost_cache,
            plan=self._plan(graph, allocation),
        )
        placements = _prefixed(placements, prefix)
        latency = time.perf_counter() - t0
        return PlacementResult(
            placements=placements,
            latency_s=latency,
            probes_considered=self.cost_cache.stats["probes_considered"] - before,
        )

    def _plan(self, graph: TaskGraph, allocation: Mapping[str, int]) -> Plan:
        """*graph*'s pop order under *allocation*, memoized per graph.

        Checked like :meth:`CostCache.graph_invariants` (graph revision)
        plus the allocation's content, so a new allocation replans.
        """
        entry = self._plans.get(id(graph))
        if (
            entry is not None
            and entry[1] == graph.revision
            and entry[2] == allocation
        ):
            return entry[3]
        plan = locbs_plan(
            graph, self.cluster, allocation, self.options, self.cost_cache
        )
        self._plans[id(graph)] = (graph, graph.revision, dict(allocation), plan)
        return plan

    def release(self, graph: TaskGraph) -> None:
        """Drop a graph's cost-cache state and pop order (memory bound).

        The daemon calls it when a template falls out of its window of
        recently used templates. A later splice of that graph rebuilds
        both exactly, so a release never changes a placement.

        The chart keeps the job's busy spans — history compaction would
        change the chart *content* and break the cold arm's bit-identity
        contract, so it is deliberately not attempted here (see the docs'
        long-run caveat).
        """
        self.cost_cache.release_graph(graph)
        self._plans.pop(id(graph), None)


class ColdRebuildPlacer:
    """The differential arm: every ``place`` rebuilds from an empty machine.

    Shares no mutable state across events — each call constructs a fresh
    timeline and cost cache, replays the recorded history in commit
    order, then places the new job. Returns placements for the **new**
    job only (the replayed history must land exactly where it already is
    on the incremental arm's chart, which the daemon's differential mode
    verifies via the returned new-job placements being bit-identical).
    """

    def __init__(
        self, cluster: Cluster, *, options: LocbsOptions = LocbsOptions()
    ) -> None:
        self.cluster = cluster
        self.options = options
        self.history: List[_HistoryEntry] = []

    def place(
        self,
        graph: TaskGraph,
        allocation: Mapping[str, int],
        release_floor: float,
        *,
        prefix: str = "",
    ) -> PlacementResult:
        """Rebuild the whole chart, then place *graph*; O(history + job).

        Every splice plans its pop order afresh; the new job's placements
        are named ``prefix + task``, as :meth:`IncrementalPlacer.place`.
        """
        entry = (graph, dict(allocation), release_floor)
        t0 = time.perf_counter()
        timeline = ProcessorTimeline(self.cluster.processors)
        cache = CostCache(self.cluster)
        # replay the history, then the new job: the last splice is its own
        for g, a, floor in [*self.history, entry]:
            placements = splice_schedule(
                g,
                self.cluster,
                a,
                timeline,
                release_floor=floor,
                options=self.options,
                cost_cache=cache,
            )
        placements = _prefixed(placements, prefix)
        latency = time.perf_counter() - t0
        self.history.append(entry)
        return PlacementResult(
            placements=placements,
            latency_s=latency,
            # a fresh cache: its total is this call's
            probes_considered=cache.stats["probes_considered"],
        )
