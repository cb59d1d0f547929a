"""Incremental per-event placement — the online daemon's perf core.

:class:`IncrementalPlacer` persists the
:class:`~repro.schedule.ProcessorTimeline` and the
:class:`~repro.schedulers.costcache.CostCache` across events: placing an
arriving job is **one** call to
:func:`~repro.schedulers.locbs.splice_schedule` — the offline LoCBS pass
run on the live chart — so the hole scan prices only the candidate start
times the job's own window can touch (its submission-time floor plus the
release times after it) — never the accumulated history.

:class:`ColdRebuildPlacer` is the differential arm: it answers the same
``place`` request by rebuilding the machine **from empty** — replaying
every previously committed job (recorded graph, allocation vector and
arrival floor, in commit order) through fresh state and then splicing the
new job. Because the chart's sorted structures are content-determined
(insertion-order independent) and cached cost values are exact, the two
arms must produce bit-identical placements on every event; the daemon's
``differential=True`` mode asserts exactly that, reusing the oracle
pattern of ``tests/test_array_equivalence.py``. The cold arm is also the
honest baseline the incremental arm is measured against:
its per-event cost grows with history (it re-prices every historical
hole scan), which is precisely what cold-starting LoCBS per event costs.

Both arms report the probe-ladder counters
(``probes_considered`` / ``probes_bound_pruned`` deltas) per placement,
so CI can assert the incremental arm priced *strictly fewer* candidate
holes than the cold rebuild.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.cluster import Cluster
from repro.graph import TaskGraph
from repro.schedule import PlacedTask, ProcessorTimeline
from repro.schedulers.costcache import CostCache
from repro.schedulers.locbs import LocbsOptions, splice_schedule

__all__ = ["PlacementResult", "IncrementalPlacer", "ColdRebuildPlacer"]

#: one committed splice: (namespaced graph, allocation, arrival floor)
_HistoryEntry = Tuple[TaskGraph, Dict[str, int], float]


@dataclass(frozen=True)
class PlacementResult:
    """One ``place`` call's outcome and cost."""

    placements: List[PlacedTask]
    latency_s: float  #: wall-clock seconds this placement took
    probes_considered: int  #: hole-ladder candidates priced for this call
    probes_bound_pruned: int


def _probe_snapshot(cache: CostCache) -> Tuple[int, int]:
    s = cache.stats
    return s["probes_considered"], s["probes_bound_pruned"]


class IncrementalPlacer:
    """Splice jobs into one live chart, reusing all state across events."""

    def __init__(
        self, cluster: Cluster, *, options: LocbsOptions = LocbsOptions()
    ) -> None:
        self.cluster = cluster
        self.options = options
        self.timeline = ProcessorTimeline(cluster.processors)
        self.cost_cache = CostCache(cluster)
        self.history: List[_HistoryEntry] = []

    def place(
        self,
        graph: TaskGraph,
        allocation: Mapping[str, int],
        release_floor: float,
    ) -> PlacementResult:
        """Splice *graph* into the live chart; O(job + open holes)."""
        alloc = dict(allocation)
        before = _probe_snapshot(self.cost_cache)
        t0 = time.perf_counter()
        placements = splice_schedule(
            graph,
            self.cluster,
            alloc,
            self.timeline,
            release_floor=release_floor,
            options=self.options,
            cost_cache=self.cost_cache,
        )
        latency = time.perf_counter() - t0
        after = _probe_snapshot(self.cost_cache)
        self.history.append((graph, alloc, release_floor))
        return PlacementResult(
            placements=placements,
            latency_s=latency,
            probes_considered=after[0] - before[0],
            probes_bound_pruned=after[1] - before[1],
        )

    def release(self, graph: TaskGraph) -> None:
        """Drop a finished job's cost-cache state (memory bound).

        The chart keeps the job's busy spans — history compaction would
        change the chart *content* and break the cold arm's bit-identity
        contract, so it is deliberately not attempted here (see the docs'
        long-run caveat).
        """
        self.cost_cache.release_graph(graph)


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
    ) -> PlacementResult:
        """Rebuild the whole chart, then place *graph*; O(history + job)."""
        alloc = dict(allocation)
        t0 = time.perf_counter()
        timeline = ProcessorTimeline(self.cluster.processors)
        cache = CostCache(self.cluster)
        # replay the history, then the new job: the last splice is its own
        for g, a, floor in [*self.history, (graph, alloc, release_floor)]:
            placements = splice_schedule(
                g,
                self.cluster,
                a,
                timeline,
                release_floor=floor,
                options=self.options,
                cost_cache=cache,
            )
        latency = time.perf_counter() - t0
        probes = _probe_snapshot(cache)  # fresh cache: totals == this call
        self.history.append((graph, alloc, release_floor))
        return PlacementResult(
            placements=placements,
            latency_s=latency,
            probes_considered=probes[0],
            probes_bound_pruned=probes[1],
        )
