"""Naive reference implementations of the optimized scheduler hot paths.

The incremental scheduling engine (heap ready queue, blocker queries on
the chart's span owners, run-scoped cost cache) must not change a single
produced schedule. This module preserves the *pre-optimization* code
paths so that claim stays checkable forever:

* :func:`scan_blockers` — the full-schedule O(n) blocker scan that
  :meth:`repro.schedule.ProcessorTimeline.blockers` replaces;
* :func:`locbs_schedule_reference` — LoCBS with the original per-placement
  ``ready.sort`` (priority recomputed through a closure), a frozen copy of
  the seed hole scan (from-scratch ``idle_with_horizon`` at every candidate
  start, ``heapq.nsmallest`` subset ranking), the full-schedule blocker
  scan, and uncached cost models;
* :class:`ReferenceLocMpsScheduler` — LoC-MPS running entirely on the
  reference LoCBS with no cross-call cost cache (the allocation memo is
  kept: it predates the incremental engine).

The reference LoCBS runs on the frozen *scalar* chart and redistribution
code preserved in :mod:`repro.perf.scalar_oracles`
(:class:`ScalarProcessorTimeline`, the per-period-slot block-cyclic
loops), re-exported here as callable oracles — so the baseline arm stays
pinned to the pre-numpy implementations and never silently inherits the
array-native speedups.

The reference scan carries no lazy candidate ladder — every candidate
start time is materialized and probed under the seed's ``tau + et``
break only. The differential battery asserts the production scan
produces bit-identical schedules to this arm, which is what makes its
shortcuts *provably* schedule-preserving rather than just plausibly so.

Property tests (``tests/test_perf_equivalence.py``) and the differential
battery (``tests/test_array_equivalence.py``) assert fast == naive on
randomized inputs, and ``benchmarks/bench_hotpath.py`` times optimized
vs. reference on the ``wide``/``deep``/Strassen/CCSD T1 inputs and
asserts equal schedule digests. Per-workload performance is measured
by the benchmark in ``bench/`` (``python bench/run.py``).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster import Cluster
from repro.exceptions import ScheduleError
from repro.graph import TaskGraph, bottom_levels
from repro.graph.pseudo import ScheduleDAG
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.perf.scalar_oracles import (
    ScalarIdleSweep,
    ScalarProcessorTimeline,
    local_fraction_scalar,
    pair_fractions_scalar,
    single_port_time_scalar,
    transfer_time_scalar,
    volume_matrix_scalar,
)
from repro.schedule import PlacedTask, Schedule
from repro.schedulers.base import (
    SchedulingResult,
    clamp_allocation,
    edge_cost_map,
)
from repro.schedulers.context import SchedulingContext
from repro.schedulers.locbs import _PSEUDO_TOL, LocbsOptions
from repro.schedulers.locmps import LocMpsScheduler
from repro.utils.intervals import EPS

__all__ = [
    "scan_blockers",
    "locbs_schedule_reference",
    "ReferenceLocMpsScheduler",
    "ScalarProcessorTimeline",
    "ScalarIdleSweep",
    "ReferenceRedistributionModel",
    "pair_fractions_scalar",
    "volume_matrix_scalar",
    "local_fraction_scalar",
    "transfer_time_scalar",
    "single_port_time_scalar",
]


class ReferenceRedistributionModel:
    """Scalar-oracle counterpart of :class:`RedistributionModel`.

    Times block-cyclic redistributions through the frozen per-period-slot
    loops of :mod:`repro.perf.scalar_oracles`, so the reference scheduling
    arm never touches the vectorized pattern math.
    """

    __slots__ = ("cluster",)

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster

    def transfer_time(
        self, src_procs: Sequence[int], dst_procs: Sequence[int], volume: float
    ) -> float:
        return transfer_time_scalar(
            src_procs, dst_procs, volume, self.cluster.bandwidth
        )

    def single_port_time(
        self, src_procs: Sequence[int], dst_procs: Sequence[int], volume: float
    ) -> float:
        return single_port_time_scalar(
            src_procs, dst_procs, volume, self.cluster.bandwidth
        )


def scan_blockers(
    schedule: Schedule,
    placement: PlacedTask,
    blocked_start: float,
    *,
    tol: float = _PSEUDO_TOL,
) -> List[str]:
    """Full-schedule blocker scan, the oracle of the chart's query.

    Tasks ``ti`` with ``ft(ti) == st(tp)`` sharing a processor; when
    rounding leaves no exact match, the latest-finishing processor-sharing
    task that ended before the start. Production LoCBS asks the chart
    instead (:meth:`repro.schedule.ProcessorTimeline.blockers`, which
    bisects the rows of the placement's processors); over a chart whose
    span owners are *schedule*'s placements the two answer alike.
    """
    mine = set(placement.processors)
    exact: List[str] = []
    latest: Optional[Tuple[float, str]] = None
    for other in schedule:
        if other.name == placement.name or not mine & set(other.processors):
            continue
        if abs(other.finish - blocked_start) <= tol:
            exact.append(other.name)
        elif other.finish < blocked_start + tol:
            if latest is None or other.finish > latest[0]:
                latest = (other.finish, other.name)
    if exact:
        return sorted(exact)
    if latest is not None:
        return [latest[1]]
    return []


def locbs_schedule_reference(
    graph: TaskGraph,
    cluster: Cluster,
    allocation: Mapping[str, int],
    options: LocbsOptions = LocbsOptions(),
    context: Optional["SchedulingContext"] = None,
    tracer: Optional[Tracer] = None,
) -> SchedulingResult:
    """LoCBS exactly as before the incremental engine (same schedules).

    Sort-based ready queue with per-comparison priority recomputation,
    uncached edge-cost map and transfer timings, full-schedule blocker
    scans, and the seed hole scan (:func:`_place_task_naive`) frozen
    verbatim — so the optimized engine is always benchmarked against what
    the code actually did before, not a baseline that silently inherits
    later speedups.
    """
    tracer = tracer or NULL_TRACER
    alloc = clamp_allocation(graph, cluster, allocation)
    model = ReferenceRedistributionModel(cluster)
    g = graph.nx_graph()

    est_costs = edge_cost_map(graph, cluster, alloc, comm_blind=options.comm_blind)
    bl = bottom_levels(
        g,
        lambda t: graph.et(t, alloc[t]),
        lambda u, v: est_costs[(u, v)],
    )

    def priority(t: str) -> float:
        preds = graph.predecessors(t)
        max_in = max((est_costs[(u, t)] for u in preds), default=0.0)
        return bl[t] + max_in

    timeline = ScalarProcessorTimeline(cluster.processors)
    if context is not None:
        for proc, ready_time in context.processor_ready.items():
            if ready_time > 0:
                timeline.reserve([proc], 0.0, ready_time)
    schedule = Schedule(cluster, scheduler="locbs")
    vertex_weights: Dict[str, float] = {}
    edge_weights: Dict[Tuple[str, str], float] = {}
    sdag_pseudo: List[Tuple[str, str]] = []

    unplaced = set(graph.tasks())
    placed_count: Dict[str, int] = {t: 0 for t in graph.tasks()}
    n_preds = {t: len(graph.predecessors(t)) for t in graph.tasks()}
    ready = sorted(
        (t for t in unplaced if n_preds[t] == 0),
        key=lambda t: (-priority(t), t),
    )

    while unplaced:
        if not ready:
            raise ScheduleError("no ready task but tasks remain: cyclic graph?")
        tp = ready.pop(0)
        unplaced.discard(tp)

        placement, comm_times, est_tp = _place_task_naive(
            tp, graph, cluster, alloc, model, timeline, schedule, options,
            context, tracer,
        )
        occupied_from = placement.start
        timeline.reserve(placement.processors, placement.start, placement.finish)
        schedule.place(placement)
        for (u, v), ct in comm_times.items():
            schedule.edge_comm_times[(u, v)] = ct
            edge_weights[(u, v)] = ct
        vertex_weights[tp] = placement.exec_duration

        if occupied_from > est_tp + _PSEUDO_TOL:
            for blocker in scan_blockers(schedule, placement, occupied_from):
                sdag_pseudo.append((blocker, tp))

        for succ in graph.successors(tp):
            placed_count[succ] += 1
            if placed_count[succ] == n_preds[succ] and succ in unplaced:
                ready.append(succ)
        ready.sort(key=lambda t: (-priority(t), t))

    sdag = ScheduleDAG(graph, vertex_weights, edge_weights)
    for u, v in sdag_pseudo:
        sdag.add_pseudo_edge(u, v)
    return SchedulingResult(schedule=schedule, sdag=sdag)


def _place_task_naive(
    tp: str,
    graph: TaskGraph,
    cluster: Cluster,
    alloc: Mapping[str, int],
    model: ReferenceRedistributionModel,
    timeline: ScalarProcessorTimeline,
    schedule: Schedule,
    options: LocbsOptions,
    context: Optional["SchedulingContext"] = None,
    tracer: Tracer = NULL_TRACER,
) -> Tuple[PlacedTask, Dict[Tuple[str, str], float], float]:
    """The seed hole scan, frozen verbatim (Algorithm 2, steps 5-16).

    Recomputes the idle set from scratch at every candidate start time and
    ranks processor subsets with ``heapq.nsmallest``; the optimized engine
    replaced both (incremental idle sweep, decorated C-level sort) without
    changing any output.
    """
    np_t = alloc[tp]
    et = graph.et(tp, np_t)
    parents = graph.predecessors(tp)
    parent_info: List[Tuple[str, Tuple[int, ...], float, float]] = []
    for u in parents:
        pu = schedule[u]
        volume = 0.0 if options.comm_blind else graph.data_volume(u, tp)
        parent_info.append((u, pu.processors, pu.finish, volume))
    if context is not None:
        for ext in context.inputs_for(tp):
            volume = 0.0 if options.comm_blind else ext.volume
            parent_info.append(
                (f"__ext__{ext.label}", ext.processors, ext.ready_time, volume)
            )

    ready_base = max((ft for _, _, ft, _ in parent_info), default=0.0)

    locality: Dict[int, float] = {}
    if not options.locality_blind:
        for _, procs, _, volume in parent_info:
            if volume > 0:
                share = volume / len(procs)
                for p in procs:
                    locality[p] = locality.get(p, 0.0) + share

    if options.backfill:
        candidates = [ready_base] + timeline.release_times(ready_base)
    else:
        eats = sorted({timeline.earliest_available(p) for p in cluster.processors})
        candidates = sorted({ready_base} | {t for t in eats if t > ready_base + EPS})

    best: Optional[Tuple[float, float, float, Tuple[int, ...]]] = None
    best_interior = False

    for tau in candidates:
        if best is not None and tau + et >= best[0] - EPS:
            break  # no later start can beat the current finish time
        if options.backfill:
            free = timeline.idle_with_horizon(tau)
        else:
            free = [
                (p, float("inf"))
                for p in cluster.processors
                if timeline.earliest_available(p) <= tau + EPS
            ]
        if len(free) < np_t:
            continue
        chosen = _pick_by_locality_naive(free, np_t, locality)
        trial = _time_placement_naive(
            chosen, tau, et, parent_info, model, cluster.overlap
        )
        start, exec_start, finish = trial
        if not timeline.is_free(chosen, start, finish):
            roomy = [ph for ph in free if ph[1] >= finish - EPS]
            if len(roomy) < np_t:
                continue
            chosen = _pick_by_locality_naive(roomy, np_t, locality)
            trial = _time_placement_naive(
                chosen, tau, et, parent_info, model, cluster.overlap
            )
            start, exec_start, finish = trial
            if not timeline.is_free(chosen, start, finish):
                continue
        if best is None or finish < best[0] - EPS:
            best = (finish, start, exec_start, chosen)
            if tracer.enabled:
                horizons = dict(free)
                best_interior = any(
                    math.isfinite(horizons.get(p, math.inf)) for p in chosen
                )

    if best is None:
        raise ScheduleError(f"no feasible slot found for task {tp!r}")

    finish, start, exec_start, chosen = best
    placement = PlacedTask(
        name=tp, start=start, exec_start=exec_start, finish=finish, processors=chosen
    )
    comm_times = {
        (u, tp): model.transfer_time(procs, chosen, volume)
        for u, procs, _, volume in parent_info
    }
    est_tp = max(
        (ft + comm_times[(u, tp)] for u, _, ft, _ in parent_info),
        default=0.0,
    )
    if tracer.enabled:
        if best_interior:
            tracer.event("backfill_hit", task=tp, start=start, finish=finish)
        if locality:
            resident = sum(locality.get(p, 0.0) for p in chosen)
            tracer.event(
                "locality_hit" if resident > 0.0 else "locality_miss",
                task=tp,
                resident_bytes=resident,
            )
        for (u, _), ct in comm_times.items():
            tracer.event("redistribution_costed", src=u, dst=tp, time=ct)
    return placement, comm_times, est_tp


def _pick_by_locality_naive(
    free: Sequence[Tuple[int, float]],
    np_t: int,
    locality: Mapping[int, float],
) -> Tuple[int, ...]:
    """The seed subset selection: ``heapq.nsmallest`` with a lambda key."""
    if len(free) == np_t:
        return tuple(sorted(ph[0] for ph in free))
    if locality:
        get = locality.get
        picked = heapq.nsmallest(
            np_t, free, key=lambda ph: (-get(ph[0], 0.0), -ph[1], ph[0])
        )
    else:
        picked = heapq.nsmallest(np_t, free, key=lambda ph: (-ph[1], ph[0]))
    return tuple(sorted(ph[0] for ph in picked))


def _time_placement_naive(
    chosen: Tuple[int, ...],
    tau: float,
    et: float,
    parent_info: Sequence[Tuple[str, Tuple[int, ...], float, float]],
    model: ReferenceRedistributionModel,
    overlap: bool,
) -> Tuple[float, float, float]:
    """The seed placement timing (identical arithmetic to the fast path)."""
    if overlap:
        data_ready = tau
        for _, procs, ft, volume in parent_info:
            arrival = ft + model.transfer_time(procs, chosen, volume)
            if arrival > data_ready:
                data_ready = arrival
        exec_start = max(tau, data_ready)
        return exec_start, exec_start, exec_start + et
    comm = 0.0
    ready = tau
    for _, procs, ft, volume in parent_info:
        comm += model.transfer_time(procs, chosen, volume)
        if ft > ready:
            ready = ft
    start = max(tau, ready)
    exec_start = start + comm
    return start, exec_start, exec_start + et


class ReferenceLocMpsScheduler(LocMpsScheduler):
    """LoC-MPS on the naive LoCBS, bypassing the run-scoped cost cache.

    The outer allocation walk is byte-for-byte the production one (it is
    inherited), so any schedule difference against :class:`LocMpsScheduler`
    isolates the incremental engine. Used by the equivalence tests and as
    the baseline arm of ``benchmarks/bench_hotpath.py``.
    """

    name = "locmps-reference"

    def _schedule(
        self, graph, cluster, alloc, base=None, plan=None
    ) -> SchedulingResult:
        # *base* and *plan* are ignored: every reference pass is cold and
        # plans its own pop order, which is what makes this arm the oracle
        # for the production prefix reuse.
        options = LocbsOptions(
            backfill=self.backfill,
            comm_blind=self.comm_blind,
            locality_blind=self.locality_blind,
        )
        return locbs_schedule_reference(
            graph, cluster, alloc, options,
            context=self.context, tracer=self.tracer,
        )
