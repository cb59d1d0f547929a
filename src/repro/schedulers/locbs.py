"""LoCBS — Locality Conscious Backfill Scheduling (paper Algorithm 2).

Given a task graph and a fixed processor allocation ``np(t)``, LoCBS maps
each task to a concrete processor set and start time:

1. Among ready tasks (all predecessors placed), pick the one with the
   highest priority ``bottomL(t) + max_parent wt(e)`` — bottom levels use the
   allocation-time cost model.
2. Probe every *hole* of the 2-D chart that could hold the task: candidate
   start times are the ready time plus every interval boundary after it (the
   only instants at which the idle set changes).
3. In each hole, take the processor subset with maximum *locality* (bytes of
   the task's input data already resident), time the inbound block-cyclic
   redistribution, and keep the placement minimizing the task's finish time.
4. If the task started later than its data-ready time, the wait was induced
   by resource contention: add zero-weight *pseudo-edges* from the tasks
   whose completion released the processors, building the schedule-DAG
   ``G'`` that the LoC-MPS outer loop analyses.

With ``cluster.overlap=False``, the inbound redistribution also occupies the
destination processors (the busy rectangle becomes ``comm + comp``) —
sender-side occupancy is not modelled, matching the asymmetric I/O cost the
paper attributes to non-overlapping systems.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice, takewhile
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.exceptions import ScheduleError
from repro.graph import TaskGraph
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.schedule import PlacedTask, ProcessorTimeline, Schedule
from repro.schedulers.base import SchedulingResult, clamp_allocation
from repro.schedulers.context import SchedulingContext
from repro.schedulers.costcache import CostCache, GraphInvariants
from repro.schedulers.provenance import (
    HOLE_TOO_SHORT,
    LOST,
    TOO_FEW_FREE,
    WON,
    CandidateProbe,
    PlacementDecision,
    ProvenanceRecorder,
)
from repro.utils.intervals import EPS

__all__ = [
    "LocbsOptions",
    "ReadyQueue",
    "locbs_plan",
    "locbs_schedule",
    "splice_schedule",
    "task_priorities",
]

#: tolerance when matching a blocked start time against finish times
_PSEUDO_TOL = 1e-6

#: one probe as the scan saw it: (tau, procs, start, exec_start, finish, tag)
_Probe = Tuple[float, Tuple[int, ...], float, float, float, str]

#: a pass's pop order: one ``(task, width)`` pair per task
Plan = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class LocbsOptions:
    """Behaviour switches for the LoCBS engine.

    ``backfill``
        ``True`` probes every hole of the chart (full Algorithm 2);
        ``False`` degrades to latest-free-time placement — the cheaper
        variant of the paper's Fig 6 ablation (see
        :func:`repro.schedulers.nobackfill.nobackfill_schedule`).
    ``comm_blind``
        Treat every data volume as zero when *timing* the schedule. Used to
        reproduce iCASLB, which assumes negligible inter-task communication.
    ``locality_blind``
        Ignore resident data when choosing processor subsets (ablation of
        the paper's headline idea): transfers are still paid at their true
        locality-aware cost, but placement no longer seeks reuse.
    """

    backfill: bool = True
    comm_blind: bool = False
    locality_blind: bool = False


def task_priorities(
    graph: TaskGraph,
    bl: Mapping[str, float],
    est_costs: Mapping[Tuple[str, str], float],
    preds: Optional[Mapping[str, Sequence[str]]] = None,
) -> Dict[str, float]:
    """Algorithm 2 priorities: ``bottomL(t) + max_parent wt(e)``, all tasks.

    Priorities depend only on the (fixed) allocation, so one O(V + E) pass
    replaces the per-comparison closure the ready-queue sort used to call.
    *preds* (optional) supplies precomputed predecessor lists — the cached
    :class:`~repro.schedulers.costcache.GraphInvariants` — to skip the
    per-task networkx traversal.
    """
    prio: Dict[str, float] = {}
    for t in graph.tasks():
        parents = graph.predecessors(t) if preds is None else preds[t]
        max_in = max((est_costs[(u, t)] for u in parents), default=0.0)
        prio[t] = bl[t] + max_in
    return prio


def _bottom_levels_under(
    inv: GraphInvariants,
    alloc: Mapping[str, int],
    est_costs: Mapping[Tuple[str, str], float],
) -> Dict[str, float]:
    """``bottomL(t)`` under *alloc*, over the cached graph invariants.

    The same reverse-topological relaxation as
    :func:`repro.graph.bottom_levels` — each vertex takes the max over its
    successors in identical iteration order, so results are bit-identical —
    minus the per-call acyclicity check and networkx traversals (acyclicity
    was already established when the invariants were built). *alloc* is
    clamped, so execution times are read without re-checking widths.
    """
    profiles = inv.profiles
    succs = inv.succs
    bl: Dict[str, float] = {}
    for v in reversed(inv.order):
        best = 0.0
        for w in succs[v]:
            cand = est_costs[(v, w)] + bl[w]
            if cand > best:
                best = cand
        bl[v] = profiles[v]._time(alloc[v]) + best
    return bl


class ReadyQueue:
    """Max-heap of ready tasks ordered by (priority desc, name asc).

    Pop order is identical to repeatedly re-sorting the ready list by
    ``(-priority(t), t)`` and taking the head (property-tested against
    that reference in ``tests/test_perf_equivalence.py``): priorities are
    fixed for the whole LoCBS call, so a binary heap turns the former
    O(R log R) sort per placement into O(log R) per push/pop.
    """

    __slots__ = ("_prio", "_heap")

    def __init__(self, priorities: Mapping[str, float]) -> None:
        self._prio = priorities
        self._heap: List[Tuple[float, str]] = []

    def push(self, task: str) -> None:
        heapq.heappush(self._heap, (-self._prio[task], task))

    def pop(self) -> str:
        """Remove and return the highest-priority ready task."""
        return heapq.heappop(self._heap)[1]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def locbs_plan(
    graph: TaskGraph,
    cluster: Cluster,
    allocation: Mapping[str, int],
    options: LocbsOptions = LocbsOptions(),
    cost_cache: Optional[CostCache] = None,
) -> Plan:
    """The pop order of a LoCBS pass, as ``(task, width)`` pairs.

    A task becomes ready when its parents are *popped*, not when they
    finish, and the priorities are fixed before the first placement, so
    the order a pass places its tasks in is known before any hole scan:
    it is a dry run of the :class:`ReadyQueue` over the priorities. It
    depends on the graph, the clamped allocation and
    ``options.comm_blind`` only. :func:`locbs_schedule` accepts the result
    as ``plan=`` and then skips this step; *cost_cache* is the cache that
    pass will use (omitted, a private one).
    """
    cache = cost_cache if cost_cache is not None else CostCache(cluster)
    inv = cache.graph_invariants(graph)
    alloc = clamp_allocation(graph, cluster, allocation)
    # Priorities (Algorithm 2, step 4): bottom level under the current
    # allocation plus the heaviest inbound edge estimate.
    est_costs = cache.edge_cost_map(graph, alloc, comm_blind=options.comm_blind)
    bl = _bottom_levels_under(inv, alloc, est_costs)
    prio = task_priorities(graph, bl, est_costs, preds=inv.preds)

    succs = inv.succs
    waiting = {t: len(ps) for t, ps in inv.preds.items()}
    ready = ReadyQueue(prio)
    for t in graph.tasks():
        if not waiting[t]:
            ready.push(t)
    order: List[Tuple[str, int]] = []
    while ready:
        tp = ready.pop()
        order.append((tp, alloc[tp]))
        for succ in succs[tp]:
            waiting[succ] -= 1
            if not waiting[succ]:
                ready.push(succ)
    if len(order) < len(waiting):
        raise ScheduleError("no ready task but tasks remain: cyclic graph?")
    return tuple(order)


def locbs_schedule(
    graph: TaskGraph,
    cluster: Cluster,
    allocation: Mapping[str, int],
    options: LocbsOptions = LocbsOptions(),
    context: Optional["SchedulingContext"] = None,
    tracer: Optional[Tracer] = None,
    cost_cache: Optional[CostCache] = None,
    provenance: Optional[ProvenanceRecorder] = None,
    base: Optional[SchedulingResult] = None,
    plan: Optional[Plan] = None,
) -> SchedulingResult:
    """Schedule *graph* under *allocation* with locality-conscious backfill.

    *context* (optional) pins mid-execution machine state: processors busy
    until given release times, and data from already-finished producers
    resident on concrete processor sets (see
    :mod:`repro.schedulers.context`). Used by the on-line rescheduling
    framework.

    *tracer* (optional) records per-placement observability events
    (``task_placed``, ``backfill_hit``, ``locality_hit``/``miss``,
    ``pseudo_edge_added``, ``redistribution_costed``); the default no-op
    tracer keeps the hole-scan hot path free of event construction.

    *cost_cache* (optional) shares memoized edge-cost estimates and
    transfer pair prices across calls — the LoC-MPS outer loop passes
    one run-scoped :class:`~repro.schedulers.costcache.CostCache` so each
    look-ahead step re-derives only the costs its allocation change
    touched. Omitted, a private per-call cache still dedupes the repeated
    transfer timings of the hole scan. Caching never changes the produced
    schedule (cached values are the exact uncached results).

    *provenance* (optional) collects one
    :class:`~repro.schedulers.provenance.PlacementDecision` per placed
    task — every candidate hole probed, its trial timing, why it lost —
    and, when a tracer is active, mirrors each decision as a
    ``placement_decision`` trace event. Recording never changes the
    schedule; ``None`` (the default) keeps the scan free of bookkeeping.

    *base* (optional) is an earlier result of this function over the
    same *graph* and *cluster*, run with the same *options* and *context*
    under any other allocation — the LoC-MPS look-ahead passes the
    memoized pass whose pop order shares the longest prefix with this
    one. A placement depends only on the task's width, its parents'
    placements and the chart built by the placements before it, so the
    pass resumes from *base*'s state after the longest common prefix of
    the two pop orders (``(task, width)`` steps): the prefix's
    placements go onto the chart in one
    :meth:`~repro.schedule.ProcessorTimeline.reserve_many` load, and
    their transfer times and pseudo-edges are copied from *base*, with
    no hole scan. Only the steps after the prefix are scanned, and the
    result is identical to a cold pass either way; ``placements_reused``
    on the result counts the copied prefix. Options and context are not
    checked — the caller must keep them equal — but a *base* over another
    graph or cluster object raises
    :class:`~repro.exceptions.ScheduleError`, as does combining *base*
    with *provenance*, which needs every decision re-derived.

    *plan* (optional) is this pass's pop order from :func:`locbs_plan`,
    computed by the caller under the same *graph*, *cluster*,
    *allocation* and *options* (not checked); the pass then skips
    computing priorities itself.
    """
    if base is not None:
        if base.graph is not graph:
            raise ScheduleError("base pass was run on a different graph")
        if base.schedule.cluster is not cluster:
            raise ScheduleError("base pass was run on a different cluster")
        if provenance is not None:
            raise ScheduleError("provenance recording needs a cold pass (base=None)")
    timeline = ProcessorTimeline(cluster.processors)
    if context is not None:
        for proc, ready in context.processor_ready.items():
            if ready > 0:
                timeline.reserve([proc], 0.0, ready)
    schedule, pseudo_edges, reused = _locbs_pass(
        graph, cluster, allocation, timeline, options, context,
        tracer or NULL_TRACER, cost_cache, provenance, base, plan,
    )
    return SchedulingResult(
        schedule,
        placements_reused=reused,
        graph=graph,
        pseudo_edges=pseudo_edges,
    )


def _locbs_pass(
    graph: TaskGraph,
    cluster: Cluster,
    allocation: Mapping[str, int],
    timeline: ProcessorTimeline,
    options: LocbsOptions,
    context: Optional["SchedulingContext"],
    tracer: Tracer,
    cost_cache: Optional[CostCache],
    provenance: Optional[ProvenanceRecorder],
    base: Optional[SchedulingResult],
    plan: Optional[Plan],
    pairs: bool = True,
) -> Tuple[Schedule, List[Tuple[str, str]], int]:
    """One Algorithm 2 pass placing *graph* into *timeline* (mutated).

    Walks *plan* (the pass's pop order, planned here when ``None``): the
    leading steps it shares with *base*'s pop order are loaded from the
    base in bulk, the rest are hole-scanned one by one. Returns the
    schedule in pop order, the ``(blocker, task)`` pseudo-edge pairs in
    pop order and the count of copied placements.

    Each placement reserves its span owned by ``(task, pop index)``, so
    the chart answers the pass's blocker queries. With *pairs* false the
    spans stay unowned and no pairs are computed: the caller takes none.
    """
    cache = cost_cache if cost_cache is not None else CostCache(cluster)
    if plan is None:
        plan = locbs_plan(graph, cluster, allocation, options, cache)
    inv = cache.graph_invariants(graph)
    if tracer.enabled:
        # Snapshot the (shared, cumulative) prune counters so the
        # ``prune_stats`` event emitted at the end carries this call's
        # deltas, not the run totals.
        _ps = cache.stats
        probes_base = (_ps["probes_considered"], _ps["probes_bound_pruned"])

    schedule = Schedule(cluster, scheduler="locbs")
    pseudo_edges: List[Tuple[str, str]] = []
    reused = 0 if base is None else _shared_prefix(plan, base.schedule)
    if reused:
        _load_prefix(
            base, reused, inv, timeline, schedule, pseudo_edges, context,
            tracer,
        )

    for tp, np_t in plan[reused:]:
        placement, comm_times, est_tp = _place_task(
            tp, np_t, inv, cluster, cache, timeline, schedule, options,
            context, tracer, provenance,
        )
        if provenance is not None and tracer.enabled:
            tracer.event(
                "placement_decision", **provenance.decisions[-1].to_dict()
            )
        timeline.reserve(
            placement.processors, placement.start, placement.finish,
            (tp, len(schedule)) if pairs else None,
        )
        schedule.place(placement)
        if tracer.enabled:
            _announce_placement(tracer, placement)
        schedule.edge_comm_times.update(comm_times)

        # Pseudo-edges (Algorithm 2, steps 17-18): the task waited on
        # resources, not data — record which finishing tasks released them.
        if pairs and placement.start > est_tp + _PSEUDO_TOL:
            for blocker in timeline.blockers(
                placement, placement.start, tol=_PSEUDO_TOL
            ):
                pseudo_edges.append((blocker, tp))
                if tracer.enabled:
                    tracer.event(
                        "pseudo_edge_added",
                        src=blocker,
                        dst=tp,
                        wait=placement.start - est_tp,
                    )

    if tracer.enabled:
        tracer.event(
            "prune_stats",
            considered=_ps["probes_considered"] - probes_base[0],
            bound_pruned=_ps["probes_bound_pruned"] - probes_base[1],
        )
        tracer.event("prefix_reused", count=reused)
    return schedule, pseudo_edges, reused


def _shared_prefix(plan: Plan, base_schedule: Schedule) -> int:
    """How many leading ``(task, width)`` steps *plan* shares with a pass."""
    k = 0
    for (tp, np_t), placed in zip(plan, base_schedule):
        if placed.name != tp or placed.width != np_t:
            break
        k += 1
    return k


def _load_prefix(
    base: SchedulingResult,
    k: int,
    inv: GraphInvariants,
    timeline: ProcessorTimeline,
    schedule: Schedule,
    pseudo_edges: List[Tuple[str, str]],
    context: Optional["SchedulingContext"],
    tracer: Tracer,
) -> None:
    """Resume a pass from *base*'s state after its first *k* placements.

    A placement depends only on the task's width, its parents'
    placements and the chart the placements before it built, so while
    the pop orders agree the base's placements are the ones a hole scan
    would find. They go onto the chart in one bulk load, owned by their
    pop indices as in a cold pass, and into the schedule in pop order.
    Their inbound transfer times and pseudo-edge pairs are the leading
    entries of the base's, which are both filled in pop order.
    """
    prefix = list(islice(base.schedule, k))
    timeline.reserve_many(
        [(p.processors, p.start, p.finish) for p in prefix],
        [(p.name, i) for i, p in enumerate(prefix)],
    )
    for placement in prefix:
        schedule.place(placement)
    comm = schedule.edge_comm_times
    comm.update(
        takewhile(
            lambda item: item[0][1] in schedule,
            base.schedule.edge_comm_times.items(),
        )
    )
    pseudo_edges.extend(
        takewhile(lambda pair: pair[1] in schedule, base.pseudo_edges)
    )
    if not tracer.enabled:
        return
    # the same events, in the same order, as placing the prefix one by one
    blockers: Dict[str, List[str]] = {}
    for src, dst in pseudo_edges:
        blockers.setdefault(dst, []).append(src)
    for placement in prefix:
        tp = placement.name
        _announce_placement(tracer, placement)
        if tp not in blockers:
            continue
        # est(tp), as _place_task computes it
        inbound = [(u, schedule[u].finish) for u in inv.preds[tp]]
        if context is not None:
            inbound += [
                (f"__ext__{ext.label}", ext.ready_time)
                for ext in context.inputs_for(tp)
            ]
        est_tp = max((ft + comm[(u, tp)] for u, ft in inbound), default=0.0)
        for src in blockers[tp]:
            tracer.event(
                "pseudo_edge_added",
                src=src,
                dst=tp,
                wait=placement.start - est_tp,
            )


def _announce_placement(tracer: Tracer, placement: PlacedTask) -> None:
    """The ``task_placed`` trace event of one placement."""
    tracer.event(
        "task_placed",
        task=placement.name,
        start=placement.start,
        exec_start=placement.exec_start,
        finish=placement.finish,
        width=placement.width,
        processors=list(placement.processors),
    )


def splice_schedule(
    graph: TaskGraph,
    cluster: Cluster,
    allocation: Mapping[str, int],
    timeline: ProcessorTimeline,
    *,
    release_floor: float = 0.0,
    options: LocbsOptions = LocbsOptions(),
    cost_cache: Optional[CostCache] = None,
) -> List[PlacedTask]:
    """Place *graph* into a **live** chart, mutating *timeline* in place.

    The online daemon's incremental hot path is the same pass as
    :func:`locbs_schedule`, run on the caller's chart instead of an empty
    one: an arriving job is spliced around every committed placement,
    probing only ``release_floor`` (its submission time) and the release
    times after it, so the per-event cost scales with the job and the
    chart's *open* holes, not with the accumulated history.

    Determinism contract: the produced placements are a pure function of
    the chart's *content* (the timeline's sorted structures are
    insertion-order independent), the graph, the allocation vector, and
    ``release_floor`` — which is what lets the cold-rebuild differential
    arm replay the same splices from an empty machine and demand
    bit-identical results (``tests/test_online_daemon.py``).

    *cost_cache* (optional) is the cross-event memo — cached values are
    exact, so sharing it never changes the schedule. Returns the
    placements in commit order (no schedule-DAG); task names must not
    collide with tasks already on the chart (the daemon namespaces them
    per job).
    """
    return list(_locbs_pass(
        graph, cluster, allocation, timeline, options,
        SchedulingContext(release_floor=release_floor), NULL_TRACER,
        cost_cache, None, None, None, pairs=False,
    )[0])


def _place_task(
    tp: str,
    np_t: int,
    inv: GraphInvariants,
    cluster: Cluster,
    cache: CostCache,
    timeline: ProcessorTimeline,
    schedule: Schedule,
    options: LocbsOptions,
    context: Optional["SchedulingContext"],
    tracer: Tracer,
    provenance: Optional[ProvenanceRecorder],
) -> Tuple[PlacedTask, Dict[Tuple[str, str], float], float]:
    """Find the minimum-finish-time hole for *tp* (Algorithm 2, steps 5-16).

    *np_t* is *tp*'s width; its parents, their edge volumes and its
    profile come from the cached graph invariants *inv*. *cache* prices
    the transfers and receives the probe counters in its ``stats``.

    Builds the parent info and the candidate ladder, runs the one hole
    scan (:func:`_scan_batch`) and turns its winner into the placement.
    Tracing and *provenance* observe that same scan: recording attaches
    its per-probe sink, whose raw records are frozen into
    :class:`~repro.schedulers.provenance.CandidateProbe` objects here, and
    ``backfill_hit`` reads the winning probe's hole horizons.

    Returns the placement, the actual per-in-edge communication times, and
    ``est(tp)`` (the data-ready lower bound used for pseudo-edge detection).
    """
    et = inv.profiles[tp]._time(np_t)
    volumes = inv.volumes
    parent_info: List[Tuple[str, Tuple[int, ...], float, float]] = []
    for u in inv.preds[tp]:
        pu = schedule[u]
        volume = 0.0 if options.comm_blind else volumes[(u, tp)]
        parent_info.append((u, pu.processors, pu.finish, volume))
    if context is not None:
        for ext in context.inputs_for(tp):
            volume = 0.0 if options.comm_blind else ext.volume
            parent_info.append(
                (f"__ext__{ext.label}", ext.processors, ext.ready_time, volume)
            )

    ready_base = max((ft for _, _, ft, _ in parent_info), default=0.0)
    if context is not None and context.release_floor > ready_base:
        # An online arrival cannot be backfilled before its submission
        # time, even into holes the chart still has there (floor 0.0 for
        # every offline caller, so this clamp is a no-op off the daemon).
        ready_base = context.release_floor

    # Per-processor locality score: bytes of tp's input already resident.
    # Sparse: empty when the task has no incoming data (CCR=0, comm-blind),
    # which lets the subset selection skip locality ranking entirely.
    locality: Dict[int, float] = {}
    if not options.locality_blind:
        for _, procs, _, volume in parent_info:
            if volume > 0:
                share = volume / len(procs)
                for p in procs:
                    locality[p] = locality.get(p, 0.0) + share

    recording = provenance is not None
    candidates: Iterable[float]
    eats: Optional[List[Tuple[float, int]]] = None
    if options.backfill:
        # Only busy-interval *ends* can enlarge the idle set, so they (plus
        # the data-ready time) are the only start times worth probing.
        # Generated lazily: the ``tau + et`` break usually closes the
        # ladder within a few probes, so the tail is never materialized;
        # the count (one bisect) still tells the telemetry how much the
        # break pruned.
        ladder_total = 1 + timeline.release_count_after(ready_base)
        candidates = chain(
            (ready_base,), timeline.release_times_after(ready_base)
        )
    else:
        # the data-ready time plus every later earliest-available time:
        # the ladder the reference scan probes
        eats = sorted(
            (timeline.earliest_available(p), p) for p in cluster.processors
        )
        candidates = sorted(
            {ready_base} | {e for e, _ in eats if e > ready_base + EPS}
        )
        ladder_total = len(candidates)

    # Raw (tau, procs, start, exec_start, finish, tag) tuples from the
    # scan, frozen into CandidateProbes below once the winner (and hence
    # every loser's margin) is known.
    probes: Optional[List[_Probe]] = [] if recording else None
    best, holes, considered, pruned = _scan_batch(
        candidates, np_t, et, parent_info, locality, cache, timeline,
        cluster.overlap, eats, probes,
    )
    if best is None:
        # Unreachable: the final candidate (the chart horizon) always has all
        # processors free forever. Guard anyway.
        raise ScheduleError(f"no feasible slot found for task {tp!r}")
    if not recording:
        # Hot-path telemetry only: the recording (explain) re-run probes
        # past the break on purpose and must not skew the prune rates.
        stats = cache.stats
        stats["probes_considered"] += considered
        stats["probes_bound_pruned"] += ladder_total - considered

    finish, start, exec_start, chosen = best
    placement = PlacedTask(
        name=tp, start=start, exec_start=exec_start, finish=finish, processors=chosen
    )
    comm_times = {
        (u, tp): cache.transfer_time(procs, chosen, volume)
        for u, procs, _, volume in parent_info
    }
    est_tp = max(
        (ft + comm_times[(u, tp)] for u, _, ft, _ in parent_info),
        default=0.0,
    )
    if probes is not None:
        # the last probe that improved the incumbent is the placement
        winner_probe = max(i for i, pr in enumerate(probes) if pr[5] is WON)
        cands: List[CandidateProbe] = []
        for i, (c_tau, procs, c_start, c_exec, c_finish, tag) in enumerate(
            probes
        ):
            if tag is WON or tag is LOST:  # feasible: won or lost on finish
                won = i == winner_probe
                outcome = WON if won else LOST
                margin = 0.0 if won else max(0.0, c_finish - finish)
            else:
                outcome, margin = tag, math.inf
            comm = (
                sum(
                    cache.transfer_time(pp, procs, vol)
                    for _, pp, _, vol in parent_info
                )
                if procs
                else 0.0
            )
            cands.append(
                CandidateProbe(
                    tau=c_tau,
                    processors=procs,
                    start=c_start,
                    exec_start=c_exec,
                    finish=c_finish,
                    resident_bytes=sum(locality.get(p, 0.0) for p in procs),
                    comm_time=comm,
                    outcome=outcome,
                    margin=margin,
                )
            )
        provenance.record(
            PlacementDecision(
                task=tp,
                width=np_t,
                ready_time=ready_base,
                candidates=cands,
                winner=winner_probe,
                pruned=pruned,
            )
        )
    if tracer.enabled:
        # a backfill proper: at least one chosen processor has a later
        # reservation bounding the hole the placement went into
        horizons = dict(holes)
        if any(math.isfinite(horizons.get(p, math.inf)) for p in chosen):
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


def _scan_batch(
    candidates: Iterable[float],
    np_t: int,
    et: float,
    parent_info: Sequence[Tuple[str, Tuple[int, ...], float, float]],
    locality: Mapping[int, float],
    cache: CostCache,
    timeline: ProcessorTimeline,
    overlap: bool,
    eats: Optional[Sequence[Tuple[float, int]]] = None,
    sink: Optional[List[_Probe]] = None,
) -> Tuple[
    Optional[Tuple[float, float, float, Tuple[int, ...]]],
    Sequence[Tuple[int, float]],
    int,
    int,
]:
    """The hole scan of Algorithm 2, restructured around the array chart.

    The seed scan (frozen in :func:`repro.perf.reference._place_task_naive`)
    classifies the whole machine at every candidate start time and ranks
    all idle processors. This version splits that work by how often each
    part actually decides anything:

    * **Subset selection** — the scalar key ``(-locality, -horizon, proc)``
      ranks whole *locality groups* before individual horizons ever matter.
      Walking the (few, small) groups in descending share order and probing
      only their members — one ``bisect`` per member — reproduces the full
      ranking whenever the groups alone cover the allocation; horizons
      break ties inside the one group that straddles the cut. Only when
      zero-locality processors are needed does the scan fall back to the
      full classification plus :func:`_pick_by_locality` (identical keys).
    * **Timing** — trial timings depend on the chosen subset, not the
      probe time, so they are memoized per subset; the arithmetic is the
      same scalar float operations as :func:`_time_placement` (transfer
      sums in parent order, comparison-based maxima), keeping the two
      paths bit-identical (differentially tested in
      ``tests/test_array_equivalence.py``).
    * **Classification** — when a full idle classification is unavoidable,
      it is one :meth:`ProcessorTimeline.idle_with_horizon` query (one
      ``bisect_right`` per row). Advancing an incremental
      :class:`~repro.schedule.IdleSweep` between probes measured slower:
      its heap pops cost more than the row bisects they save. Consumers of
      the idle list are order-insensitive: the ranking key ends in the
      processor id and *holes* is read as a dict.

    The sequential semantics are preserved exactly: candidates are
    consumed in ascending order, the ``tau + et >= best_finish - EPS``
    break stops the scan at a probe no later start could win, and
    infeasible locality picks run the scalar roomy retry verbatim.

    *eats* switches the scan to the no-backfill ablation: the sorted
    ``(earliest available time, proc)`` pairs of every processor. A
    processor is then free at ``tau`` only if its earliest-available time
    is ``<= tau + EPS``, with an infinite horizon; the locality-group walk
    and the busy-count skip, which read the chart's holes, stay off.

    *sink* (recording mode, for provenance) receives one
    ``(tau, procs, start, exec_start, finish, tag)`` tuple per probe:
    ``TOO_FEW_FREE`` when too few processors are free, ``HOLE_TOO_SHORT``
    when the roomy retry fails, ``WON`` when a feasible probe improves the
    incumbent and ``LOST`` otherwise. The ``tau + et`` break is then off:
    the probes past it are scanned anyway and counted as pruned, so the
    losers carry true margins.

    Returns ``(best, holes, considered, pruned)``: *holes* holds the
    ``(proc, horizon)`` pairs of the winning probe (covering the chosen
    processors), *considered* the probes the scan entered, *pruned* the
    probes scanned past the break (always 0 without a sink); the caller
    derives break-pruned probes from the ladder length (lazily generated
    candidates are never materialized here).
    """
    P = len(timeline.processors)
    row_of = timeline._row
    counts = timeline._counts
    starts_l = timeline._starts_l
    ends_l = timeline._ends_l
    all_starts = timeline._all_starts
    all_ends = timeline._all_ends
    counts_ok = timeline.counts_exact and eats is None

    # Locality groups: shares descending, members ascending. Equal-share
    # processors are common (a one-parent task spreads volume/width evenly),
    # so groups are few and the descending walk mirrors the sort key. Rows
    # are resolved once here — the walk re-probes every member per probe.
    groups: List[List[Tuple[int, int]]] = []
    if locality and eats is None:
        by_val: Dict[float, List[int]] = {}
        for p, v in locality.items():
            by_val.setdefault(v, []).append(p)
        groups = [
            [(p, row_of[p]) for p in sorted(by_val[v])]
            for v in sorted(by_val, reverse=True)
        ]

    if eats is None:
        #: every probe that needs the full idle set asks the chart once
        classify = timeline.idle_with_horizon
    else:
        eat_keys = [e for e, _ in eats]

        def classify(tau: float) -> List[Tuple[int, float]]:
            k = bisect_right(eat_keys, tau + EPS)
            return [(p, math.inf) for _, p in eats[:k]]

    best: Optional[Tuple[float, float, float, Tuple[int, ...]]] = None
    holes: Sequence[Tuple[int, float]] = ()
    considered = 0
    pruned = 0
    #: chosen subset -> data-ready max (overlap) / comm sum (non-overlap)
    timing_memo: Dict[Tuple[int, ...], float] = {}
    #: keep walking the locality groups only while the walk keeps covering
    #: the allocation — it succeeds at uncontended probes (parents just
    #: released their processors) and reliably fails at contended ones,
    #: where its member probes would just duplicate the classification
    try_groups = bool(groups)
    for tau in candidates:
        # no placement at (or after) tau can finish before tau + et, so
        # the ladder is closed
        if best is not None and tau + et >= best[0] - EPS:
            if sink is None:
                break
            pruned += 1
        considered += 1
        tol = tau + EPS
        if counts_ok and not try_groups:
            # Global busy-count identity: two binary searches skip start
            # times with too few idle processors before any row is probed.
            busy = bisect_right(all_starts, tol) - bisect_right(all_ends, tol)
            if P - busy < np_t:
                if sink is not None:
                    sink.append(_too_few_free(tau))
                continue
        free: Optional[List[Tuple[int, float]]] = None
        # -- subset selection -------------------------------------------------
        need = np_t
        chosen_ph: List[Tuple[int, float]] = []
        if try_groups:
            for group in groups:
                gf: List[Tuple[int, float]] = []
                for p, r in group:
                    el = ends_l[r]
                    idx = bisect_right(el, tol)
                    if idx == counts[r]:
                        gf.append((p, math.inf))
                    else:
                        nxt = starts_l[r][idx]
                        if nxt > tol:
                            gf.append((p, nxt))
                if len(gf) <= need:
                    # the whole group ranks ahead of everything below it
                    chosen_ph.extend(gf)
                    need -= len(gf)
                    if need == 0:
                        break
                else:
                    # the cut falls inside this group: ties break on
                    # (-horizon, proc), exactly the scalar key's tail
                    gf.sort(key=_hp_key)
                    chosen_ph.extend(gf[:need])
                    need = 0
                    break
            if need:
                try_groups = False
        fast = need == 0
        if fast:
            chosen = tuple(sorted(p for p, _ in chosen_ph))
        else:
            # zero-locality processors are needed: full classification and
            # the scalar ranking (identical keys, so identical choice)
            free = classify(tau)
            if len(free) < np_t:
                if sink is not None:
                    sink.append(_too_few_free(tau))
                continue
            chosen = _pick_by_locality(free, np_t, locality)
        # -- trial timing (memoized per subset; scalar float ops) -------------
        known = timing_memo.get(chosen)
        if overlap:
            if known is None:
                known = -math.inf
                for _, pprocs, ft, volume in parent_info:
                    arrival = ft + cache.transfer_time(pprocs, chosen, volume)
                    if arrival > known:
                        known = arrival
                timing_memo[chosen] = known
            # max(tau, data_ready) via the same comparison as
            # _time_placement (data_ready starts at tau there)
            start = known if known > tau else tau
            exec_start = start
            finish = exec_start + et
        else:
            if known is None:
                known = 0.0
                for _, pprocs, _, volume in parent_info:
                    known += cache.transfer_time(pprocs, chosen, volume)
                timing_memo[chosen] = known
            # every candidate is >= ready_base = max parent finish, so
            # _time_placement's ready-maximum always resolves to tau itself
            start = tau
            exec_start = start + known
            finish = exec_start + et
        # -- feasibility -------------------------------------------------------
        if fast and start == tau:
            # starting inside the probed hole: feasibility is exactly
            # "every chosen horizon covers the window"
            fits = True
            lim = finish - EPS
            for _, h in chosen_ph:
                if h < lim:
                    fits = False
                    break
        else:
            fits = timeline.is_free(chosen, start, finish)
        if not fits:
            # scalar roomy retry, verbatim on this probe's idle pairs
            if free is None:
                free = classify(tau)
            roomy = [ph for ph in free if ph[1] >= finish - EPS]
            if len(roomy) < np_t:
                if sink is not None:
                    sink.append(
                        (tau, chosen, start, exec_start, finish, HOLE_TOO_SHORT)
                    )
                continue
            chosen = _pick_by_locality(roomy, np_t, locality)
            start, exec_start, finish = _time_placement(
                chosen, tau, et, parent_info, cache, overlap
            )
            if not timeline.is_free(chosen, start, finish):
                if sink is not None:
                    sink.append(
                        (tau, chosen, start, exec_start, finish, HOLE_TOO_SHORT)
                    )
                continue
        if best is None or finish < best[0] - EPS:
            best = (finish, start, exec_start, chosen)
            holes = chosen_ph if free is None else free
            if sink is not None:
                sink.append((tau, chosen, start, exec_start, finish, WON))
            continue
        if sink is not None:
            sink.append((tau, chosen, start, exec_start, finish, LOST))
    return best, holes, considered, pruned


def _too_few_free(tau: float) -> _Probe:
    """The sink record of a probe with fewer free processors than needed."""
    return (tau, (), math.inf, math.inf, math.inf, TOO_FEW_FREE)


def _hp_key(ph: Tuple[int, float]) -> Tuple[float, int]:
    """``(-horizon, proc)`` — the within-group tie-break of the scalar key."""
    return (-ph[1], ph[0])


def _pick_by_locality(
    free: Sequence[Tuple[int, float]],
    np_t: int,
    locality: Mapping[int, float],
) -> Tuple[int, ...]:
    """Choose ``np_t`` processors from *free* with maximum resident data.

    *free* holds ``(processor, next_busy_start)`` pairs. Ties prefer
    processors that stay idle longer (they are less likely to make the
    window infeasible), then lower indices for determinism. The returned
    tuple is sorted ascending: processor-set order defines the block-cyclic
    layout, and a canonical order makes any producer/consumer pair with
    identical sets perfectly local.
    """
    if len(free) == np_t:
        return tuple(sorted(ph[0] for ph in free))
    # Decorate-sort-slice: the decoration tuples are exactly the ranking
    # keys (with the unique processor index last, so ordering is total and
    # input-order independent), making this equivalent to
    # ``heapq.nsmallest(np_t, free, key=...)`` — but with the comparison
    # and selection work done by the C-level tuple sort instead of a
    # Python-level heap with a lambda key.
    if locality:
        get = locality.get
        ranked = sorted((-get(p, 0.0), -h, p) for p, h in free)
    else:
        # CCR=0 / comm-blind fast path: no resident data anywhere, rank by
        # idle horizon only.
        ranked = sorted((-h, p) for p, h in free)
    return tuple(sorted(r[-1] for r in ranked[:np_t]))


def _time_placement(
    chosen: Tuple[int, ...],
    tau: float,
    et: float,
    parent_info: Sequence[Tuple[str, Tuple[int, ...], float, float]],
    cache: CostCache,
    overlap: bool,
) -> Tuple[float, float, float]:
    """``(start, exec_start, finish)`` of placing the task at hole start *tau*.

    With overlap, redistribution only delays the computation start; without,
    it serializes on the destination processors ahead of the computation.
    """
    if overlap:
        data_ready = tau
        for _, procs, ft, volume in parent_info:
            arrival = ft + cache.transfer_time(procs, chosen, volume)
            if arrival > data_ready:
                data_ready = arrival
        exec_start = max(tau, data_ready)
        return exec_start, exec_start, exec_start + et
    comm = 0.0
    ready = tau
    for _, procs, ft, volume in parent_info:
        comm += cache.transfer_time(procs, chosen, volume)
        if ft > ready:
            ready = ft
    start = max(tau, ready)
    exec_start = start + comm
    return start, exec_start, exec_start + et
