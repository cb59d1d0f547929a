"""LoC-MPS — Locality Conscious Mixed Parallel Scheduling (Algorithm 1).

The outer allocation loop of the paper:

* start from the pure task-parallel allocation (one processor per task) and
  its LoCBS schedule;
* in each look-ahead step, decide whether computation or communication
  dominates the schedule-DAG's critical path and grow either the *best
  candidate task* (largest execution-time gain filtered to the top 10%,
  then minimum concurrency ratio) or the heaviest CP edge's narrower
  endpoint;
* explore up to ``look_ahead_depth`` consecutive increments even if the
  makespan temporarily worsens (escaping local minima such as the paper's
  Fig 3 example);
* if a look-ahead that *entered* through a given task/edge fails to improve
  on the committed best, mark that entry as a bad starting point; a
  successful look-ahead commits the best allocation found and clears all
  marks;
* stop when every critical-path task and edge is marked or saturated.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Set, Tuple, Union

from repro.cluster import Cluster
from repro.exceptions import ScheduleError
from repro.graph import TaskGraph, concurrency_ratio
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.schedulers.base import Scheduler, SchedulingResult
from repro.schedulers.context import SchedulingContext
from repro.schedulers.costcache import CostCache
from repro.schedulers.locbs import LocbsOptions, locbs_schedule
from repro.schedulers.provenance import ProvenanceRecorder

__all__ = ["LocMpsScheduler"]

#: strict-improvement slack: a makespan must beat the incumbent by more than
#: this relative margin to count as better (prevents float-noise commits)
_IMPROVE_RTOL = 1e-9

#: tolerance for treating two critical-path edge weights as tied during
#: candidate selection (near-equal weights fall back to the lexicographic
#: tie-break instead of whichever float noise made infinitesimally larger)
_TIE_RTOL = 1e-9
_TIE_ATOL = 1e-12

EntryPoint = Union[str, Tuple[str, str]]  # a task name or an edge


class LocMpsScheduler(Scheduler):
    """The paper's contribution: integrated allocation + LoCBS scheduling.

    Parameters
    ----------
    look_ahead_depth:
        Bounded look-ahead length; the paper found 20 effective.
    top_fraction:
        Fraction of the gain-sorted critical-path tasks inspected for the
        minimum concurrency ratio (paper: top 10%).
    backfill:
        ``False`` switches LoCBS to its cheaper no-backfill variant (the
        paper's Fig 6 ablation).
    comm_blind:
        Ignore communication volumes during allocation *and* scheduling.
        Used by the iCASLB baseline; leave ``False`` for LoC-MPS proper.
    max_outer_iterations:
        Safety valve for the outer repeat-until loop; ``None`` derives a
        generous bound from the graph size.
    locality_blind:
        Ablation switch: LoCBS stops preferring processors that already
        hold a task's inputs (costs are still charged with full locality
        awareness). Quantifies the paper's headline idea.
    edge_growth:
        How a dominating communication edge grows its narrower endpoint:
        ``"align"`` (default) raises it to the wider endpoint's width in
        one step — under the exact block-cyclic model the intermediate
        mismatched widths are often strictly worse, so this lands directly
        on the alignment the paper's walk aims for; ``"increment"`` is the
        paper's literal one-processor step (ablation).
    context:
        Optional :class:`~repro.schedulers.context.SchedulingContext`
        carried into every LoCBS pass: per-processor ready times and
        external inputs (the on-line rescheduler's pinned history) and
        ``release_floor``, the absolute lower bound on task starts that
        the online daemon sets to a deferred job's replan time so no
        spliced task can start before the moment it was admitted.
    memo_limit:
        Upper bound on the number of memoized LoCBS results kept alive
        during one :meth:`run` (FIFO eviction). ``None`` (default) keeps
        every result — fine for one-shot scheduling, but deep look-aheads
        on large graphs and long on-line rescheduling sessions can pin an
        unbounded number of full :class:`SchedulingResult` objects; set a
        limit to cap peak memory at the cost of re-scheduling evicted
        allocations. Cumulative hit/miss/eviction statistics are exposed
        on :attr:`memo_stats` and as ``memo_hit``/``memo_miss`` trace
        events.
    cost_cache_limit:
        Upper bound on the run-scoped :class:`CostCache`'s concrete
        transfer-time memo (cleared wholesale when full). ``None``
        (default) keeps every timed ``(src, dst, volume)`` triple for the
        whole run. Cumulative hit/miss statistics are exposed on
        :attr:`cost_cache_stats` and as ``cost_cache_*`` gauges when
        tracing. Caching never changes the produced schedule.
    initial_allocation:
        Optional warm-start allocation vector (``{task name: width}``),
        typically the committed allocation of a cached near-neighbor
        graph (see :mod:`repro.cache`). The walk still evaluates the
        paper's all-ones seed first; the warm vector (clamped to
        ``[1, P]``, unknown tasks ignored, missing tasks defaulting to
        one processor) is adopted as the starting point **only if its
        LoCBS makespan strictly beats the all-ones schedule** — when it
        does not, the run is bit-identical to a cold one (the rejected
        vector leaves nothing behind but a memo entry). Adoption
        telemetry lands in :attr:`warm_start_stats` and, when tracing,
        in ``cache_warm_start`` events.
    tracer:
        Optional :class:`repro.obs.Tracer` recording the outer allocation
        loop (``outer_iteration``, ``lookahead_step``,
        ``candidate_selected``, ``memo_*``) and, threaded through LoCBS,
        every placement decision. Defaults to the shared no-op tracer.
    explain:
        ``True`` re-runs LoCBS once on the *committed* allocation after
        the outer loop converges, with a
        :class:`~repro.schedulers.provenance.ProvenanceRecorder`
        attached: :attr:`provenance` then holds one decision record per
        placed task of the returned schedule (candidate holes, trial
        timings, why the losers lost), and an attached tracer receives a
        ``placement_decision`` event per task. LoCBS is deterministic per
        allocation vector, so the explaining pass — always a cold pass —
        reproduces the committed schedule exactly; any placement or
        transfer time that differs raises
        :class:`~repro.exceptions.ScheduleError`. The search itself runs
        unrecorded and bit-identical to ``explain=False``.
    """

    name = "locmps"

    def __init__(
        self,
        *,
        look_ahead_depth: int = 20,
        top_fraction: float = 0.1,
        backfill: bool = True,
        comm_blind: bool = False,
        max_outer_iterations: Optional[int] = None,
        locality_blind: bool = False,
        edge_growth: str = "align",
        context: Optional["SchedulingContext"] = None,
        memo_limit: Optional[int] = None,
        cost_cache_limit: Optional[int] = None,
        initial_allocation: Optional[Mapping[str, int]] = None,
        tracer: Optional[Tracer] = None,
        explain: bool = False,
    ) -> None:
        if look_ahead_depth < 1:
            raise ValueError(f"look_ahead_depth must be >= 1, got {look_ahead_depth}")
        if not (0.0 < top_fraction <= 1.0):
            raise ValueError(f"top_fraction must be in (0, 1], got {top_fraction}")
        if edge_growth not in ("align", "increment"):
            raise ValueError(
                f"edge_growth must be 'align' or 'increment', got {edge_growth!r}"
            )
        if memo_limit is not None and memo_limit < 1:
            raise ValueError(f"memo_limit must be >= 1 or None, got {memo_limit}")
        if cost_cache_limit is not None and cost_cache_limit < 1:
            raise ValueError(
                f"cost_cache_limit must be >= 1 or None, got {cost_cache_limit}"
            )
        self.look_ahead_depth = look_ahead_depth
        self.top_fraction = top_fraction
        self.backfill = backfill
        self.comm_blind = comm_blind
        self.max_outer_iterations = max_outer_iterations
        self.locality_blind = locality_blind
        self.edge_growth = edge_growth
        #: pinned machine/data state for on-line rescheduling (fixed for
        #: the lifetime of the instance, so the allocation memo stays valid)
        self.context = context
        self.memo_limit = memo_limit
        self.cost_cache_limit = cost_cache_limit
        #: optional warm-start vector; only adopted when strictly profitable
        self.initial_allocation = (
            dict(initial_allocation) if initial_allocation is not None else None
        )
        self.tracer = tracer or NULL_TRACER
        self.explain = explain
        #: decision provenance of the last run()'s committed schedule
        #: (None until a run with ``explain=True`` completes)
        self.provenance: Optional[ProvenanceRecorder] = None
        #: cumulative allocation-memo telemetry across every run() of this
        #: instance: hits, misses, evictions, peak_size, last run's size,
        #: and the placements the LoCBS passes behind the misses copied
        #: from their base pass (placements_reused) or hole-scanned
        #: (placements_scanned)
        self.memo_stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "evictions": 0, "peak_size": 0, "size": 0,
            "placements_reused": 0, "placements_scanned": 0,
        }
        #: cumulative cost-cache telemetry across every run() (hits/misses
        #: of the edge-estimate / concrete-transfer / graph memos, plus the
        #: hole-scan probe-ladder pruning counters)
        self.cost_cache_stats: Dict[str, int] = dict.fromkeys(
            CostCache.STAT_KEYS, 0
        )
        #: cumulative warm-start telemetry across every run(): seeds
        #: attempted, adopted (beat all-ones), rejected (fell back cold)
        self.warm_start_stats: Dict[str, int] = {
            "attempted": 0, "adopted": 0, "rejected": 0,
        }
        #: the run-scoped cost cache while run() is active (None otherwise);
        #: _schedule threads it into every look-ahead LoCBS call
        self._cost_cache: Optional[CostCache] = None
        if not backfill:
            self.name = "locmps-nobackfill"

    # -- scheduling engine -------------------------------------------------------

    def _schedule(
        self,
        graph: TaskGraph,
        cluster: Cluster,
        alloc: Mapping[str, int],
        provenance: Optional[ProvenanceRecorder] = None,
        base: Optional[SchedulingResult] = None,
    ) -> SchedulingResult:
        options = LocbsOptions(
            backfill=self.backfill,
            comm_blind=self.comm_blind,
            locality_blind=self.locality_blind,
        )
        return locbs_schedule(
            graph, cluster, alloc, options,
            context=self.context, tracer=self.tracer,
            cost_cache=self._cost_cache,
            provenance=provenance, base=base,
        )

    # -- candidate selection -------------------------------------------------------

    def _select_task(
        self,
        cp: List[str],
        graph: TaskGraph,
        alloc: Dict[str, int],
        limits: Mapping[str, int],
        cr: Mapping[str, float],
        banned: FrozenSet[Hashable],
    ) -> Optional[str]:
        """Best candidate task per Section III-C.

        Eligible CP tasks are ranked by execution-time gain; among the top
        ``top_fraction`` the minimum concurrency ratio wins.
        """
        eligible = [
            t
            for t in dict.fromkeys(cp)  # dedupe, preserve order
            if alloc[t] < limits[t] and t not in banned
        ]
        eligible = [
            t for t in eligible if graph.task(t).profile.gain(alloc[t]) > 0
        ]
        if not eligible:
            return None
        eligible.sort(
            key=lambda t: (-graph.task(t).profile.gain(alloc[t]), t)
        )
        k = max(1, math.ceil(self.top_fraction * len(eligible)))
        top = eligible[:k]
        return min(top, key=lambda t: (cr[t], t))

    def _select_edge(
        self,
        result: SchedulingResult,
        cp: List[str],
        cluster: Cluster,
        alloc: Dict[str, int],
        banned: FrozenSet[Hashable],
    ) -> Optional[Tuple[str, str]]:
        """Heaviest unmarked growable real edge on the critical path.

        Deliberately *not* constrained by the per-task ``pbest`` width
        limits that gate :meth:`_select_task`: the paper grows a
        dominating edge's endpoint purely to raise the aggregate transfer
        bandwidth ``min(np_s, np_d) * bw``, even past the width where the
        endpoint's own execution time stops improving. The only cap is
        the machine size ``P``.
        """
        P = cluster.num_processors
        best: Optional[Tuple[float, str, str]] = None
        for u, v, w in result.sdag.real_edges_on_path(cp):
            if w <= 0 or (u, v) in banned:
                continue
            if alloc[u] >= P and alloc[v] >= P:
                continue
            # Growing an endpoint only helps if it raises min(np_u, np_v) or
            # improves locality potential; the paper grows regardless, capped
            # only by P, so mirror that.
            if best is None:
                best = (w, u, v)
            elif math.isclose(w, best[0], rel_tol=_TIE_RTOL, abs_tol=_TIE_ATOL):
                if (u, v) < best[1:]:
                    best = (max(w, best[0]), u, v)
            elif w > best[0]:
                best = (w, u, v)
        if best is None:
            return None
        return best[1], best[2]

    def _static_tables(
        self, graph: TaskGraph, cluster: Cluster
    ) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per-task concurrency ratios and width limits (fixed per run)."""
        P = cluster.num_processors
        g = graph.nx_graph()
        cr = {
            t: concurrency_ratio(g, t, graph.sequential_time)
            for t in graph.tasks()
        }
        limits = {
            t: min(P, graph.task(t).profile.pbest(P)) for t in graph.tasks()
        }
        return cr, limits

    def _next_candidate(
        self,
        cur_result: SchedulingResult,
        graph: TaskGraph,
        cluster: Cluster,
        alloc: Dict[str, int],
        limits: Mapping[str, int],
        cr: Mapping[str, float],
        banned: FrozenSet[Hashable],
    ) -> Tuple[Optional[EntryPoint], str]:
        """One look-ahead selection step: the candidate and what dominated.

        Encapsulates the computation-vs-communication branch of
        Algorithm 1. Returns ``(candidate, "comp" | "comm")``; the
        candidate is
        ``None`` when every critical-path task and edge is banned or
        saturated.
        """
        _cp_len, cp = cur_result.sdag.critical_path()
        tcomp, tcomm = cur_result.sdag.path_costs(cp)
        if tcomp >= tcomm:
            candidate: Optional[EntryPoint] = self._select_task(
                cp, graph, alloc, limits, cr, banned
            )
            if candidate is None:
                candidate = self._select_edge(
                    cur_result, cp, cluster, alloc, banned
                )
        else:
            candidate = self._select_edge(cur_result, cp, cluster, alloc, banned)
            if candidate is None:
                candidate = self._select_task(
                    cp, graph, alloc, limits, cr, banned
                )
        return candidate, ("comp" if tcomp >= tcomm else "comm")

    def _apply_growth(
        self, candidate: EntryPoint, alloc: Dict[str, int], P: int
    ) -> None:
        """Grow *alloc* for a selected candidate (task +1 or edge growth)."""
        if isinstance(candidate, str):
            alloc[candidate] += 1
        else:
            self._grow_edge(candidate, alloc, P)

    def _grow_edge(
        self, edge: Tuple[str, str], alloc: Dict[str, int], P: int
    ) -> None:
        """Grow the narrower endpoint of *edge* (both +1 when equal).

        The paper increments the narrower endpoint by one to raise the
        aggregate bandwidth ``min(np_s, np_d) * bw``. Under the exact
        block-cyclic redistribution model, intermediate mismatched widths
        (e.g. 9 vs 16) can be strictly *worse* than the aligned ones, so by
        default (``edge_growth="align"``) the narrower endpoint is raised
        directly to the wider endpoint's width — one look-ahead step lands
        on the alignment the increment walk is aiming for.
        ``edge_growth="increment"`` keeps the paper's literal single-step
        walk (the ablation benchmark compares the two). With equal widths
        both endpoints grow by one, exactly as in the paper.
        """
        ts, td = edge
        if alloc[ts] > alloc[td]:
            if self.edge_growth == "align":
                alloc[td] = min(P, alloc[ts])
            elif alloc[td] < P:
                alloc[td] += 1
        elif alloc[ts] < alloc[td]:
            if self.edge_growth == "align":
                alloc[ts] = min(P, alloc[td])
            elif alloc[ts] < P:
                alloc[ts] += 1
        else:
            if alloc[td] < P:
                alloc[td] += 1
            if alloc[ts] < P:
                alloc[ts] += 1

    # -- main loop ---------------------------------------------------------------

    def run(self, graph: TaskGraph, cluster: Cluster) -> SchedulingResult:
        P = cluster.num_processors
        tasks = graph.tasks()
        if not tasks:
            raise ScheduleError("cannot schedule an empty task graph")

        # Static per-task data reused every iteration.
        cr, limits = self._static_tables(graph, cluster)

        # Look-aheads restarted from the committed best allocation re-walk
        # their first increments repeatedly; LoCBS is deterministic in the
        # allocation, so memoize results by allocation vector. The memo is
        # per-run (keys are only unique for one graph/cluster pair);
        # ``memo_limit`` bounds how many full results it may pin at once.
        memo: Dict[Tuple[int, ...], SchedulingResult] = {}
        tracer = self.tracer
        stats = self.memo_stats

        def schedule_for(
            alloc: Mapping[str, int], base: Optional[SchedulingResult] = None
        ) -> SchedulingResult:
            key = tuple(alloc[t] for t in tasks)
            result = memo.get(key)
            if result is not None:
                stats["hits"] += 1
                if tracer.enabled:
                    tracer.event("memo_hit", size=len(memo))
                return result
            stats["misses"] += 1
            if tracer.enabled:
                tracer.event("memo_miss", size=len(memo))
            if tracer.enabled:
                with tracer.span("locbs_schedule"):
                    result = self._schedule(graph, cluster, alloc, base=base)
            else:
                result = self._schedule(graph, cluster, alloc, base=base)
            stats["placements_reused"] += result.placements_reused
            stats["placements_scanned"] += (
                len(result.schedule) - result.placements_reused
            )
            if self.memo_limit is not None and len(memo) >= self.memo_limit:
                del memo[next(iter(memo))]  # FIFO: oldest allocation first
                stats["evictions"] += 1
                if tracer.enabled:
                    tracer.event("memo_evicted", size=len(memo))
            memo[key] = result
            stats["peak_size"] = max(stats["peak_size"], len(memo))
            stats["size"] = len(memo)
            return result

        # Each look-ahead step grows one or two tasks, so nearly every
        # allocation-time edge estimate and every concrete transfer timing
        # carries over between LoCBS calls: one run-scoped cost cache
        # serves them all (see :mod:`repro.schedulers.costcache`).
        cache = CostCache(cluster, transfer_limit=self.cost_cache_limit)
        self._cost_cache = cache

        best_alloc: Dict[str, int] = {t: 1 for t in tasks}
        try:
            best_result = schedule_for(best_alloc)
            best_sl = best_result.makespan

            # Warm start: a cached neighbor's allocation vector may skip
            # most of the walk — but only if its schedule strictly beats
            # the all-ones seed just computed. A rejected warm vector
            # leaves nothing behind except one extra memo entry, so the
            # rest of the run is bit-identical to a cold start.
            if self.initial_allocation is not None:
                warm_alloc = {
                    t: max(1, min(P, int(self.initial_allocation.get(t, 1))))
                    for t in tasks
                }
                if warm_alloc != best_alloc:
                    self.warm_start_stats["attempted"] += 1
                    seed_sl = best_sl
                    warm_result = schedule_for(warm_alloc)
                    adopted = warm_result.makespan < seed_sl * (1.0 - _IMPROVE_RTOL)
                    if adopted:
                        self.warm_start_stats["adopted"] += 1
                        best_alloc = warm_alloc
                        best_result = warm_result
                        best_sl = warm_result.makespan
                    else:
                        self.warm_start_stats["rejected"] += 1
                    if tracer.enabled:
                        tracer.event(
                            "cache_warm_start",
                            adopted=adopted,
                            warm_makespan=warm_result.makespan,
                            cold_seed_makespan=seed_sl,
                        )

            marked: Set[Hashable] = set()
            outer_cap = self.max_outer_iterations or max(
                64, 8 * graph.num_tasks * P
            )

            for _outer in range(outer_cap):
                alloc = dict(best_alloc)
                old_sl = best_sl
                cur_result = best_result
                entry: Optional[EntryPoint] = None
                if tracer.enabled:
                    tracer.event(
                        "outer_iteration",
                        index=_outer,
                        best_makespan=best_sl,
                        marked=len(marked),
                    )

                for iter_cnt in range(self.look_ahead_depth):
                    banned = frozenset(marked) if iter_cnt == 0 else frozenset()
                    candidate, dominated = self._next_candidate(
                        cur_result, graph, cluster, alloc, limits, cr, banned
                    )
                    if candidate is None:
                        break
                    if tracer.enabled:
                        tracer.event(
                            "candidate_selected",
                            kind="task" if isinstance(candidate, str) else "edge",
                            candidate=(
                                candidate
                                if isinstance(candidate, str)
                                else list(candidate)
                            ),
                            depth=iter_cnt,
                            dominated_by=dominated,
                        )

                    self._apply_growth(candidate, alloc, P)
                    if iter_cnt == 0:
                        entry = candidate

                    # The pass this step widened from: its placements up
                    # to the first pop the growth changes are reused.
                    cur_result = schedule_for(alloc, base=cur_result)
                    cur_sl = cur_result.makespan
                    improved = cur_sl < best_sl * (1.0 - _IMPROVE_RTOL)
                    if tracer.enabled:
                        tracer.event(
                            "lookahead_step",
                            depth=iter_cnt,
                            makespan=cur_sl,
                            improved=improved,
                        )
                    if improved:
                        best_alloc = dict(alloc)
                        best_sl = cur_sl
                        best_result = cur_result

                if entry is None:
                    break  # nothing left to try from the committed best state
                if best_sl >= old_sl * (1.0 - _IMPROVE_RTOL):
                    marked.add(entry if isinstance(entry, str) else tuple(entry))
                else:
                    marked.clear()

            # Explaining pass: one extra, cold LoCBS run on the committed
            # allocation with the recorder attached, while the run-scoped
            # cost cache is still alive (so it is nearly free — every
            # transfer timing is already memoized). LoCBS is deterministic
            # per allocation, so the pass reproduces best_result exactly —
            # which also checks the (possibly prefix-reused) committed
            # schedule against a cold pass, row for row.
            if self.explain:
                recorder = ProvenanceRecorder(
                    label=f"{graph.name}/P{P}/{self.name}"
                )
                explained = self._schedule(
                    graph, cluster, best_alloc, provenance=recorder
                )
                _check_same_schedule(explained, best_result)
                self.provenance = recorder
        finally:
            for key, val in cache.stats.items():
                self.cost_cache_stats[key] += val
            self._cost_cache = None

        if tracer.enabled:
            tracer.gauge("memo_size", len(memo))
            tracer.gauge("memo_peak_size", stats["peak_size"])
            tracer.gauge("cost_cache_edge_hit_rate", cache.hit_rate("edge"))
            tracer.gauge(
                "cost_cache_transfer_hit_rate", cache.hit_rate("transfer")
            )
        best_result.schedule.scheduler = self.name
        return best_result


def _check_same_schedule(
    explained: SchedulingResult, committed: SchedulingResult
) -> None:
    """Raise :class:`ScheduleError` unless the two schedules are identical.

    Compares every placement row and every inbound transfer time, so a
    divergence that leaves the makespan unchanged is still caught.
    """
    ours, theirs = explained.schedule.placements, committed.schedule.placements
    if ours != theirs:
        differing = sorted(
            t for t in ours.keys() | theirs.keys() if ours.get(t) != theirs.get(t)
        )
        raise ScheduleError(
            "explain pass diverged from the committed schedule at tasks "
            f"{differing!r}"
        )
    if explained.schedule.edge_comm_times != committed.schedule.edge_comm_times:
        raise ScheduleError(
            "explain pass diverged from the committed schedule in its "
            "inbound transfer times"
        )
