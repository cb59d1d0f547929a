"""The 2-D scheduling chart: per-processor busy intervals and hole queries.

Backfill scheduling views the machine as a chart with time on one axis and
processors on the other (paper Section III-F). This class maintains the
chart incrementally as tasks are placed and answers the queries LoCBS needs:

* which processors are idle at a candidate start time, and until when;
* the *release times* after ``t`` (busy-interval ends — the only instants at
  which the idle set can grow, hence the only start times worth probing);
* feasibility of a concrete rectangle ``(procs, [start, end))``;
* per-processor *latest free time* for the cheaper no-backfill variant.

Busy spans live in one store: per processor row, two sorted Python lists
(``_starts_l``/``_ends_l``) of span starts and ends. A per-processor
query is one ``bisect`` on that row; the machine-wide ones
(:meth:`idle_with_horizon`, :meth:`idle_processors` and the
:class:`IdleSweep` constructor) are one ``bisect_right`` per row in machine
order.

Alongside the rows, three *global* sorted lists are maintained
incrementally (one ``bisect`` + slice-insert each per reservation):

* ``_all_starts`` / ``_all_ends`` — every span boundary with multiplicity,
  which turn the machine-wide busy count at any instant into two binary
  searches (``#busy(t) = #{starts <= t+EPS} - #{ends <= t+EPS}``, exact
  while no row holds spans that strictly overlap within ``EPS`` — see
  :attr:`counts_exact`);
* ``_ends_unique`` — the deduplicated release times, so the slot search's
  candidate list is a slice instead of an O(intervals) rebuild.

A span may carry an *owner*, ``(task, pop index)``. Each row maps its owned
spans' ends (unique in a row: spans longer than ``EPS`` cannot share an end
without overlapping) to their owners and keeps owned placements too short
to be spans as sorted marks, so :meth:`blockers` answers LoCBS's pseudo-edge
queries (paper Algorithm 2, steps 17-18) by bisecting the rows. Unowned
spans, such as a context's processor-ready reservations, are no blockers.

Every query is bit-compatible with the frozen seed chart
(:class:`repro.perf.scalar_oracles.ScalarProcessorTimeline`) — the
differential battery in ``tests/test_array_equivalence.py`` holds the two
implementations equal on every query.

Determinism contract: all returned times are Python floats produced by the
same IEEE-754 operations as the scalar code (comparisons against
``t + EPS``, no re-association), and all orderings are machine order — so
schedules built on this chart stay bit-identical to the golden
fingerprints in ``tests/golden/scheduler_golden.json``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from heapq import heapify, heappop, heappush
from itertools import islice, repeat
from operator import sub
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import ScheduleError
from repro.schedule.types import PlacedTask
from repro.utils.intervals import EPS, Interval, IntervalSet

__all__ = ["IdleSweep", "ProcessorTimeline"]

#: the placement that reserved a span: ``(task, pop index)``
Owner = Tuple[str, int]
#: an owned finish as :meth:`ProcessorTimeline.blockers` reads it
_Finish = Tuple[float, int, str]  # (finish, pop index, task)


class ProcessorTimeline:
    """Busy-interval bookkeeping for a fixed set of processors.

    Span rows are indexed by *row* (machine order); ``_row`` maps
    processor ids to rows. Row ``r`` holds its spans as two sorted lists,
    ``_starts_l[r]`` and ``_ends_l[r]``, with ``_counts[r]`` entries each.
    Processor sets passed to :meth:`reserve` must be duplicate-free (every
    caller passes a placement's processor tuple, which is).
    """

    __slots__ = (
        "_procs",
        "_row",
        "_starts_l",
        "_ends_l",
        "_counts",
        "_all_starts",
        "_all_ends",
        "_ends_unique",
        "_eps_chain",
        "_eps_overlap",
        "_owners",
        "_marks",
    )

    def __init__(self, processors: Sequence[int]) -> None:
        procs = tuple(int(p) for p in processors)
        if not procs:
            raise ScheduleError("timeline needs at least one processor")
        if len(set(procs)) != len(procs):
            raise ScheduleError(f"duplicate processors: {procs!r}")
        self._procs: Tuple[int, ...] = procs
        self._row: Dict[int, int] = {p: i for i, p in enumerate(procs)}
        n = len(procs)
        #: per-row sorted span starts and ends
        self._starts_l: List[List[float]] = [[] for _ in range(n)]
        self._ends_l: List[List[float]] = [[] for _ in range(n)]
        #: per-row span counts (Python ints for cheap scalar paths)
        self._counts: List[int] = [0] * n
        #: global sorted boundaries with per-processor multiplicity — the
        #: busy-count identity of the slot search is two bisects over them
        self._all_starts: List[float] = []
        self._all_ends: List[float] = []
        #: sorted end times, exact duplicates removed
        self._ends_unique: List[float] = []
        #: True once two *distinct* end times sit within EPS of each other
        #: (the EPS-chain collapse of release_times then differs from plain
        #: dedup, so the fast slice is disabled)
        self._eps_chain = False
        #: True once some row holds spans that strictly overlap inside the
        #: EPS tolerance (the global busy count then over-counts; see
        #: :attr:`counts_exact`)
        self._eps_overlap = False
        #: per row: owned span end -> its finish; per row with any: the
        #: sorted finishes of owned placements too short to be spans
        self._owners: List[Dict[float, _Finish]] = [{} for _ in range(n)]
        self._marks: Dict[int, List[_Finish]] = {}

    # -- basic accessors ---------------------------------------------------------

    @property
    def processors(self) -> Tuple[int, ...]:
        return self._procs

    @property
    def counts_exact(self) -> bool:
        """True while ``#busy(t) = #{starts <= t+EPS} - #{ends <= t+EPS}``.

        Holds unless a reservation was accepted whose span strictly
        overlaps a neighbour within the ``EPS`` feasibility tolerance
        (then one row can contribute 2 to the difference). Consumers of
        the binary-search busy count must fall back to a full
        classification when this is False.
        """
        return not self._eps_overlap

    def busy_intervals(self, proc: int) -> IntervalSet:
        """The busy set of *proc* as an :class:`IntervalSet` (a copy)."""
        r = self._row[proc]
        return IntervalSet(
            Interval(s, e)
            for s, e in zip(self._starts_l[r], self._ends_l[r])
        )

    # -- mutation ------------------------------------------------------------------

    def reserve(
        self, procs: Iterable[int], start: float, end: float,
        owner: Optional[Owner] = None,
    ) -> None:
        """Mark ``[start, end)`` busy on *procs*; overlap raises.

        Zero-length reservations (``end <= start``) are ignored — they occur
        when a task's occupancy collapses (e.g. zero-cost redistribution
        before a zero-time task) and occupy nothing. The feasibility check
        runs on every processor before any row is touched, so a conflict
        leaves the chart unmodified. An *owner* makes the reservation a
        :meth:`blockers` candidate, a zero-length one included.
        """
        if end - start <= EPS:
            if owner is not None:
                self._mark(procs, end, owner)
            return
        plist = list(procs)
        row_of = self._row
        rowlist = [row_of[p] for p in plist]
        fin = None if owner is None else (end, owner[1], owner[0])
        counts = self._counts
        starts_l, ends_l = self._starts_l, self._ends_l
        tol = start + EPS
        # feasibility on every row before mutating any (conflict atomicity);
        # bisect_right(ends, start + EPS) is the index of the first span
        # that could still cover the window
        for p, r in zip(plist, rowlist):
            idx = bisect_right(ends_l[r], tol)
            if idx < counts[r] and starts_l[r][idx] < end - EPS:
                raise ScheduleError(
                    f"processor {p} already busy during [{start:g}, {end:g})"
                )
        for r in rowlist:
            sl, el = starts_l[r], ends_l[r]
            idx = bisect_left(sl, start)
            # spans may abut within EPS; *strict* overlap inside the
            # tolerance breaks the global busy-count identity
            if (idx > 0 and el[idx - 1] > start) or (
                idx < counts[r] and sl[idx] < end
            ):
                self._eps_overlap = True
                # the span may end before one that starts no later (a
                # same-start span accepted within EPS), so its end takes
                # its own place: the row's ends must stay sorted
                el.insert(bisect_right(el, end), end)
            else:
                el.insert(idx, end)
            sl.insert(idx, start)
            counts[r] += 1
            if fin is not None:
                self._owners[r][end] = fin
        k = len(plist)
        i = bisect_right(self._all_starts, start)
        self._all_starts[i:i] = [start] * k
        i = bisect_right(self._all_ends, end)
        self._all_ends[i:i] = [end] * k
        eu = self._ends_unique
        i = bisect_right(eu, end)
        if i == 0 or eu[i - 1] != end:
            if (i > 0 and end - eu[i - 1] <= EPS) or (
                i < len(eu) and eu[i] - end <= EPS
            ):
                self._eps_chain = True
            eu.insert(i, end)

    def reserve_many(
        self,
        spans: Iterable[Tuple[Iterable[int], float, float]],
        owners: Optional[Iterable[Owner]] = None,
    ) -> None:
        """:meth:`reserve` each ``(procs, start, end)`` span, in one load.

        *owners*, when given, holds each span's owner, as :meth:`reserve`
        takes it.

        Leaves the chart as the sequential :meth:`reserve` calls would,
        including rows that already hold spans: every touched row and the
        global lists are re-sorted once, and ``counts_exact`` and the
        release-time fast path (the EPS-overlap and EPS-chain flags)
        come out as the sequential calls would set them. Zero-length spans
        occupy nothing. A span that :meth:`reserve` would reject — one
        overlapping another beyond the ``EPS`` tolerance — raises
        :class:`~repro.exceptions.ScheduleError` before any row is touched
        (the tolerance comparisons are :meth:`reserve`'s, taken in start
        order).
        """
        row_of = self._row
        #: touched row -> (its starts, its ends), existing and new, unsorted,
        #: and its new owned spans' finishes by end
        rows: Dict[int, Tuple[List[float], List[float], Dict[float, _Finish]]] = {}
        new_starts: List[float] = []
        new_ends: List[float] = []
        #: (procs, end, owner) of the owned zero-length spans
        marked: List[Tuple[Iterable[int], float, Owner]] = []
        pairs = (
            zip(spans, repeat(None)) if owners is None
            else zip(spans, owners, strict=True)
        )
        for (procs, start, end), owner in pairs:
            if end - start <= EPS:
                if owner is not None:
                    marked.append((procs, end, owner))
                continue
            fin = None if owner is None else (end, owner[1], owner[0])
            for p in procs:
                r = row_of[p]
                row = rows.get(r)
                if row is None:
                    row = rows[r] = (
                        self._starts_l[r][:], self._ends_l[r][:], {}
                    )
                row[0].append(start)
                row[1].append(end)
                if fin is not None:
                    row[2][end] = fin
                new_starts.append(start)
                new_ends.append(end)
        overlap = self._eps_overlap
        # Spans of one row cannot nest without conflicting, so sorting the
        # starts and the ends separately keeps each span's pair aligned,
        # and a conflict anywhere shows up between neighbours.
        for r, (sl, el, _) in rows.items():
            sl.sort()
            el.sort()
            for prev_end, start in zip(el, islice(sl, 1, None)):
                if prev_end > start + EPS:
                    raise ScheduleError(
                        f"processor {self._procs[r]} already busy at {start:g}"
                    )
                if prev_end > start:
                    overlap = True
        for r, (sl, el, owned) in rows.items():
            self._starts_l[r] = sl
            self._ends_l[r] = el
            self._counts[r] = len(sl)
            self._owners[r].update(owned)
        self._eps_overlap = overlap
        for procs, end, owner in marked:
            self._mark(procs, end, owner)
        self._all_starts.extend(new_starts)
        self._all_starts.sort()
        self._all_ends.extend(new_ends)
        self._all_ends.sort()
        eu = self._ends_unique = sorted({*self._ends_unique, *new_ends})
        if not self._eps_chain:
            # a chain shows up between neighbouring distinct release times
            gaps = map(sub, islice(eu, 1, None), eu)
            self._eps_chain = min(gaps, default=math.inf) <= EPS

    def _mark(self, procs: Iterable[int], end: float, owner: Owner) -> None:
        """Record an owned placement too short to be a span on *procs*."""
        fin = (end, owner[1], owner[0])
        for p in procs:
            insort(self._marks.setdefault(self._row[p], []), fin)

    def _fits(self, proc: int, start: float, end: float) -> bool:
        """True if ``[start, end)`` overlaps no busy interval of *proc*."""
        r = self._row[proc]
        el = self._ends_l[r]
        idx = bisect_right(el, start + EPS)
        return idx == self._counts[r] or self._starts_l[r][idx] >= end - EPS

    # -- hole / availability queries ----------------------------------------------

    def is_free(self, procs: Iterable[int], start: float, end: float) -> bool:
        """True if every processor in *procs* is idle through ``[start, end)``."""
        if end - start <= EPS:
            return True
        counts = self._counts
        starts_l, ends_l = self._starts_l, self._ends_l
        row_of = self._row
        tol = start + EPS
        lim = end - EPS
        for p in procs:
            r = row_of[p]
            idx = bisect_right(ends_l[r], tol)
            if idx < counts[r] and starts_l[r][idx] < lim:
                return False
        return True

    def free_at(self, proc: int, t: float) -> bool:
        """True if *proc* is idle at instant *t* (busy intervals half-open)."""
        r = self._row[proc]
        tol = t + EPS
        idx = bisect_right(self._ends_l[r], tol)
        return idx == self._counts[r] or self._starts_l[r][idx] > tol

    def free_until(self, proc: int, t: float) -> float:
        """First busy-interval start at or after *t* (inf if none).

        Only meaningful when the processor is idle at *t*.
        """
        r = self._row[proc]
        sl = self._starts_l[r]
        idx = bisect_left(sl, t - EPS)
        return sl[idx] if idx < self._counts[r] else math.inf

    def idle_processors(self, t: float) -> List[int]:
        """Processors idle at instant *t*, in machine order."""
        return [p for p, _ in self.idle_with_horizon(t)]

    def idle_with_horizon(self, t: float) -> List[Tuple[int, float]]:
        """``(proc, next_busy_start)`` for every processor idle at *t*.

        One bisect per row, in machine order; the horizon is ``inf`` for a
        processor with no busy span after *t* (idle forever).
        """
        tol = t + EPS
        inf = math.inf
        out: List[Tuple[int, float]] = []
        for p, sl, el, cnt in zip(
            self._procs, self._starts_l, self._ends_l, self._counts
        ):
            idx = bisect_right(el, tol)
            if idx == cnt:
                out.append((p, inf))
            elif sl[idx] > tol:
                out.append((p, sl[idx]))
        return out

    def idle_sweep(self, start: float) -> "IdleSweep":
        """An :class:`IdleSweep` positioned at probe time *start*.

        The backfill slot search probes a placement's candidate start times
        in ascending order against an *unchanging* chart, so recomputing
        :meth:`idle_with_horizon` from scratch at every probe repeats almost
        all of its work. The sweep classifies each processor once and then
        reclassifies only the processors whose state actually flips between
        consecutive probes.
        """
        return IdleSweep(self, start)

    def earliest_available(self, proc: int) -> float:
        """Latest busy end of *proc* (0 if never used) — the no-backfill EAT."""
        r = self._row[proc]
        el = self._ends_l[r]
        return el[-1] if el else 0.0

    def release_times(self, after: float) -> List[float]:
        """Sorted deduplicated busy-interval end times strictly after *after*.

        These are the only instants where processors become idle, so the
        backfill slot search probes exactly ``{after} + release_times``.
        Deduplication collapses chains of ends within ``EPS`` of the
        previously *kept* value (not pairwise) — the scalar contract.

        While every pair of *distinct* end times on the chart is more than
        ``EPS`` apart (the overwhelmingly common case, tracked by
        ``_eps_chain``), the chain collapse removes exactly the duplicates,
        so the answer is a slice of the maintained unique-ends list. Charts
        that contain sub-EPS chains run the collapse over that slice; it
        never keeps an exact duplicate, so dropping them first changes
        nothing.
        """
        eu = self._ends_unique
        tail = eu[bisect_right(eu, after + EPS):]
        if not self._eps_chain:
            return tail
        out: List[float] = []
        prev = None
        for t in tail:
            if prev is None or t - prev > EPS:
                out.append(t)
                prev = t
        return out

    def release_times_after(self, after: float) -> Iterator[float]:
        """Lazy :meth:`release_times` — same values, yielded on demand.

        The backfill probe ladder usually stops after the first couple of
        candidates once its ``tau + et`` break closes the scan, so it should
        not pay for materializing (and copying) the whole tail. Only valid
        while the chart is unmodified — the slot search never reserves
        mid-scan, so iteration is always over a frozen chart.
        """
        if not self._eps_chain:
            eu = self._ends_unique
            for i in range(bisect_right(eu, after + EPS), len(eu)):
                yield eu[i]
            return
        yield from self.release_times(after)

    def release_count_after(self, after: float) -> int:
        """``len(release_times(after))`` without materializing the list.

        One bisect on the maintained unique-ends list in the common
        EPS-chain-free case; lets the probe ladder report how many
        candidates its bound pruned even though they were never generated.
        """
        if not self._eps_chain:
            eu = self._ends_unique
            return len(eu) - bisect_right(eu, after + EPS)
        return len(self.release_times(after))

    def boundary_times(self, after: float) -> List[float]:
        """Sorted deduplicated interval starts *and* ends after *after*."""
        seen: Set[float] = set()
        for r in range(len(self._procs)):
            for edge in self._starts_l[r] + self._ends_l[r]:
                if edge > after + EPS:
                    seen.add(edge)
        return sorted(seen)

    def horizon(self) -> float:
        """Latest busy end across all processors (0 for an empty chart)."""
        eu = self._ends_unique
        return eu[-1] if eu else 0.0

    def busy_time(self) -> float:
        """Total busy span length summed over all processors (machine-seconds).

        Spans never overlap within a row (modulo the EPS cases tracked by
        :attr:`counts_exact`), so the sum of lengths is the chart's
        occupied area.
        """
        total = 0.0
        for sl, el in zip(self._starts_l, self._ends_l):
            for s, e in zip(sl, el):
                total += e - s
        return total

    def utilization(self, until: float) -> float:
        """Fraction of the chart area ``P * until`` that is busy.

        The online daemon reports this over the simulated span; 0 when
        *until* is not positive (empty machine, nothing submitted yet).
        """
        if until <= 0:
            return 0.0
        return self.busy_time() / (len(self._procs) * until)

    def first_fit_start(
        self, procs: Iterable[int], earliest: float, duration: float
    ) -> float:
        """Earliest ``t >= earliest`` with ``[t, t+duration)`` free on *procs*.

        Fixed processor set.
        """
        if duration <= EPS:
            return earliest
        merged = IntervalSet()
        for p in procs:
            merged = merged.union(self.busy_intervals(p))
        return merged.first_fit(earliest, duration)

    def blockers(
        self, placement: PlacedTask, blocked_start: float, *, tol: float
    ) -> List[str]:
        """Owned placements whose completion released *placement*'s processors.

        The answer of :func:`repro.perf.reference.scan_blockers` over the
        owned placements, read from the rows of *placement*'s processors:
        those finishing within *tol* of *blocked_start* are the exact
        blockers, returned sorted; when none is, the latest one finishing
        before ``blocked_start + tol``, the earliest placed among equal
        finishes.
        """
        exact: Set[str] = set()
        latest: Optional[_Finish] = None
        me = placement.name
        top = blocked_start + tol
        reach = top + tol  # an exact finish can round to just above *top*
        marks = self._marks
        for p in placement.processors:
            r = self._row[p]
            el = self._ends_l[r]
            # the row's owned spans ending by *reach* (their finishes kept
            # by end), then its marks (a sorted list, read by index), each
            # walked latest finish first
            walks = ((el, self._owners[r].get, bisect_right(el, reach)),)
            if marks and r in marks:
                ml = marks[r]
                walks += ((range(len(ml)), ml.__getitem__, len(ml)),)
            for keys, finish_of, i in walks:
                while i:
                    i -= 1
                    fin = finish_of(keys[i])
                    if fin is None or fin[2] == me:
                        continue
                    f, seq, name = fin
                    if abs(f - blocked_start) <= tol:
                        exact.add(name)
                    elif f < top:
                        if latest is None or f > latest[0] or (
                            f == latest[0] and seq < latest[1]
                        ):
                            latest = fin
                        elif f < latest[0] and f < blocked_start:
                            break  # under the band: the rest finish earlier
        if exact:
            return sorted(exact)
        return [] if latest is None else [latest[2]]

    # -- invariants (used by property tests) ----------------------------------------

    def check_invariants(self) -> None:
        """Raise if any processor's busy intervals are unsorted or overlap.

        Also verifies each row's starts and ends are each sorted, and that
        the row lists, their counts, their owners and the global boundary
        lists agree — :meth:`reserve` maintains them jointly and they must
        never drift.
        """
        n_spans = 0
        for i, p in enumerate(self._procs):
            cnt = self._counts[i]
            n_spans += cnt
            sl, el = self._starts_l[i], self._ends_l[i]
            if len(sl) != cnt or len(el) != cnt:
                raise ScheduleError(f"processor {p} span count mismatch")
            if sorted(sl) != sl or sorted(el) != el:
                raise ScheduleError(f"processor {p} span starts or ends unsorted")
            prev_end = -math.inf
            for s, e in zip(sl, el):
                if e - s <= EPS:
                    raise ScheduleError(f"processor {p} has empty busy interval")
                if s < prev_end - EPS:
                    raise ScheduleError(
                        f"processor {p} busy intervals overlap near {s}"
                    )
                prev_end = e
            if not self._owners[i].keys() <= set(el):
                raise ScheduleError(f"processor {p} owns a span it lacks")
        if len(self._all_starts) != n_spans or len(self._all_ends) != n_spans:
            raise ScheduleError("global boundary lists out of sync")
        if sorted(self._all_starts) != self._all_starts or sorted(
            self._all_ends
        ) != self._all_ends:
            raise ScheduleError("global boundary lists unsorted")
        if sorted(set(self._all_ends)) != self._ends_unique:
            raise ScheduleError("unique-ends list out of sync")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        busy = sum(self._counts)
        return (
            f"ProcessorTimeline(P={len(self._procs)}, busy_intervals={busy}, "
            f"horizon={self.horizon():g})"
        )


class IdleSweep:
    """Incremental idle-set view of a frozen chart over ascending probes.

    At any probe time ``t`` reached via :meth:`advance`, :meth:`free_pairs`
    equals ``timeline.idle_with_horizon(t)`` up to ordering (property-tested
    in ``tests/test_perf_equivalence.py``); downstream consumers must be
    order-insensitive, which the LoCBS subset selection is (its ranking keys
    embed the processor index, a total order).

    A processor's classification — idle until ``next_busy_start``, busy
    until ``end``, or idle forever — can only change when the probe time
    crosses that boundary, so boundaries are kept in a min-heap and each
    :meth:`advance` pops and reclassifies exactly the processors whose state
    flipped. Construction classifies every processor with one bisect per
    row; each advance is then amortized O(flips log P) instead of
    O(P log intervals) per probe.

    The sweep snapshots nothing: it reads the timeline's span lists in
    place, so it is only valid while the timeline is not mutated. The slot
    search satisfies this by construction (it reserves only after the scan).
    """

    __slots__ = ("_timeline", "_free", "_events")

    def __init__(self, timeline: ProcessorTimeline, start: float) -> None:
        self._timeline = timeline
        #: idle processors -> next busy start (inf when idle forever)
        self._free: Dict[int, float] = {}
        #: min-heap of (boundary time, proc): the next classification flips
        self._events: List[Tuple[float, int]] = []
        tol = start + EPS
        free = self._free
        events = self._events
        for p, sl, el, cnt in zip(
            timeline._procs, timeline._starts_l, timeline._ends_l,
            timeline._counts,
        ):
            idx = bisect_right(el, tol)
            if idx == cnt:
                free[p] = math.inf  # idle forever: never reclassified
                continue
            nxt = sl[idx]
            if nxt > tol:
                free[p] = nxt
                events.append((nxt, p))
            else:
                events.append((el[idx], p))
        heapify(events)

    def advance(self, t: float) -> None:
        """Move the probe time forward to *t* (must not decrease)."""
        tol = t + EPS
        events = self._events
        if not events or events[0][0] > tol:
            return
        free = self._free
        timeline = self._timeline
        starts_l = timeline._starts_l
        ends_l = timeline._ends_l
        row_of = timeline._row
        counts = timeline._counts
        while events and events[0][0] <= tol:
            p = heappop(events)[1]
            r = row_of[p]
            el = ends_l[r]
            idx = bisect_right(el, tol)
            if idx == counts[r]:
                free[p] = math.inf
                continue
            nxt = starts_l[r][idx]
            if nxt > tol:
                free[p] = nxt
                heappush(events, (nxt, p))
            else:
                free.pop(p, None)
                heappush(events, (el[idx], p))

    def __len__(self) -> int:
        """Number of idle processors at the current probe time."""
        return len(self._free)

    def free_pairs(self) -> List[Tuple[int, float]]:
        """``(proc, next_busy_start)`` pairs of the current idle set.

        Unordered — see the class docstring for why that is safe.
        """
        return list(self._free.items())
