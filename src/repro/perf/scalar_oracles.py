"""Frozen scalar (pure-Python, pre-numpy) hot-path implementations.

The production chart (:mod:`repro.schedule.timeline`) and the array-native
:mod:`repro.redistribution` kernels must not change a single produced
value. This module preserves the *pre-vectorization* scalar code paths
verbatim so the claim stays checkable forever:

* :class:`ScalarProcessorTimeline` / :class:`ScalarIdleSweep` — the
  bisect-on-Python-lists busy-interval chart exactly as it was before the
  numpy rewrite;
* :func:`pair_fractions_scalar` / :func:`volume_matrix_scalar` — the
  nested per-period-slot loop over the Prylli–Tourancheau lcm pattern;
* :func:`local_fraction_scalar` — the O(lcm) period walk counting blocks
  that stay put;
* :func:`single_port_time_scalar` / :func:`transfer_time_scalar` — the
  dict-accumulation timing rules built on the scalar volume matrix.

``tests/test_array_equivalence.py`` runs the production implementations
side by side with these oracles over the full scheduler registry and the
synthetic/Strassen/TCE workloads and asserts bit-identical schedules, hole
lists, and volume matrices. The hypothesis suites fuzz the same pairings
on randomized inputs.

Nothing here is exported through the public API; scalar oracles exist only
for differential testing and the reference arm of
``benchmarks/bench_hotpath.py``.
These oracles stay frozen on purpose: consumers built on them (the
reference scheduler arm, the equivalence batteries) must never inherit the
production scan's shortcuts (the lazy ladder), or the
differential tests would be comparing that scan against itself.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.exceptions import RedistributionError, ScheduleError
from repro.utils.intervals import EPS, Interval, IntervalSet
from repro.utils.mathx import lcm
from repro.utils.validation import check_non_negative

__all__ = [
    "ScalarProcessorTimeline",
    "ScalarIdleSweep",
    "pair_fractions_scalar",
    "volume_matrix_scalar",
    "local_fraction_scalar",
    "transfer_time_scalar",
    "single_port_time_scalar",
]


class ScalarProcessorTimeline:
    """Busy-interval bookkeeping on sorted Python lists (frozen seed code)."""

    __slots__ = ("_procs", "_starts", "_ends", "_release_times")

    def __init__(self, processors: Sequence[int]) -> None:
        procs = tuple(int(p) for p in processors)
        if not procs:
            raise ScheduleError("timeline needs at least one processor")
        if len(set(procs)) != len(procs):
            raise ScheduleError(f"duplicate processors: {procs!r}")
        self._procs: Tuple[int, ...] = procs
        self._starts: Dict[int, List[float]] = {p: [] for p in procs}
        self._ends: Dict[int, List[float]] = {p: [] for p in procs}
        self._release_times: List[float] = []

    @property
    def processors(self) -> Tuple[int, ...]:
        return self._procs

    def busy_intervals(self, proc: int) -> IntervalSet:
        return IntervalSet(
            Interval(s, e)
            for s, e in zip(self._starts[proc], self._ends[proc])
        )

    def reserve(self, procs: Iterable[int], start: float, end: float) -> None:
        if end - start <= EPS:
            return
        plist = list(procs)
        for p in plist:
            if not self._fits(p, start, end):
                raise ScheduleError(
                    f"processor {p} already busy during [{start:g}, {end:g})"
                )
        for p in plist:
            idx = bisect_left(self._starts[p], start)
            self._starts[p].insert(idx, start)
            self._ends[p].insert(idx, end)
        insort(self._release_times, end)

    def _fits(self, proc: int, start: float, end: float) -> bool:
        ends = self._ends[proc]
        idx = bisect_right(ends, start + EPS)
        return idx == len(ends) or self._starts[proc][idx] >= end - EPS

    def is_free(self, procs: Iterable[int], start: float, end: float) -> bool:
        if end - start <= EPS:
            return True
        return all(self._fits(p, start, end) for p in procs)

    def free_at(self, proc: int, t: float) -> bool:
        ends = self._ends[proc]
        idx = bisect_right(ends, t + EPS)
        return idx == len(ends) or self._starts[proc][idx] > t + EPS

    def free_until(self, proc: int, t: float) -> float:
        starts = self._starts[proc]
        idx = bisect_left(starts, t - EPS)
        return starts[idx] if idx < len(starts) else math.inf

    def idle_processors(self, t: float) -> List[int]:
        return [p for p in self._procs if self.free_at(p, t)]

    def idle_with_horizon(self, t: float) -> List[Tuple[int, float]]:
        out: List[Tuple[int, float]] = []
        append = out.append
        tol = t + EPS
        inf = math.inf
        starts_of = self._starts
        ends_of = self._ends
        for p in self._procs:
            ends = ends_of[p]
            n = len(ends)
            if not n or ends[-1] <= tol:
                append((p, inf))
                continue
            idx = bisect_right(ends, tol)
            nxt = starts_of[p][idx]
            if nxt > tol:
                append((p, nxt))
        return out

    def idle_sweep(self, start: float) -> "ScalarIdleSweep":
        return ScalarIdleSweep(self, start)

    def earliest_available(self, proc: int) -> float:
        ends = self._ends[proc]
        return ends[-1] if ends else 0.0

    def release_times(self, after: float) -> List[float]:
        idx = bisect_right(self._release_times, after + EPS)
        out: List[float] = []
        prev = None
        for t in self._release_times[idx:]:
            if prev is None or t - prev > EPS:
                out.append(t)
                prev = t
        return out

    def boundary_times(self, after: float) -> List[float]:
        seen: Set[float] = set()
        for p in self._procs:
            for edge in self._starts[p] + self._ends[p]:
                if edge > after + EPS:
                    seen.add(edge)
        return sorted(seen)

    def horizon(self) -> float:
        return self._release_times[-1] if self._release_times else 0.0

    def first_fit_start(
        self, procs: Iterable[int], earliest: float, duration: float
    ) -> float:
        if duration <= EPS:
            return earliest
        merged = IntervalSet()
        for p in procs:
            merged = merged.union(self.busy_intervals(p))
        return merged.first_fit(earliest, duration)

    def check_invariants(self) -> None:
        for p in self._procs:
            prev_end = -math.inf
            for s, e in zip(self._starts[p], self._ends[p]):
                if e - s <= EPS:
                    raise ScheduleError(f"processor {p} has empty busy interval")
                if s < prev_end - EPS:
                    raise ScheduleError(
                        f"processor {p} busy intervals overlap near {s}"
                    )
                prev_end = e

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        busy = sum(len(s) for s in self._starts.values())
        return (
            f"ScalarProcessorTimeline(P={len(self._procs)}, "
            f"busy_intervals={busy}, horizon={self.horizon():g})"
        )


class ScalarIdleSweep:
    """The frozen event-heap incremental idle sweep (seed implementation)."""

    __slots__ = ("_starts", "_ends", "_free", "_events")

    def __init__(self, timeline: ScalarProcessorTimeline, start: float) -> None:
        self._starts = timeline._starts
        self._ends = timeline._ends
        self._free: Dict[int, float] = {}
        self._events: List[Tuple[float, int]] = []
        tol = start + EPS
        free = self._free
        events = self._events
        starts_of = self._starts
        ends_of = self._ends
        inf = math.inf
        for p in timeline._procs:
            ends = ends_of[p]
            if not ends or ends[-1] <= tol:
                free[p] = inf
                continue
            idx = bisect_right(ends, tol)
            nxt = starts_of[p][idx]
            if nxt > tol:
                free[p] = nxt
                events.append((nxt, p))
            else:
                events.append((ends[idx], p))
        heapify(events)

    def advance(self, t: float) -> None:
        tol = t + EPS
        events = self._events
        if not events or events[0][0] > tol:
            return
        free = self._free
        starts_of = self._starts
        ends_of = self._ends
        while events and events[0][0] <= tol:
            p = heappop(events)[1]
            ends = ends_of[p]
            idx = bisect_right(ends, tol)
            if idx == len(ends):
                free[p] = math.inf
                continue
            nxt = starts_of[p][idx]
            if nxt > tol:
                free[p] = nxt
                heappush(events, (nxt, p))
            else:
                free.pop(p, None)
                heappush(events, (ends[idx], p))

    def __len__(self) -> int:
        return len(self._free)

    def free_pairs(self) -> List[Tuple[int, float]]:
        return list(self._free.items())


# -- block-cyclic redistribution (frozen per-period-slot loops) ------------------


def _as_proc_tuple_scalar(procs: Sequence[int], name: str) -> Tuple[int, ...]:
    t = tuple(int(p) for p in procs)
    if not t:
        raise RedistributionError(f"{name} processor set is empty")
    if len(set(t)) != len(t):
        raise RedistributionError(f"{name} processor set has duplicates: {t!r}")
    return t


def pair_fractions_scalar(
    src: Sequence[int], dst: Sequence[int]
) -> Dict[Tuple[int, int], float]:
    """One explicit walk over the lcm period, accumulating per-pair shares."""
    s = _as_proc_tuple_scalar(src, "source")
    d = _as_proc_tuple_scalar(dst, "destination")
    p, q = len(s), len(d)
    period = lcm(p, q)
    frac = 1.0 / period
    out: Dict[Tuple[int, int], float] = {}
    for i in range(period):
        key = (s[i % p], d[i % q])
        out[key] = out.get(key, 0.0) + frac
    return out


def volume_matrix_scalar(
    src: Sequence[int], dst: Sequence[int], total_bytes: float
) -> Dict[Tuple[int, int], float]:
    check_non_negative(total_bytes, "total_bytes")
    return {
        pair: f * total_bytes
        for pair, f in pair_fractions_scalar(src, dst).items()
    }


def local_fraction_scalar(src: Sequence[int], dst: Sequence[int]) -> float:
    """The O(lcm) period walk: count slots whose block stays in place."""
    s = _as_proc_tuple_scalar(src, "source")
    d = _as_proc_tuple_scalar(dst, "destination")
    p, q = len(s), len(d)
    period = lcm(p, q)
    hits = 0
    for i in range(period):
        if s[i % p] == d[i % q]:
            hits += 1
    return hits / period


def transfer_time_scalar(
    src: Sequence[int], dst: Sequence[int], volume: float, bandwidth: float
) -> float:
    """Aggregate-bandwidth transfer rule on the scalar local fraction."""
    check_non_negative(volume, "volume")
    if volume == 0.0:
        return 0.0
    frac = 1.0 - local_fraction_scalar(src, dst)
    if frac <= 0.0:
        return 0.0
    agg = min(len(src), len(dst)) * bandwidth
    return volume * frac / agg


def single_port_time_scalar(
    src: Sequence[int], dst: Sequence[int], volume: float, bandwidth: float
) -> float:
    """Dict-accumulation per-port bound on the scalar volume matrix."""
    check_non_negative(volume, "volume")
    if volume == 0.0:
        return 0.0
    mat = volume_matrix_scalar(src, dst, volume)
    sent: Dict[int, float] = {}
    received: Dict[int, float] = {}
    for (sp, dp), v in mat.items():
        if sp == dp:
            continue
        sent[sp] = sent.get(sp, 0.0) + v
        received[dp] = received.get(dp, 0.0) + v
    if not sent:
        return 0.0
    busiest = max(max(sent.values()), max(received.values()))
    return busiest / bandwidth
