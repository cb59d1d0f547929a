"""Per-processor placement index for fast blocker (pseudo-edge) queries.

LoCBS detects resource-induced waits by asking, for a freshly placed task,
which earlier tasks' completions released the processors it starts on
(paper Algorithm 2, steps 17-18). The naive answer scans the *entire*
schedule per query — O(n) placements with a set intersection each, which
turns pseudo-edge detection into an O(n²) term on contended charts.

:class:`PlacementIndex` maintains, per processor, the placements that have
touched it, sorted by finish time. A blocker query then does two
:mod:`bisect` probes per *owned* processor: one range lookup for
finish times matching the blocked start within tolerance ("exact"
blockers) and one predecessor lookup for the latest earlier finish (the
rounding fallback). Results are guaranteed identical to the full-schedule
scan (see ``repro.perf.reference.scan_blockers`` and the property tests in
``tests/test_perf_equivalence.py``): ties among equally late finishes are
broken by placement order, exactly like the first-wins scan.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Set, Tuple

from repro.schedule.types import PlacedTask

__all__ = ["PlacementIndex"]


class PlacementIndex:
    """Processor → placements sorted by finish time, with bisect queries."""

    __slots__ = ("_finishes", "_entries", "_count")

    def __init__(self) -> None:
        #: per processor: finish times ascending (stable for equal values)
        self._finishes: Dict[int, List[float]] = {}
        #: parallel to ``_finishes``: (task name, placement sequence number)
        self._entries: Dict[int, List[Tuple[str, int]]] = {}
        self._count = 0

    def add(self, placement: PlacedTask) -> None:
        """Index *placement* on every processor it occupies."""
        seq = self._count
        self._count = seq + 1
        finish = placement.finish
        entry = (placement.name, seq)
        finishes = self._finishes
        entries = self._entries
        for p in placement.processors:
            fins = finishes.get(p)
            if fins is None:
                fins = finishes[p] = []
                entries[p] = []
            # bisect_right keeps equal finishes in placement order, so the
            # sequence numbers within an equal-finish run stay ascending.
            idx = bisect_right(fins, finish)
            fins.insert(idx, finish)
            entries[p].insert(idx, entry)

    def blockers(
        self, placement: PlacedTask, blocked_start: float, *, tol: float
    ) -> List[str]:
        """Tasks whose completion released processors to *placement*.

        Mirrors the full-schedule scan: tasks finishing within *tol* of
        *blocked_start* on a shared processor are the exact blockers
        (returned sorted); when rounding leaves none, the latest-finishing
        sharing task that ended before the start is returned instead, with
        ties broken toward the earliest-placed task.
        """
        lo_t = blocked_start - tol
        hi_t = blocked_start + tol
        me = placement.name
        exact: Set[str] = set()
        latest: Optional[Tuple[float, int, str]] = None  # (finish, seq, name)
        for p in placement.processors:
            fins = self._finishes.get(p)
            if not fins:
                continue
            ents = self._entries[p]
            lo = bisect_left(fins, lo_t)
            hi = bisect_right(fins, hi_t)
            for name, _seq in ents[lo:hi]:
                if name != me:
                    exact.add(name)
            # Fallback candidates end strictly below the tolerance band.
            # In LoCBS queries the placement itself never lands there
            # (finish >= blocked_start), but exclude it anyway so the index
            # matches the scan for arbitrary probes; it occupies at most
            # one slot per processor.
            i = lo - 1
            if i >= 0 and ents[i][0] == me:
                i -= 1
            if i >= 0:
                f = fins[i]
                name, seq = ents[i]
                # Walk left through an equal-finish run: the scan keeps the
                # earliest-placed task among equally late finishes.
                while i > 0 and fins[i - 1] == f:
                    i -= 1
                    nm, sq = ents[i]
                    if nm != me and sq < seq:
                        name, seq = nm, sq
                if (
                    latest is None
                    or f > latest[0]
                    or (f == latest[0] and seq < latest[1])
                ):
                    latest = (f, seq, name)
        if exact:
            return sorted(exact)
        if latest is not None:
            return [latest[2]]
        return []
