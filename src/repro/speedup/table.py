"""Speedup model backed by an explicit measured/authored time table."""

from __future__ import annotations

from typing import Dict, Mapping

from repro.exceptions import ProfileError
from repro.speedup.base import SpeedupModel, checked_parameter
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["TableSpeedup"]


class TableSpeedup(SpeedupModel):
    """Speedup derived from a table of measured execution times.

    ``times`` maps processor count to measured execution time and must
    contain an entry for 1 processor. Queries between measured points use
    the *last measured point at or below n* (a conservative "no speedup
    beyond what was measured" rule, matching how the paper's execution-time
    profiles are tabulated); queries beyond the largest measured point return
    the largest point's value.
    """

    __slots__ = ("_times", "_max_p")

    def __init__(self, times: Mapping[int, float]) -> None:
        if not times:
            raise ProfileError("TableSpeedup requires a non-empty time table")
        clean: Dict[int, float] = {}
        for p, t in times.items():
            p = checked_parameter(check_positive_int, p, "processor count")
            clean[p] = checked_parameter(check_positive, t, f"time at p={p}")
        if 1 not in clean:
            raise ProfileError("TableSpeedup table must include an entry for p=1")
        self._times = dict(sorted(clean.items()))
        self._max_p = max(self._times)

    @property
    def table(self) -> Mapping[int, float]:
        """The normalized ``{p: time}`` table (sorted, read-only copy)."""
        return dict(self._times)

    def time_at(self, n: int) -> float:
        """Execution time on *n* processors per the step-wise table rule."""
        n = check_positive_int(n, "n")
        if n >= self._max_p:
            return self._times[self._max_p]
        if n in self._times:
            return self._times[n]
        below = max(p for p in self._times if p <= n)
        return self._times[below]

    def speedup(self, n: int) -> float:
        return self._times[1] / self.time_at(n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TableSpeedup({self._times!r})"
