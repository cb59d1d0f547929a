"""Per-task execution-time profiles.

An :class:`ExecutionProfile` is the object the schedulers actually consult:
it binds a task's sequential execution time to a speedup model and memoizes
``et(p)`` queries (the allocation loops evaluate the same profile thousands
of times during candidate selection and look-ahead).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.exceptions import ProfileError
from repro.speedup.base import SpeedupModel, checked_parameter
from repro.speedup.table import TableSpeedup
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["ExecutionProfile"]

#: Relative tolerance when deciding whether two execution times are "equal"
#: for the purpose of finding the least-processor minimum (``pbest``).
_PBEST_RTOL = 1e-12


class ExecutionProfile:
    """Execution-time profile ``et(p)`` of one malleable task.

    Parameters
    ----------
    model:
        The task's speedup model.
    sequential_time:
        ``et(1)``. May be omitted when *model* is a :class:`TableSpeedup`,
        in which case the table's 1-processor entry is used.
    """

    __slots__ = ("model", "sequential_time", "_cache")

    def __init__(
        self, model: SpeedupModel, sequential_time: Optional[float] = None
    ) -> None:
        if not isinstance(model, SpeedupModel):
            raise ProfileError(
                f"model must be a SpeedupModel, got {type(model).__name__}"
            )
        if sequential_time is None:
            if isinstance(model, TableSpeedup):
                sequential_time = model.time_at(1)
            else:
                raise ProfileError(
                    "sequential_time is required unless model is a TableSpeedup"
                )
        self.model = model
        self.sequential_time = checked_parameter(
            check_positive, sequential_time, "sequential_time"
        )
        self._cache: Dict[int, float] = {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_table(cls, times: Mapping[int, float]) -> "ExecutionProfile":
        """Profile from an explicit ``{p: time}`` table (paper Figs 1–3)."""
        return cls(TableSpeedup(times))

    # -- queries -------------------------------------------------------------

    def time(self, p: int) -> float:
        """Execution time ``et(p)`` on *p* processors."""
        p = check_positive_int(p, "p")
        cached = self._cache.get(p)
        if cached is None:
            if isinstance(self.model, TableSpeedup):
                cached = self.model.time_at(p)
            else:
                cached = self.model.execution_time(self.sequential_time, p)
            self._cache[p] = cached
        return cached

    def _time(self, p: int) -> float:
        """``et(p)`` for a *p* the caller has already validated.

        The schedulers' hot loops read widths that passed
        ``clamp_allocation`` or stay inside ``[1, pbest]``; a memo hit
        skips :meth:`time`'s argument check, a miss goes through it.
        """
        cached = self._cache.get(p)
        return cached if cached is not None else self.time(p)

    def gain(self, p: int) -> float:
        """Execution-time decrease from growing ``p`` to ``p + 1``."""
        return self.time(p) - self.time(p + 1)

    def work(self, p: int) -> float:
        """Processor area ``p * et(p)`` (used by CPA's average-area bound)."""
        return p * self.time(p)

    def pbest(self, max_p: int) -> int:
        """Least processor count in ``[1, max_p]`` minimizing ``et``.

        Per the paper (Algorithm 1, step 14): ``Pbest(t)`` is the least
        number of processors on which the execution time of *t* is minimum.
        Beyond this width more processors cannot help, so the allocation
        loop never grows a task past it.
        """
        max_p = check_positive_int(max_p, "max_p")
        best_p, best_t = 1, self.time(1)
        for p in range(2, max_p + 1):
            t = self.time(p)
            if t < best_t * (1.0 - _PBEST_RTOL):
                best_p, best_t = p, t
        return best_p

    def efficiency(self, p: int) -> float:
        """Parallel efficiency ``S(p) / p`` in (0, 1]."""
        p = check_positive_int(p, "p")
        return self.time(1) / (p * self.time(p))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionProfile(model={self.model!r}, "
            f"sequential_time={self.sequential_time:g})"
        )
