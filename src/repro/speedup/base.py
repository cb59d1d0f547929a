"""Abstract speedup-model interface."""

from __future__ import annotations

import abc
from typing import Any, Callable, TypeVar

from repro.exceptions import InvalidProfileError
from repro.utils.validation import check_positive_int

__all__ = ["SpeedupModel", "checked_parameter"]

_T = TypeVar("_T")


def checked_parameter(
    check: Callable[..., _T], value: Any, name: str, *args: Any
) -> _T:
    """``check(value, name, *args)`` with a rejection raised as
    :class:`~repro.exceptions.InvalidProfileError`.

    For the construction-time checks of profiles and speedup models. A
    value of the wrong type keeps its ``TypeError``.
    """
    try:
        return check(value, name, *args)
    except ValueError as err:
        raise InvalidProfileError(str(err)) from None


class SpeedupModel(abc.ABC):
    """A speedup function ``S(n)`` over processor counts ``n >= 1``.

    Implementations must guarantee ``S(1) == 1`` and ``S`` non-decreasing in
    ``n`` (adding processors never slows a task down in this model; schedulers
    that must not over-allocate use ``ExecutionProfile.pbest`` to cap growth).
    """

    @abc.abstractmethod
    def speedup(self, n: int) -> float:
        """Speedup on *n* processors relative to one processor."""

    def execution_time(self, sequential_time: float, n: int) -> float:
        """``et(p) = et(1) / S(p)`` for this model."""
        n = check_positive_int(n, "n")
        if sequential_time < 0:
            raise ValueError(f"sequential_time must be >= 0, got {sequential_time}")
        s = self.speedup(n)
        if s <= 0:
            raise ValueError(f"speedup model returned non-positive S({n}) = {s}")
        return sequential_time / s

    def __call__(self, n: int) -> float:
        return self.speedup(n)
