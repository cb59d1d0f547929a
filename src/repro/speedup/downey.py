"""Downey's speedup model.

Downey, "A model for speedup of parallel programs" (UC Berkeley CSD-97-933).
The model has two parameters: ``A``, the average parallelism of the task, and
``sigma``, the coefficient of variation of parallelism. ``sigma = 0`` means a
perfectly scalable task (up to ``A`` processors); larger values mean poorer
scalability. The paper samples ``A ~ U[1, Amax]`` with ``(Amax, sigma)`` of
``(64, 1)`` and ``(48, 2)`` for its synthetic workloads.

The piecewise definition reproduced here is exactly the one printed in the
reproduced paper (Section IV-A):

for ``sigma <= 1``::

    S(n) = A*n / (A + sigma*(n-1)/2)              1 <= n <= A
    S(n) = A*n / (sigma*(A - 1/2) + n*(1 - sigma/2))   A <= n <= 2A - 1
    S(n) = A                                      n >= 2A - 1

for ``sigma >= 1``::

    S(n) = n*A*(sigma+1) / (sigma*(n + A - 1) + A)   1 <= n <= A + A*sigma - sigma
    S(n) = A                                          n >= A + A*sigma - sigma

At ``sigma == 1`` both branches coincide.
"""

from __future__ import annotations

import math

from repro.speedup.base import SpeedupModel, checked_parameter
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive_int,
)

__all__ = ["DowneySpeedup"]


class DowneySpeedup(SpeedupModel):
    """Downey's non-linear speedup model parameterized by ``(A, sigma)``."""

    __slots__ = ("A", "sigma")

    def __init__(self, A: float, sigma: float) -> None:
        A = checked_parameter(
            check_in_range, A, "average parallelism A", 1, math.inf
        )
        self.A = float(A)
        self.sigma = checked_parameter(check_non_negative, sigma, "sigma")

    def speedup(self, n: int) -> float:
        n = check_positive_int(n, "n")
        A, sigma = self.A, self.sigma
        if A == 1.0:
            return 1.0
        if sigma <= 1.0:
            if n <= A:
                return A * n / (A + sigma * (n - 1) / 2.0)
            if n <= 2 * A - 1:
                return A * n / (sigma * (A - 0.5) + n * (1 - sigma / 2.0))
            return A
        # sigma >= 1 branch
        knee = A + A * sigma - sigma
        if n <= knee:
            return n * A * (sigma + 1) / (sigma * (n + A - 1) + A)
        return A

    @property
    def saturation_point(self) -> float:
        """Processor count beyond which ``S(n) == A`` (the plateau)."""
        if self.A == 1.0:
            return 1.0
        if self.sigma <= 1.0:
            return 2 * self.A - 1
        return self.A + self.A * self.sigma - self.sigma

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DowneySpeedup(A={self.A:g}, sigma={self.sigma:g})"
