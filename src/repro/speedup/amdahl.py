"""Amdahl's-law speedup model."""

from __future__ import annotations

from repro.speedup.base import SpeedupModel, checked_parameter
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["AmdahlSpeedup"]


class AmdahlSpeedup(SpeedupModel):
    """``S(n) = 1 / (f + (1 - f)/n)`` with serial fraction ``f`` in [0, 1].

    Used to synthesize realistic application profiles for the CCSD-T1 and
    Strassen workloads: element-wise tasks (matrix additions, small tensor
    contractions) get a large serial fraction — the paper describes them as
    "many small tasks which are not scalable" — while large contractions and
    sub-matrix multiplications get a small one.
    """

    __slots__ = ("serial_fraction",)

    def __init__(self, serial_fraction: float) -> None:
        self.serial_fraction = checked_parameter(
            check_in_range, serial_fraction, "serial_fraction", 0.0, 1.0
        )

    def speedup(self, n: int) -> float:
        n = check_positive_int(n, "n")
        f = self.serial_fraction
        return 1.0 / (f + (1.0 - f) / n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AmdahlSpeedup(serial_fraction={self.serial_fraction:g})"
