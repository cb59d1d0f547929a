"""The homogeneous cluster model.

The paper assumes a homogeneous compute cluster with local disks per node, a
single-port communication model (each node participates in at most one
transfer per time step), and — by default — full overlap of computation and
communication (Figs 8(b) and the no-overlap series disable the overlap).

Bandwidth is expressed in **bytes per second**; the constants below cover the
two interconnects the paper mentions (100 Mbps fast ethernet for the
synthetic experiments, 2 Gbps Myrinet for the application testbed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.exceptions import ClusterError
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "Cluster",
    "FAST_ETHERNET_100MBPS",
    "GIGABIT_ETHERNET",
    "MYRINET_2GBPS",
]

#: 100 Mbps fast ethernet, the synthetic-experiment network (bytes/second).
FAST_ETHERNET_100MBPS: float = 100e6 / 8
#: 1 Gbps ethernet (bytes/second).
GIGABIT_ETHERNET: float = 1e9 / 8
#: 2 Gbps Myrinet, the application-testbed interconnect (bytes/second).
MYRINET_2GBPS: float = 2e9 / 8


@dataclass(frozen=True)
class Cluster:
    """A homogeneous ``P``-processor cluster.

    Attributes
    ----------
    num_processors:
        Total processor count ``P``.
    bandwidth:
        Per-node link bandwidth in bytes/second. The aggregate redistribution
        bandwidth between two task groups is
        ``min(np(src), np(dst)) * bandwidth`` (paper Section III-B).
    overlap:
        Whether communication overlaps computation. When ``False``,
        redistribution occupies the destination processors (the task's busy
        rectangle becomes ``comm + comp``).
    name:
        Cosmetic label used in reports.
    """

    num_processors: int
    bandwidth: float = FAST_ETHERNET_100MBPS
    overlap: bool = True
    name: str = "cluster"

    def __post_init__(self) -> None:
        # a non-int processor count or non-number bandwidth keeps its
        # TypeError; a bad value becomes a ClusterError (a ValueError)
        try:
            check_positive_int(self.num_processors, "num_processors")
            check_positive(self.bandwidth, "bandwidth")
        except ValueError as err:
            raise ClusterError(f"cluster {self.name!r}: {err}") from None

    @property
    def processors(self) -> Tuple[int, ...]:
        """Processor identifiers ``0 .. P-1``."""
        return tuple(range(self.num_processors))

    def aggregate_bandwidth(self, np_src: int, np_dst: int) -> float:
        """``min(np_src, np_dst) * bandwidth`` — parallel-transfer capacity."""
        np_src = check_positive_int(np_src, "np_src")
        np_dst = check_positive_int(np_dst, "np_dst")
        return min(np_src, np_dst) * self.bandwidth

    def with_overlap(self, overlap: bool) -> "Cluster":
        """A copy with the overlap flag replaced."""
        return replace(self, overlap=overlap)

    def with_processors(self, num_processors: int) -> "Cluster":
        """A copy with a different processor count (for sweeps)."""
        return replace(self, num_processors=num_processors)
