"""Redistribution timing model.

Two levels of fidelity, matching how the paper uses them:

* **Allocation-time estimate** (Section III-B): before concrete processor
  sets exist, edge cost is ``wt(e_ij) = D_ij / (min(np_i, np_j) * bandwidth)``
  — only allocation *sizes* are known.
* **Schedule-time actual cost**: once LoCBS has chosen concrete processor
  sets, the block-cyclic pattern says exactly which bytes are already local;
  only the non-local bytes cross the network, at the aggregate parallel
  bandwidth. A stricter single-port bound (per-node serialization of sends
  and receives) is also provided and used by the discrete-event engine.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence, Tuple

from repro.cluster import Cluster
from repro.redistribution.blockcyclic import (
    _as_proc_tuple,
    _local_fraction,
    _local_fraction_cached,
    volume_matrix,
)
from repro.utils.mathx import lcm
from repro.utils.validation import check_non_negative, check_positive_int

__all__ = ["RedistributionModel", "estimate_edge_cost"]


def estimate_edge_cost(
    np_src: int, np_dst: int, volume: float, bandwidth: float
) -> float:
    """Allocation-time edge cost ``D / (min(np_src, np_dst) * bandwidth)``."""
    check_positive_int(np_src, "np_src")
    check_positive_int(np_dst, "np_dst")
    check_non_negative(volume, "volume")
    if volume == 0.0:
        return 0.0
    return volume / (min(np_src, np_dst) * bandwidth)


class RedistributionModel:
    """Times block-cyclic redistributions on a given cluster."""

    __slots__ = ("cluster",)

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster

    def estimate_edge_cost(self, np_src: int, np_dst: int, volume: float) -> float:
        """Allocation-time estimate (no concrete processor sets yet)."""
        return estimate_edge_cost(np_src, np_dst, volume, self.cluster.bandwidth)

    def pair_cost(
        self, src_procs: Sequence[int], dst_procs: Sequence[int]
    ) -> Tuple[float, float]:
        """The volume-free part of :meth:`transfer_time`, uncached.

        Returns ``(nonlocal fraction, aggregate bandwidth)`` of the two
        ordered processor sets; a transfer of ``volume > 0`` bytes takes
        ``volume * fraction / bandwidth`` (zero when the fraction is not
        positive). Callers that price many volumes per pair — the LoCBS
        hole scan through its run's ``CostCache`` — memoize this instead
        of the per-volume times.
        """
        src, dst = tuple(src_procs), tuple(dst_procs)
        return (
            1.0 - _local_fraction(src, dst),
            min(len(src), len(dst)) * self.cluster.bandwidth,
        )

    def transfer_time(
        self, src_procs: Sequence[int], dst_procs: Sequence[int], volume: float
    ) -> float:
        """Actual redistribution time between concrete processor sets.

        Only non-local bytes are transferred; they move at the aggregate
        bandwidth ``min(|src|, |dst|) * bw``. Identical ordered layouts (the
        DATA schedule, or a perfectly reused placement) cost zero. Equals
        pricing *volume* with :meth:`pair_cost`, through a small
        process-wide memo of the fractions.
        """
        if volume < 0:
            check_non_negative(volume, "volume")
        if volume == 0.0:
            return 0.0
        # Hot path of the slot search: skip sequence re-validation (internal
        # callers pass already-validated placement tuples) and hit the cached
        # scalar fraction directly.
        frac = 1.0 - _local_fraction_cached(tuple(src_procs), tuple(dst_procs))
        if frac <= 0.0:
            return 0.0
        agg = min(len(src_procs), len(dst_procs)) * self.cluster.bandwidth
        return volume * frac / agg

    def single_port_time(
        self, src_procs: Sequence[int], dst_procs: Sequence[int], volume: float
    ) -> float:
        """Single-port lower-level bound: per-node send/receive serialization.

        Each node moves its bytes one transfer at a time, so the
        redistribution cannot finish before the most-loaded port drains:
        ``max_node max(bytes_sent, bytes_received) / bandwidth``.
        Always >= :meth:`transfer_time` / width ratios; the discrete-event
        engine uses this as its timing rule.
        """
        check_non_negative(volume, "volume")
        if volume == 0.0:
            return 0.0
        # Every pair of the block-cyclic matrix carries exactly
        # (1/lcm) * volume bytes (see pair_fractions), so a port's load is
        # an iterated sum of identical floats — it depends only on the
        # port's off-diagonal pair *count*, and iterated sums of a positive
        # constant are monotone in the count. The busiest port is therefore
        # the one with the most off-diagonal pairs; CRT gives the counts in
        # O(p + q) without materializing the lcm-period matrix.
        s = _as_proc_tuple(src_procs, "source")
        d = _as_proc_tuple(dst_procs, "destination")
        p, q = len(s), len(d)
        g = gcd(p, q)
        pos = {v: i for i, v in enumerate(s)}
        diag_src = 0
        diag_dst = 0
        for b, v in enumerate(d):
            a = pos.get(v)
            if a is not None and (a - b) % g == 0:
                diag_src += 1
                diag_dst += 1
        # a source position pairs with q/g destinations (one diagonal at
        # most); max over ports, and symmetrically for receivers
        k_send = q // g - (1 if diag_src == p else 0)
        k_recv = p // g - (1 if diag_dst == q else 0)
        k = max(k_send, k_recv)
        if k <= 0:
            return 0.0
        frac = 1.0 / lcm(p, q)
        per_pair = frac * volume
        busiest = 0.0
        for _ in range(k):
            busiest += per_pair
        return busiest / self.cluster.bandwidth

    def phased_time(
        self, src_procs: Sequence[int], dst_procs: Sequence[int], volume: float
    ) -> float:
        """Highest-fidelity rule: explicit conflict-free message phases.

        Builds the Prylli–Tourancheau-style phase schedule (each phase a
        matching of the transfer graph) and sums phase durations. Always
        between :meth:`single_port_time` (the per-port lower bound) and
        full serialization of the messages.
        """
        check_non_negative(volume, "volume")
        if volume == 0.0:
            return 0.0
        from repro.redistribution.message_schedule import phased_transfer_time

        mat = volume_matrix(src_procs, dst_procs, volume)
        return phased_transfer_time(mat, self.cluster.bandwidth)
