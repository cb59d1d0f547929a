"""Exact block-cyclic redistribution volumes (Prylli–Tourancheau pattern).

Redistributing a 1-D block-cyclic array from an ordered source set ``S``
(``p = |S|`` processors) to an ordered destination set ``T`` (``q = |T|``)
is periodic: block ``i`` moves from ``S[i mod p]`` to ``T[i mod q]``, and the
pair sequence repeats every ``L = lcm(p, q)`` blocks. Summing over one
period therefore gives the exact pairwise communication matrix — the key
observation of Prylli & Tourancheau's "fast runtime block cyclic data
redistribution" (JPDC 45(1), 1997), which the paper uses to estimate
redistribution volumes.

Volumes are treated as continuous (each of the ``L`` period slots carries
``total / L`` bytes). For arrays much larger than one period — always true
for the paper's workloads — this equals the discrete count to rounding.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from types import MappingProxyType
from typing import Dict, Mapping, Sequence, Tuple

import numpy as _np

from repro.exceptions import RedistributionError
from repro.utils.mathx import lcm
from repro.utils.validation import check_non_negative

__all__ = [
    "volume_matrix",
    "pair_fractions",
    "local_volume",
    "nonlocal_volume",
    "locality_fraction",
    "nonlocal_fraction",
]


def _as_proc_tuple(procs: Sequence[int], name: str) -> Tuple[int, ...]:
    t = tuple(int(p) for p in procs)
    if not t:
        raise RedistributionError(f"{name} processor set is empty")
    if len(set(t)) != len(t):
        raise RedistributionError(f"{name} processor set has duplicates: {t!r}")
    return t


@lru_cache(maxsize=4096)
def pair_fractions(
    src: Tuple[int, ...], dst: Tuple[int, ...]
) -> Mapping[Tuple[int, int], float]:
    """Fraction of the data moving between each ``(src_proc, dst_proc)`` pair.

    Fractions sum to exactly 1. Cached (the scheduler evaluates the same
    source-set/candidate-set pairs repeatedly during slot search), so the
    returned mapping is read-only.

    Built as a vectorized index intersection instead of walking the
    ``L = lcm(p, q)`` period: block slot ``i`` pairs positions
    ``(i mod p, i mod q)``, and by the Chinese Remainder Theorem a position
    pair ``(a, b)`` occurs in the period iff ``a ≡ b (mod gcd(p, q))`` —
    then exactly once. Since the ordered layouts are duplicate-free, every
    surviving pair therefore carries exactly ``1 / L`` of the data; no
    accumulation happens, which is also what makes this bit-identical to
    the frozen scalar walk (``repro.perf.scalar_oracles``).
    """
    p, q = len(src), len(dst)
    g = gcd(p, q)
    frac = 1.0 / lcm(p, q)
    # all (a, b) with b ≡ a (mod g): b = (a mod g) + g*k, k < q/g
    a = _np.repeat(_np.arange(p), q // g)
    b = (a % g) + g * _np.tile(_np.arange(q // g), p)
    s = _np.asarray(src, dtype=_np.int64)[a].tolist()
    d = _np.asarray(dst, dtype=_np.int64)[b].tolist()
    return MappingProxyType({pair: frac for pair in zip(s, d)})


def volume_matrix(
    src: Sequence[int], dst: Sequence[int], total_bytes: float
) -> Dict[Tuple[int, int], float]:
    """Bytes moving between every ``(src_proc, dst_proc)`` pair.

    Entries where the two processors coincide represent data that is already
    local and never crosses the network.
    """
    check_non_negative(total_bytes, "total_bytes")
    s = _as_proc_tuple(src, "source")
    d = _as_proc_tuple(dst, "destination")
    return {
        pair: f * total_bytes for pair, f in pair_fractions(s, d).items()
    }


def local_volume(src: Sequence[int], dst: Sequence[int], total_bytes: float) -> float:
    """Bytes that stay on the same physical processor (no transfer needed)."""
    mat = volume_matrix(src, dst, total_bytes)
    return sum(v for (sp, dp), v in mat.items() if sp == dp)


def nonlocal_volume(src: Sequence[int], dst: Sequence[int], total_bytes: float) -> float:
    """Bytes that must actually cross the network."""
    mat = volume_matrix(src, dst, total_bytes)
    return sum(v for (sp, dp), v in mat.items() if sp != dp)


def locality_fraction(src: Sequence[int], dst: Sequence[int]) -> float:
    """Fraction of the data that is already in place (in ``[0, 1]``).

    Identical ordered layouts give 1.0; disjoint processor sets give 0.0.
    """
    s = _as_proc_tuple(src, "source")
    d = _as_proc_tuple(dst, "destination")
    return _local_fraction_cached(s, d)


def _local_fraction(src: Tuple[int, ...], dst: Tuple[int, ...]) -> float:
    """Scalar local fraction of two ordered, validated processor tuples.

    Identical tuples short-circuit without touching the pattern: every block
    stays put when source and destination layouts coincide. Disjoint sets
    short-circuit to zero. The general case runs in O(p + q) via the CRT
    identity (a block at source position ``a`` meets destination position
    ``b`` iff ``a ≡ b (mod gcd)``, exactly once per period): a processor
    common to both layouts keeps its blocks iff its two positions agree
    modulo ``gcd(p, q)``. This never materializes the lcm period, so
    coprime layout sizes cannot blow up memory or overflow ``arange``.
    """
    if src == dst:
        return 1.0
    if not set(src) & set(dst):
        return 0.0
    p, q = len(src), len(dst)
    g = gcd(p, q)
    pos = {v: i for i, v in enumerate(src)}
    hits = 0
    for b, v in enumerate(dst):
        a = pos.get(v)
        if a is not None and (a - b) % g == 0:
            hits += 1
    return hits / lcm(p, q)


#: :func:`_local_fraction` for callers outside a scheduling run (schedule
#: validation, the simulator, the public fraction queries). A LoC-MPS run
#: memoizes its own pairs in its ``CostCache``, so this process-wide memo
#: stays at a fixed size instead of growing with every schedule made.
_local_fraction_cached = lru_cache(maxsize=4096)(_local_fraction)


def nonlocal_fraction(src: Sequence[int], dst: Sequence[int]) -> float:
    """Fraction of the data that must cross the network (``1 - local``)."""
    s = _as_proc_tuple(src, "source")
    d = _as_proc_tuple(dst, "destination")
    return 1.0 - _local_fraction_cached(s, d)
