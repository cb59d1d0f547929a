"""Host-noise stamp and host-speed calibration.

On a shared machine the same job can run 1.8x slower for minutes at a
time, because of other tenants, with no CPU time stolen from this
process: every instruction just runs slower. A fixed pure-Python
calibration loop slows by about the same factor. The benchmark times it
between ops and reports its main latency and throughput metrics scaled
to a reference host speed (``*_norm``); the raw numbers are kept beside
them. The stamp also records CPU count and affinity, and the share of
CPU time the hypervisor stole during the run.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["CALIB_REF_MS", "calibrate_ms", "cpu_times", "stamp"]

#: median calibration-loop time (ms) on a quiet run of the 2-vCPU machine
#: the committed numbers come from: ``*_norm`` metrics are scaled to it
CALIB_REF_MS = 3.5


def _calibration_loop() -> int:
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    return acc


def calibrate_ms(repeats: int = 5) -> float:
    """Median wall time of the fixed calibration loop, in milliseconds."""
    times: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_loop()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def cpu_times() -> Optional[Tuple[int, int]]:
    """``(steal, total)`` jiffies from ``/proc/stat``; None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    values = [int(v) for v in fields[1:]]
    # guest time is already counted in user time
    return values[7], sum(values[:8])


def stamp(
    before: Optional[Tuple[int, int]], calib_before_ms: float, calib_ms: float
) -> Dict[str, object]:
    """The host block of a result, closing the window opened by *before*.

    *calib_ms* is the median of the calibration samples taken between
    the ops of the measured pass.
    """
    after = cpu_times()
    steal = None
    if before is not None and after is not None and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "steal_ratio": steal,
        "calib_before_ms": calib_before_ms,
        "calib_after_ms": calibrate_ms(),
        "calib_ms": calib_ms,
        "calib_ref_ms": CALIB_REF_MS,
    }
