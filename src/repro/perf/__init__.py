"""Equivalence oracles, golden fingerprints and benchmark input shapes.

Three pieces back the incremental scheduling engine:

* :mod:`repro.perf.reference` — the naive pre-optimization implementations
  (sort-based ready queue, full-schedule blocker scan, uncached costs)
  kept alive as the equivalence oracle and timing baseline;
* :mod:`repro.perf.golden` — exact makespan/placement fingerprints of every
  registered scheduler, guarding against schedule drift
  (``python -m repro.perf golden --check``);
* :mod:`repro.perf.hotpath` and :mod:`repro.perf.cachebench` — the
  ``wide_dag``/``deep_dag`` shapes and ``perturb_graph`` neighbours the
  benchmark in ``bench/`` (``python bench/run.py``) is built from.
"""

from repro.perf.golden import (
    GOLDEN_PATH,
    check_golden,
    compute_golden,
    golden_cases,
    schedule_digest,
    write_golden,
)
from repro.perf.hotpath import deep_dag, wide_dag
from repro.perf.reference import (
    ReferenceLocMpsScheduler,
    locbs_schedule_reference,
    scan_blockers,
)

__all__ = [
    "GOLDEN_PATH",
    "check_golden",
    "compute_golden",
    "golden_cases",
    "schedule_digest",
    "write_golden",
    "deep_dag",
    "wide_dag",
    "ReferenceLocMpsScheduler",
    "locbs_schedule_reference",
    "scan_blockers",
]
