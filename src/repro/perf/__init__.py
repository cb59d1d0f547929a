"""Performance harness: hot-path micro-benchmarks and golden fingerprints.

Three pieces back the incremental scheduling engine:

* :mod:`repro.perf.reference` — the naive pre-optimization implementations
  (sort-based ready queue, full-schedule blocker scan, uncached costs)
  kept alive as the equivalence oracle and benchmark baseline;
* :mod:`repro.perf.hotpath` — timed suites producing the machine-readable
  ``BENCH_hotpath.json`` perf trajectory (``python -m repro.perf hotpath``);
* :mod:`repro.perf.golden` — exact makespan/placement fingerprints of every
  registered scheduler, guarding against schedule drift
  (``python -m repro.perf golden --check``);
"""

from repro.perf.golden import (
    GOLDEN_PATH,
    check_golden,
    compute_golden,
    golden_cases,
    schedule_digest,
    write_golden,
)
from repro.perf.hotpath import (
    SuiteSpec,
    build_suites,
    deep_dag,
    run_hotpath,
    run_suite,
    wide_dag,
)
from repro.perf.onlinebench import available_parallelism
from repro.perf.reference import (
    ReferenceLocMpsScheduler,
    locbs_schedule_reference,
    scan_blockers,
)
from repro.perf.schema import BENCH_SCHEMA_VERSION

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "GOLDEN_PATH",
    "check_golden",
    "compute_golden",
    "golden_cases",
    "schedule_digest",
    "write_golden",
    "SuiteSpec",
    "build_suites",
    "deep_dag",
    "run_hotpath",
    "run_suite",
    "wide_dag",
    "ReferenceLocMpsScheduler",
    "available_parallelism",
    "locbs_schedule_reference",
    "scan_blockers",
]
