"""Golden schedule fingerprints for every registered scheduler.

The schedule-equivalence guarantee of the incremental engine ("no
optimization may change any produced schedule") is enforced two ways:
property tests against the naive reference (``repro.perf.reference``) and
the *golden file* checked in at ``tests/golden/scheduler_golden.json`` —
exact makespans plus a placement digest for every scheduler in the
registry over small deterministic seed suites. Any drift in any
scheduler's output fails ``tests/test_perf_equivalence.py``,
``tests/test_golden_traced.py`` (the same cases traced and explained) and
the CI ``diff-oracle`` job, which checks under three string-hash seeds.

Regenerate deliberately (only when an intentional behaviour change lands)
with ``python -m repro.perf golden --write``.

All schedulers are pure-Python float arithmetic over numpy-Generator
workloads with pinned seeds, so the fingerprints are stable across
platforms and supported CPython versions.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Union

from repro.cluster import MYRINET_2GBPS, Cluster
from repro.graph import TaskGraph
from repro.schedule import Schedule
from repro.schedulers.registry import SCHEDULERS
from repro.workloads.strassen import strassen_graph
from repro.workloads.suites import paper_suite
from repro.workloads.tce import ccsd_t1_graph

__all__ = [
    "GOLDEN_PATH",
    "schedule_digest",
    "golden_cases",
    "compute_golden",
    "write_golden",
    "check_golden",
]

#: default location of the checked-in golden file
GOLDEN_PATH = (
    Path(__file__).resolve().parents[3] / "tests" / "golden"
    / "scheduler_golden.json"
)

SCHEMA = "repro.perf.golden/v1"


def schedule_digest(schedule: Schedule) -> str:
    """SHA-1 over the exact placements (names, times via repr, processors)."""
    rows = sorted(
        (
            p.name,
            repr(p.start),
            repr(p.exec_start),
            repr(p.finish),
            list(p.processors),
        )
        for p in schedule
    )
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha1(blob).hexdigest()


def golden_cases() -> Iterator[Tuple[str, TaskGraph, Cluster]]:
    """The deterministic seed suites fingerprinted by the golden file.

    Small on purpose: every registered scheduler runs on every case, so
    the whole matrix must stay test-suite friendly.
    """
    cluster8 = Cluster(num_processors=8, bandwidth=12.5e6, name="fe-8")
    for i, graph in enumerate(
        paper_suite(ccr=1.0, amax=64.0, sigma=1.0, count=3, max_tasks=24)
    ):
        yield f"paper-ccr1/{i}/P8", graph, cluster8
    yield (
        "strassen-128/P16",
        strassen_graph(128),
        Cluster(num_processors=16, bandwidth=MYRINET_2GBPS, name="myrinet-16"),
    )
    yield (
        "ccsd-t1-o4v8/P8",
        ccsd_t1_graph(o=4, v=8),
        Cluster(num_processors=8, bandwidth=MYRINET_2GBPS, name="myrinet-8"),
    )


def compute_golden() -> Dict[str, object]:
    """Fingerprint every registry scheduler on every golden case."""
    cases: Dict[str, Dict[str, Dict[str, str]]] = {}
    for case_id, graph, cluster in golden_cases():
        per_sched: Dict[str, Dict[str, str]] = {}
        for name in sorted(SCHEDULERS):
            schedule = SCHEDULERS[name]().schedule(graph, cluster)
            per_sched[name] = {
                "makespan": repr(schedule.makespan),
                "digest": schedule_digest(schedule),
            }
        cases[case_id] = per_sched
    return {"schema": SCHEMA, "cases": cases}


def write_golden(path: Union[str, Path] = GOLDEN_PATH) -> Path:
    """Compute and write the golden file; returns its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = compute_golden()
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def check_golden(path: Union[str, Path] = GOLDEN_PATH) -> List[str]:
    """Recompute and diff against the stored golden file.

    Returns human-readable mismatch strings (empty = all clean). Missing
    or extra schedulers/cases are reported too, so registry growth forces
    a deliberate golden refresh.
    """
    stored = json.loads(Path(path).read_text())
    current = compute_golden()
    problems: List[str] = []
    if stored.get("schema") != SCHEMA:
        problems.append(
            f"schema mismatch: stored {stored.get('schema')!r}, "
            f"expected {SCHEMA!r}"
        )
        return problems
    stored_cases = stored["cases"]
    current_cases = current["cases"]
    for case_id in sorted(set(stored_cases) | set(current_cases)):
        if case_id not in stored_cases:
            problems.append(f"{case_id}: missing from golden file (refresh?)")
            continue
        if case_id not in current_cases:
            problems.append(f"{case_id}: golden case no longer computable")
            continue
        old, new = stored_cases[case_id], current_cases[case_id]
        for sched in sorted(set(old) | set(new)):
            if sched not in old:
                problems.append(
                    f"{case_id}/{sched}: scheduler not in golden file (refresh?)"
                )
            elif sched not in new:
                problems.append(f"{case_id}/{sched}: scheduler vanished")
            elif old[sched] != new[sched]:
                problems.append(
                    f"{case_id}/{sched}: output drifted "
                    f"(makespan {old[sched]['makespan']} -> "
                    f"{new[sched]['makespan']}, digest "
                    f"{old[sched]['digest'][:10]} -> {new[sched]['digest'][:10]})"
                )
    return problems
