"""Scheduler hot-path gate: the incremental engine against the reference.

Each input is scheduled once by :class:`LocMpsScheduler` (timed under
pytest-benchmark) and once by the frozen naive
:class:`~repro.perf.reference.ReferenceLocMpsScheduler`, and the two
schedules must have equal :func:`~repro.perf.golden.schedule_digest`s —
optimizations never change a placement. On the wide fork-join input
(P = 64) the engine must also beat the reference by at least 1.2x, the
``tau + et`` break must close some probe ladders early, and look-ahead
passes must copy more placements from memoized passes than they scan.

Per-workload performance is measured by the benchmark in ``bench/``
(``python bench/run.py``); this file only guards the engine's invariants.
"""

from __future__ import annotations

import pytest

from repro.cluster import MYRINET_2GBPS, Cluster
from repro.perf.golden import schedule_digest
from repro.perf.hotpath import deep_dag, wide_dag
from repro.perf.reference import ReferenceLocMpsScheduler
from repro.schedulers.locmps import LocMpsScheduler
from repro.workloads.strassen import strassen_graph
from repro.workloads.tce import ccsd_t1_graph

from benchmarks.conftest import emit

#: name -> (graph factory, processors, LocMpsScheduler keyword overrides)
INPUTS = {
    "wide-synthetic-P64": (
        lambda: wide_dag(96, seed=11), 64, {"look_ahead_depth": 8}
    ),
    "deep-synthetic-P32": (
        lambda: deep_dag(10, 6, seed=12), 32, {"look_ahead_depth": 8}
    ),
    "strassen-P32": (lambda: strassen_graph(256), 32, {}),
    "ccsd-t1-P32": (lambda: ccsd_t1_graph(o=4, v=10), 32, {}),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_hotpath_matches_reference(run_once, name):
    factory, procs, kwargs = INPUTS[name]
    graph = factory()
    cluster = Cluster(num_processors=procs, bandwidth=MYRINET_2GBPS)
    fast = LocMpsScheduler(**kwargs)
    schedule = run_once(fast.schedule, graph, cluster)
    reference = ReferenceLocMpsScheduler(**kwargs).schedule(graph, cluster)

    speedup = reference.scheduling_time / schedule.scheduling_time
    memo, costs = fast.memo_stats, fast.cost_cache_stats
    reused, scanned = memo["placements_reused"], memo["placements_scanned"]
    ladder = costs["probes_considered"] + costs["probes_bound_pruned"]
    emit(
        f"hotpath {name} ({graph.num_tasks} tasks, P={procs}): "
        f"optimized {schedule.scheduling_time:.3f}s, reference "
        f"{reference.scheduling_time:.3f}s, speedup {speedup:.2f}x\n"
        f"  placements reused {reused}, scanned {scanned} "
        f"(reuse share {reused / max(1, reused + scanned):.3f})\n"
        f"  probes pruned {costs['probes_bound_pruned']} of {ladder} "
        f"(prune rate {costs['probes_bound_pruned'] / max(1, ladder):.3f})"
    )

    # The engine's hard invariant: optimizations never change a schedule.
    assert schedule_digest(schedule) == schedule_digest(reference), (
        f"{name}: optimized and reference schedules diverged "
        f"(makespans {schedule.makespan!r} vs {reference.makespan!r})"
    )
    if name.startswith("wide-"):
        # The acceptance input must show a real win; the loose floor
        # keeps the assertion robust to CI jitter.
        assert speedup >= 1.2, f"{name}: speedup regressed to {speedup:.2f}x"
        assert costs["probes_bound_pruned"] > 0, (
            f"{name}: the tau + et break never closed a probe ladder"
        )
        assert reused > scanned, (
            f"{name}: look-ahead passes scanned more placements ({scanned}) "
            f"than they reused from the longest-prefix memoized pass "
            f"({reused})"
        )
