"""Probe-ladder micro-benchmark: eager vs lazy candidate materialization.

The LoCBS hole scan probes start times drawn from the chart's release
ladder. The ``tau + et`` break usually closes the scan within a handful
of probes, so the scan consumes the ladder lazily
(:meth:`ProcessorTimeline.release_times_after`) instead of materializing
the full :meth:`release_times` list per placement: eager materialization
costs O(ladder length) per probe site, the lazy generator O(consumed
prefix). This benchmark measures that scaling on deep-DAG-shaped charts of
growing depth — the deep-synthetic schedule tiled along the time axis, so
the ladder grows while the structure stays realistic — and asserts the two
ladders yield identical values.
"""

from __future__ import annotations

import time
from itertools import chain, islice

from repro.cluster import MYRINET_2GBPS, Cluster
from repro.perf.hotpath import deep_dag
from repro.schedule import ProcessorTimeline
from repro.schedulers import get_scheduler

from benchmarks.conftest import emit

#: ladder prefix consumed per probe site — the order of magnitude the
#: ``tau + et`` break leaves alive (BENCH_hotpath full-scale records ~10
#: candidates entered per placement before the scan closes)
DEPTH = 4

#: time-axis tilings of the base schedule: ladder lengths grow ~50 -> ~3000
TILINGS = (1, 8, 64)

REPS = 200


def _deep_chart(tiles: int) -> ProcessorTimeline:
    """The deep-synthetic schedule replayed *tiles* times end to end."""
    graph = deep_dag(6, 8, seed=12)
    cluster = Cluster(num_processors=32, bandwidth=MYRINET_2GBPS)
    schedule = get_scheduler("locmps").schedule(graph, cluster)
    span = schedule.makespan + 1.0
    tl = ProcessorTimeline(cluster.processors)
    placements = sorted(schedule, key=lambda pt: (pt.start, pt.name))
    for k in range(tiles):
        shift = k * span
        for p in placements:
            tl.reserve(p.processors, p.start + shift, p.finish + shift)
    return tl


def _per_site(arm, bases) -> float:
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(REPS):
        for b in bases:
            total += arm(b)
    elapsed = time.perf_counter() - t0
    assert total >= 0.0
    return elapsed / (REPS * len(bases))


def test_lazy_ladder_vs_eager_materialization(run_once):
    lines = [f"probe-ladder materialization (depth {DEPTH}, {REPS} reps)"]
    longest = None
    for tiles in TILINGS:
        tl = _deep_chart(tiles)
        releases = tl.release_times(-1.0)
        assert len(releases) > DEPTH
        # probe sites spread over the whole ladder: early bases see the
        # longest remaining tails, where eager materialization is worst
        bases = [-1.0] + releases[:: max(1, len(releases) // 64)]

        # identity: the lazy ladder is the eager list, value for value
        for b in bases:
            eager_ladder = [b] + tl.release_times(b)
            lazy_ladder = chain((b,), tl.release_times_after(b))
            assert list(islice(lazy_ladder, DEPTH)) == eager_ladder[:DEPTH]
            assert tl.release_count_after(b) == len(eager_ladder) - 1

        def eager_arm(b):
            total = 0.0
            for tau in ([b] + tl.release_times(b))[:DEPTH]:
                total += tau
            return total

        def lazy_arm(b):
            total = 0.0
            ladder = chain((b,), tl.release_times_after(b))
            for tau in islice(ladder, DEPTH):
                total += tau
            return total

        eager_us = _per_site(eager_arm, bases) * 1e6
        lazy_us = _per_site(lazy_arm, bases) * 1e6
        lines.append(
            f"  ladder {len(releases):5d}: eager {eager_us:7.2f}us/site, "
            f"lazy {lazy_us:7.2f}us/site ({eager_us / lazy_us:5.2f}x)"
        )
        longest = (eager_us, lazy_us, lazy_arm, bases)

    emit("\n".join(lines))
    eager_us, lazy_us, lazy_arm, bases = longest
    # the asymptotic claim: on a long ladder, consuming a short prefix
    # must not pay for materializing the tail
    assert lazy_us < eager_us, (
        f"lazy ladder slower than eager on the longest chart "
        f"({lazy_us:.2f}us vs {eager_us:.2f}us per site)"
    )
    # pytest-benchmark record for the shipped (lazy) path
    run_once(lambda: sum(lazy_arm(b) for b in bases))
