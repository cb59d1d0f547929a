"""The incremental scheduling engine must not change a single schedule.

Every optimization of the LoCBS/LoC-MPS hot paths — heap ready queue,
blocker queries on the chart, incremental idle sweep, decorated-sort subset selection,
run-scoped cost cache, cached graph invariants — is property-tested here
against the naive implementations preserved in :mod:`repro.perf.reference`,
and the full registry is pinned by the golden fingerprint file
(``tests/golden/scheduler_golden.json``).
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.cluster import MYRINET_2GBPS, Cluster
from repro.graph import bottom_levels
from repro.perf.golden import GOLDEN_PATH, check_golden, schedule_digest
from repro.perf.reference import (
    ReferenceLocMpsScheduler,
    _pick_by_locality_naive,
    locbs_schedule_reference,
    scan_blockers,
)
from repro.redistribution import RedistributionModel
from repro.schedule import IdleSweep, PlacedTask, ProcessorTimeline, Schedule
from repro.schedulers.base import edge_cost_map
from repro.schedulers.costcache import CostCache
from repro.schedulers.locbs import (
    LocbsOptions,
    ReadyQueue,
    _bottom_levels_under,
    _pick_by_locality,
    locbs_schedule,
)
from repro.schedulers.locmps import LocMpsScheduler
from repro.utils.intervals import EPS
from repro.workloads.suites import paper_suite

from .helpers import build_random_graph


def _placement_rows(schedule: Schedule):
    return sorted(
        (p.name, p.start, p.exec_start, p.finish, p.processors)
        for p in schedule
    )


# -- ready queue --------------------------------------------------------------


class TestReadyQueue:
    @pytest.mark.parametrize("seed", range(5))
    def test_pop_order_matches_resort_reference(self, seed):
        """Heap pops == repeatedly sorting by (-priority, name) and popping."""
        rng = random.Random(seed)
        names = [f"t{i}" for i in range(40)]
        # coarse priorities force plenty of ties on the primary key
        prio = {t: float(rng.randint(0, 5)) for t in names}

        queue = ReadyQueue(prio)
        ref: list = []
        popped_fast, popped_ref = [], []
        pending = list(names)
        rng.shuffle(pending)
        while pending or ref or len(queue):
            # interleave pushes and pops like the scheduling loop does
            if pending and (not ref or rng.random() < 0.5):
                batch = [pending.pop() for _ in range(min(3, len(pending)))]
                for t in batch:
                    queue.push(t)
                    ref.append(t)
                ref.sort(key=lambda t: (-prio[t], t))
            elif ref:
                popped_fast.append(queue.pop())
                popped_ref.append(ref.pop(0))
        assert popped_fast == popped_ref

    def test_len_and_bool(self):
        queue = ReadyQueue({"a": 1.0})
        assert len(queue) == 0 and not queue
        queue.push("a")
        assert len(queue) == 1 and queue


# -- blocker queries on the chart ---------------------------------------------


def _random_schedule_and_chart(seed, num_procs=6, num_tasks=40):
    """Random non-overlapping placements, owned on the chart, in order."""
    rng = random.Random(seed)
    cluster = Cluster(num_processors=num_procs, bandwidth=1e9)
    timeline = ProcessorTimeline(cluster.processors)
    schedule = Schedule(cluster, scheduler="test")
    placements = []
    for i in range(num_tasks):
        width = rng.randint(1, num_procs)
        procs = tuple(sorted(rng.sample(range(num_procs), width)))
        # quantized times manufacture exact finish==start coincidences
        start = float(rng.randint(0, 30))
        dur = float(rng.randint(1, 8))
        if not timeline.is_free(procs, start, start + dur):
            continue
        p = PlacedTask(
            name=f"t{i}", start=start, exec_start=start,
            finish=start + dur, processors=procs,
        )
        timeline.reserve(procs, p.start, p.finish, (p.name, len(schedule)))
        schedule.place(p)
        placements.append(p)
    return schedule, timeline, placements


def _task(name, start, finish, procs):
    return PlacedTask(
        name=name, start=start, exec_start=start, finish=finish,
        processors=procs,
    )


def _chart_of(placements, num_procs=2, ready=None):
    """*placements* owned on a chart (after *ready*'s unowned spans)."""
    cluster = Cluster(num_processors=num_procs, bandwidth=1e9)
    timeline = ProcessorTimeline(cluster.processors)
    for proc, until in (ready or {}).items():
        timeline.reserve([proc], 0.0, until)
    schedule = Schedule(cluster, scheduler="test")
    for p in placements:
        timeline.reserve(p.processors, p.start, p.finish, (p.name, len(schedule)))
        schedule.place(p)
    return schedule, timeline


def _both_answers(placements, query, blocked_start, **chart):
    schedule, timeline = _chart_of(placements, **chart)
    return (
        timeline.blockers(query, blocked_start, tol=1e-6),
        scan_blockers(schedule, query, blocked_start, tol=1e-6),
    )


class TestChartBlockers:
    @pytest.mark.parametrize("seed", range(8))
    def test_blockers_match_full_scan(self, seed):
        schedule, timeline, placements = _random_schedule_and_chart(seed)
        rng = random.Random(seed + 1000)
        for p in placements:
            for blocked_start in (
                p.start,
                p.start + 0.5,
                float(rng.randint(0, 40)),
                p.start + 1e-7,  # inside the tolerance band
            ):
                assert timeline.blockers(
                    p, blocked_start, tol=1e-6
                ) == scan_blockers(schedule, p, blocked_start, tol=1e-6), (
                    f"divergence for {p.name} at {blocked_start}"
                )

    def test_unowned_ready_span_is_no_blocker(self):
        # processor 0 is held by a context until 3.0: not a placement,
        # so the earlier owned finish on processor 1 is the answer
        early = _task("early", 0.0, 1.0, (1,))
        query = _task("q", 3.0, 4.0, (0, 1))
        chart, scan = _both_answers([early, query], query, 3.0, ready={0: 3.0})
        assert chart == scan == ["early"]
        alone = _task("q", 3.0, 4.0, (0,))
        chart, scan = _both_answers([alone], alone, 3.0, ready={0: 3.0})
        assert chart == scan == []

    def test_sub_eps_placement_is_an_exact_blocker(self):
        # the blip occupies no span, yet it finished where the query starts
        before = _task("before", 0.0, 1.0, (0,))
        blip = _task("blip", 1.0, 1.0 + EPS / 2, (0,))
        query = _task("q", 1.0 + EPS / 2, 2.0, (0,))
        chart, scan = _both_answers([before, blip, query], query, 1.5)
        assert chart == scan == ["blip"]
        chart, scan = _both_answers(
            [before, blip, query], query, 1.0 + EPS / 2
        )
        assert chart == scan == ["before", "blip"]

    def test_eps_overlapping_row_spans(self):
        # "b" starts EPS/2 before "a" ends: one row, overlapping spans
        a = _task("a", 0.0, 1.0, (0,))
        b = _task("b", 1.0 - EPS / 2, 2.0, (0,))
        query = _task("q", 3.0, 4.0, (0,))
        chart, scan = _both_answers([a, b, query], query, 1.0 - EPS / 2)
        assert chart == scan == ["a"]
        chart, scan = _both_answers([a, b, query], query, 3.0)
        assert chart == scan == ["b"]

    def test_equal_finishes_keep_placement_order(self):
        # "z" placed before "a": the earlier placement wins the tie
        z = _task("z", 0.0, 1.0, (0,))
        a = _task("a", 0.5, 1.0, (1,))
        query = _task("q", 2.0, 3.0, (0, 1))
        chart, scan = _both_answers([z, a, query], query, 2.0)
        assert chart == scan == ["z"]
        chart, scan = _both_answers([a, z, query], query, 2.0)
        assert chart == scan == ["a"]
        # marks tie with a span: the first-placed mark wins, though the
        # later one is met first
        m0 = _task("m0", 1.0 - EPS / 2, 1.0, (1,))
        m2 = _task("m2", 1.0 - EPS / 2, 1.0, (1,))
        chart, scan = _both_answers([m0, z, m2, query], query, 2.0)
        assert chart == scan == ["m0"]

    def test_exact_finish_above_start_plus_tol(self):
        # |finish - start| rounds down to tol while start + tol rounds
        # below finish: still an exact blocker, as in the scan
        start, tol = 2.117582368135751e-22, 3e-6
        done = _task("done", 0.0, 3.0000000000000005e-06, (0,))
        query = _task("q", 1.0, 2.0, (0,))
        schedule, timeline = _chart_of([done, query])
        assert start + tol < done.finish
        assert timeline.blockers(query, start, tol=tol) == scan_blockers(
            schedule, query, start, tol=tol
        ) == ["done"]

    def test_tolerance_boundary_follows_the_scan(self):
        # |finish - start| rounds above tol although finish >= start - tol:
        # "near" is no exact blocker, so only "exact" is
        near = _task("near", 0.0, 0.500000004, (0,))
        exact = _task("exact", 0.0, 0.500001004, (1,))
        query = _task("q", 0.500001004, 1.0, (0, 1))
        chart, scan = _both_answers([near, exact, query], query, query.start)
        assert chart == scan == ["exact"]


# -- idle sweep ---------------------------------------------------------------


class TestIdleSweep:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_idle_with_horizon_at_every_probe(self, seed):
        rng = random.Random(seed)
        timeline = ProcessorTimeline(range(8))
        for _ in range(60):
            procs = rng.sample(range(8), rng.randint(1, 4))
            start = rng.uniform(0, 40)
            end = start + rng.uniform(0.5, 6)
            if timeline.is_free(procs, start, end):
                timeline.reserve(procs, start, end)
        base = rng.uniform(0, 10)
        probes = sorted([base] + timeline.release_times(base))
        sweep = IdleSweep(timeline, base)
        for t in probes:
            sweep.advance(t)
            assert sorted(sweep.free_pairs()) == sorted(
                timeline.idle_with_horizon(t)
            ), f"divergence at probe {t}"
            assert len(sweep) == len(timeline.idle_with_horizon(t))

    def test_factory_method(self):
        timeline = ProcessorTimeline(range(3))
        timeline.reserve([0], 1.0, 2.0)
        sweep = timeline.idle_sweep(0.0)
        assert sorted(sweep.free_pairs()) == sorted(
            timeline.idle_with_horizon(0.0)
        )


# -- subset selection ---------------------------------------------------------


class TestPickByLocality:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_nsmallest_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 20)
        free = [
            (p, rng.choice([float("inf"), float(rng.randint(5, 15))]))
            for p in rng.sample(range(64), n)
        ]
        # shared horizon/locality values exercise the tie-break chain
        locality = {
            p: float(rng.choice([0.0, 1e6, 2e6]))
            for p, _ in free
            if rng.random() < 0.7
        }
        for np_t in range(1, n + 1):
            for loc in (locality, {}):
                assert _pick_by_locality(
                    free, np_t, loc
                ) == _pick_by_locality_naive(free, np_t, loc)
                # input order must not matter (the sweep's free set is
                # unordered)
                shuffled = free[:]
                rng.shuffle(shuffled)
                assert _pick_by_locality(shuffled, np_t, loc) == (
                    _pick_by_locality_naive(free, np_t, loc)
                )


# -- cost cache ---------------------------------------------------------------


class TestCostCache:
    def test_edge_cost_map_matches_uncached(self):
        graph = build_random_graph(20, seed=3)
        cluster = Cluster(num_processors=8, bandwidth=MYRINET_2GBPS)
        cache = CostCache(cluster)
        rng = random.Random(0)
        for _ in range(5):
            alloc = {t: rng.randint(1, 8) for t in graph.tasks()}
            assert cache.edge_cost_map(graph, alloc) == edge_cost_map(
                graph, cluster, alloc
            )
        assert cache.stats["edge_hits"] > 0  # later maps reuse entries

    def test_transfer_time_matches_uncached(self):
        cluster = Cluster(num_processors=8, bandwidth=MYRINET_2GBPS)
        cache = CostCache(cluster)
        model = RedistributionModel(cluster)
        rng = random.Random(1)
        triples = []
        for _ in range(30):
            src = tuple(sorted(rng.sample(range(8), rng.randint(1, 4))))
            dst = tuple(sorted(rng.sample(range(8), rng.randint(1, 4))))
            triples.append((src, dst, float(rng.randint(0, 5)) * 1e6))
        for src, dst, vol in triples * 2:  # second pass hits the memo
            assert cache.transfer_time(src, dst, vol) == model.transfer_time(
                src, dst, vol
            )
        assert cache.stats["transfer_hits"] >= len(triples)
        assert 0.0 < cache.hit_rate("transfer") < 1.0

    def test_transfer_time_bit_identical_per_volume(self):
        """One memoized pair prices every volume exactly as the model does."""
        cluster = Cluster(num_processors=8, bandwidth=MYRINET_2GBPS)
        cache = CostCache(cluster)
        model = RedistributionModel(cluster)
        rng = random.Random(4)
        pairs = [
            ((0, 1, 2), (0, 1, 2)),  # identical layouts: nothing moves
            ((2, 0, 1), (0, 1, 2)),  # same set, another order
            ((0, 1), (4, 5, 6)),  # disjoint sets
            ((0, 1, 2, 3), (1, 2)),
            ((5,), (5, 6, 7)),
        ] + [
            (
                tuple(rng.sample(range(8), rng.randint(1, 8))),
                tuple(rng.sample(range(8), rng.randint(1, 8))),
            )
            for _ in range(20)
        ]
        volumes = [0.0, -0.0, 1.0, 64.0, 1e-300, 3.3e6, 1e12, 2.0**53 + 1] + [
            rng.uniform(0.0, 1e9) for _ in range(20)
        ]
        for src, dst in pairs:
            for vol in volumes:
                got = cache.transfer_time(src, dst, vol)
                assert got.hex() == model.transfer_time(src, dst, vol).hex()
        distinct = len(set(pairs))
        assert cache.stats["transfer_misses"] == distinct
        assert cache.stats["transfer_hits"] == len(pairs) * len(volumes) - distinct
        assert cache.snapshot()["transfer_entries"] == distinct

    def test_negative_volume_raises_like_the_model(self):
        cluster = Cluster(num_processors=4, bandwidth=1e9)
        cache = CostCache(cluster)
        model = RedistributionModel(cluster)
        with pytest.raises(Exception) as want:
            model.transfer_time((0,), (1,), -1.0)
        with pytest.raises(want.type):
            cache.transfer_time((0,), (1,), -1.0)
        # a memoized pair rejects it too
        cache.transfer_time((0,), (1,), 1.0)
        with pytest.raises(want.type):
            cache.transfer_time((0,), (1,), -1.0)

    def test_transfer_limit_clears_but_stays_exact(self):
        cluster = Cluster(num_processors=4, bandwidth=1e9)
        cache = CostCache(cluster, transfer_limit=2)
        model = RedistributionModel(cluster)
        # the memo is keyed by pair, so only new pairs can fill it
        calls = [((0,), (1,), 1e6), ((0,), (2,), 2e6), ((1,), (2, 3), 3e6),
                 ((0,), (1,), 4e6), ((0,), (1,), 1e6)]
        for src, dst, vol in calls:
            assert cache.transfer_time(src, dst, vol) == model.transfer_time(
                src, dst, vol
            )
        assert cache.stats["transfer_clears"] >= 1
        assert cache.snapshot()["transfer_entries"] <= 2

    def test_runs_leave_the_process_wide_fraction_memo_alone(self, monkeypatch):
        """A run prices each of its pairs once and fills no global memo.

        The process-wide fraction memo is fixed-size, and LoC-MPS runs do
        not touch it, so a process's memory does not grow with the number
        of schedules it has made. Unchanged memo counters after the runs
        show that for any number of runs; 30 keep the test short.
        """
        from repro.perf.hotpath import deep_dag
        from repro.redistribution.blockcyclic import _local_fraction_cached

        cluster = Cluster(num_processors=12, bandwidth=MYRINET_2GBPS)
        pairs = set()
        priced = CostCache.transfer_time

        def recording(self, src, dst, volume):
            pairs.add((src, dst))
            return priced(self, src, dst, volume)

        before = _local_fraction_cached.cache_info()
        for seed in range(30):
            scheduler = LocMpsScheduler()
            if seed == 0:
                monkeypatch.setattr(CostCache, "transfer_time", recording)
            scheduler.schedule(deep_dag(4, 3, seed=seed), cluster)
            if seed == 0:
                monkeypatch.undo()
                stats = scheduler.cost_cache_stats
                assert stats["transfer_misses"] == len(pairs) > 0
                assert stats["transfer_clears"] == 0
        after = _local_fraction_cached.cache_info()
        assert after.currsize <= 4096
        assert after.maxsize == 4096
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_graph_invariants_cached_and_invalidated(self):
        graph = build_random_graph(12, seed=5)
        cluster = Cluster(num_processors=4, bandwidth=1e9)
        cache = CostCache(cluster)
        inv = cache.graph_invariants(graph)
        assert cache.graph_invariants(graph) is inv
        assert cache.stats == {**cache.stats, "graph_hits": 1, "graph_misses": 1}
        # appending to the graph must invalidate the cached entry
        from repro.speedup import ExecutionProfile, LinearSpeedup

        graph.add_task("extra", ExecutionProfile(LinearSpeedup(), 1.0))
        inv2 = cache.graph_invariants(graph)
        assert inv2 is not inv
        assert "extra" in inv2.preds

    def test_edge_estimates_are_kept_per_graph(self):
        """Two graphs with the same edge names share no estimate."""
        from repro.graph import TaskGraph
        from repro.speedup import ExecutionProfile, LinearSpeedup

        def three_tasks(volume):
            g = TaskGraph()
            for t in ("a", "b", "c"):
                g.add_task(t, ExecutionProfile(LinearSpeedup(), 10.0))
            g.add_edge("a", "b", volume)
            g.add_edge("a", "c", 1e6)
            return g

        cluster = Cluster(num_processors=4, bandwidth=1e8)
        alloc = {"a": 2, "b": 2, "c": 1}
        small, large = three_tasks(1e3), three_tasks(5e9)
        shared = CostCache(cluster)
        assert shared.edge_cost_map(small, alloc)[("a", "b")] == 5e-06
        assert shared.edge_cost_map(large, alloc)[("a", "b")] == 25.0
        assert shared.edge_cost_map(large, alloc) == edge_cost_map(
            large, cluster, alloc
        )
        assert _placement_rows(
            locbs_schedule(large, cluster, alloc, cost_cache=shared).schedule
        ) == _placement_rows(locbs_schedule(large, cluster, alloc).schedule)
        # releasing a graph drops its estimates with its invariants
        entries = shared.snapshot()["edge_entries"]
        shared.release_graph(small)
        assert shared.snapshot()["graph_entries"] == 1
        assert shared.snapshot()["edge_entries"] == entries - 2

    def test_bottom_levels_under_matches_dag_ops(self):
        graph = build_random_graph(25, seed=7)
        cluster = Cluster(num_processors=8, bandwidth=MYRINET_2GBPS)
        cache = CostCache(cluster)
        inv = cache.graph_invariants(graph)
        rng = random.Random(2)
        for _ in range(4):
            alloc = {t: rng.randint(1, 8) for t in graph.tasks()}
            est = cache.edge_cost_map(graph, alloc)
            assert _bottom_levels_under(inv, alloc, est) == bottom_levels(
                graph.nx_graph(),
                lambda t: graph.et(t, alloc[t]),
                lambda u, v: est[(u, v)],
            )


# -- whole-scheduler equivalence ----------------------------------------------


class TestLocbsEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("overlap", [True, False])
    def test_fast_equals_reference_on_random_dags(self, seed, overlap):
        graph = build_random_graph(18, seed=seed)
        cluster = Cluster(
            num_processors=6, bandwidth=MYRINET_2GBPS, overlap=overlap
        )
        rng = random.Random(seed)
        alloc = {t: rng.randint(1, 6) for t in graph.tasks()}
        fast = locbs_schedule(graph, cluster, alloc)
        ref = locbs_schedule_reference(graph, cluster, alloc)
        assert _placement_rows(fast.schedule) == _placement_rows(ref.schedule)
        assert fast.schedule.edge_comm_times == ref.schedule.edge_comm_times
        assert fast.sdag.pseudo_edges() == ref.sdag.pseudo_edges()

    @pytest.mark.parametrize(
        "options",
        [
            LocbsOptions(comm_blind=True),
            LocbsOptions(locality_blind=True),
            LocbsOptions(backfill=False),
        ],
        ids=["comm_blind", "locality_blind", "no_backfill"],
    )
    def test_option_variants_equal_reference(self, options):
        graph = build_random_graph(15, seed=9)
        cluster = Cluster(num_processors=5, bandwidth=MYRINET_2GBPS)
        rng = random.Random(9)
        alloc = {t: rng.randint(1, 5) for t in graph.tasks()}
        fast = locbs_schedule(graph, cluster, alloc, options)
        ref = locbs_schedule_reference(graph, cluster, alloc, options)
        assert _placement_rows(fast.schedule) == _placement_rows(ref.schedule)


class TestLocMpsEquivalence:
    @pytest.mark.parametrize("ccr", [0.0, 1.0])
    def test_seed_suite_schedules_identical(self, ccr):
        cluster = Cluster(num_processors=8, bandwidth=12.5e6)
        for graph in paper_suite(
            ccr=ccr, amax=32.0, sigma=1.0, count=2, max_tasks=18
        ):
            fast = LocMpsScheduler(look_ahead_depth=4).schedule(graph, cluster)
            ref = ReferenceLocMpsScheduler(look_ahead_depth=4).schedule(
                graph, cluster
            )
            assert fast.makespan == ref.makespan
            assert _placement_rows(fast) == _placement_rows(ref)
            assert schedule_digest(fast) == schedule_digest(ref)


# -- golden fingerprints ------------------------------------------------------


@pytest.mark.slow
def test_registry_matches_golden_file():
    """Every registered scheduler still produces its checked-in schedules.

    Regenerate deliberately with ``python -m repro.perf golden --write``
    when an intentional behaviour change lands.
    """
    assert GOLDEN_PATH.exists(), (
        "golden file missing; run: python -m repro.perf golden --write"
    )
    assert check_golden() == []


def test_perf_cli_requires_a_subcommand(capsys):
    """``python -m repro.perf`` with no subcommand prints usage, exits 2."""
    from repro.perf.cli import main

    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err
    for retired in ("hotpath", "cache", "online"):
        with pytest.raises(SystemExit) as info:
            main([retired])
        assert info.value.code == 2
