"""The incremental scheduling engine must not change a single schedule.

Every optimization of the LoCBS/LoC-MPS hot paths — heap ready queue,
placement index, incremental idle sweep, decorated-sort subset selection,
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
from repro.schedule import (
    IdleSweep,
    PlacedTask,
    PlacementIndex,
    ProcessorTimeline,
    Schedule,
)
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


# -- placement index ----------------------------------------------------------


def _random_schedule_and_index(seed, num_procs=6, num_tasks=40):
    """Random non-overlapping placements committed to both structures."""
    rng = random.Random(seed)
    cluster = Cluster(num_processors=num_procs, bandwidth=1e9)
    timeline = ProcessorTimeline(cluster.processors)
    schedule = Schedule(cluster, scheduler="test")
    index = PlacementIndex()
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
        timeline.reserve(procs, p.start, p.finish)
        schedule.place(p)
        index.add(p)
        placements.append(p)
    return schedule, index, placements


class TestPlacementIndex:
    @pytest.mark.parametrize("seed", range(8))
    def test_blockers_match_full_scan(self, seed):
        schedule, index, placements = _random_schedule_and_index(seed)
        rng = random.Random(seed + 1000)
        for p in placements:
            for blocked_start in (
                p.start,
                p.start + 0.5,
                float(rng.randint(0, 40)),
                p.start + 1e-7,  # inside the tolerance band
            ):
                assert index.blockers(
                    p, blocked_start, tol=1e-6
                ) == scan_blockers(schedule, p, blocked_start, tol=1e-6), (
                    f"divergence for {p.name} at {blocked_start}"
                )


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

    def test_transfer_limit_clears_but_stays_exact(self):
        cluster = Cluster(num_processors=4, bandwidth=1e9)
        cache = CostCache(cluster, transfer_limit=2)
        model = RedistributionModel(cluster)
        for vol in (1e6, 2e6, 3e6, 1e6):
            assert cache.transfer_time((0,), (1,), vol) == model.transfer_time(
                (0,), (1,), vol
            )
        assert cache.stats["transfer_clears"] >= 1

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

    def test_bottom_levels_under_matches_dag_ops(self):
        graph = build_random_graph(25, seed=7)
        cluster = Cluster(num_processors=8, bandwidth=MYRINET_2GBPS)
        cache = CostCache(cluster)
        inv = cache.graph_invariants(graph)
        rng = random.Random(2)
        for _ in range(4):
            alloc = {t: rng.randint(1, 8) for t in graph.tasks()}
            est = cache.edge_cost_map(graph, alloc)
            assert _bottom_levels_under(inv, graph, alloc, est) == bottom_levels(
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
        assert sorted(fast.sdag.pseudo_edges()) == sorted(
            ref.sdag.pseudo_edges()
        )

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
