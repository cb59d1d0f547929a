"""LoC-MPS allocation loop (Algorithm 1)."""

import pytest

from repro import Cluster, LocMpsScheduler, TaskGraph, validate_schedule
from repro.exceptions import AllocationError, ScheduleError
from repro.speedup import AmdahlSpeedup, ExecutionProfile, LinearSpeedup

from tests.helpers import build_fig3_graph, build_random_graph


class TestConfiguration:
    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            LocMpsScheduler(look_ahead_depth=0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            LocMpsScheduler(top_fraction=0.0)
        with pytest.raises(ValueError):
            LocMpsScheduler(top_fraction=1.5)

    @pytest.mark.parametrize(
        "width", [1.5, float("nan")], ids=["fraction", "nan"]
    )
    def test_non_whole_initial_allocation_raises(self, width):
        g = build_fig3_graph()
        sched = LocMpsScheduler(initial_allocation={"T1": width})
        with pytest.raises(AllocationError, match="not whole"):
            sched.schedule(g, Cluster(num_processors=4))

    def test_whole_float_initial_allocation_accepted(self):
        g = build_fig3_graph()
        cl = Cluster(num_processors=4)
        warm = {t: 2.0 for t in g.tasks()}
        as_floats = LocMpsScheduler(initial_allocation=warm).schedule(g, cl)
        as_ints = LocMpsScheduler(
            initial_allocation={t: 2 for t in g.tasks()}
        ).schedule(g, cl)
        assert as_floats.allocation() == as_ints.allocation()
        assert as_floats.makespan == as_ints.makespan

    def test_nobackfill_renames(self):
        assert LocMpsScheduler(backfill=False).name == "locmps-nobackfill"

    def test_empty_graph_rejected(self):
        with pytest.raises(ScheduleError):
            LocMpsScheduler().run(TaskGraph(), Cluster(num_processors=2))


class TestBehaviour:
    def test_single_scalable_task_gets_all_processors(self):
        g = TaskGraph()
        g.add_task("A", ExecutionProfile(LinearSpeedup(), 100.0))
        s = LocMpsScheduler().schedule(g, Cluster(num_processors=8))
        assert s["A"].width == 8
        assert s.makespan == pytest.approx(12.5)

    def test_serial_task_stays_narrow(self):
        g = TaskGraph()
        g.add_task("A", ExecutionProfile(AmdahlSpeedup(1.0), 100.0))
        s = LocMpsScheduler().schedule(g, Cluster(num_processors=8))
        assert s["A"].width == 1

    def test_never_worse_than_task_parallel(self):
        from repro import TaskParallelScheduler

        for seed in range(4):
            g = build_random_graph(12, seed)
            cl = Cluster(num_processors=6)
            mps = LocMpsScheduler().schedule(g, cl).makespan
            task = TaskParallelScheduler().schedule(g, cl).makespan
            # LoC-MPS starts from the TASK allocation and only commits
            # improvements, so it can never end up worse.
            assert mps <= task + 1e-6

    def test_valid_schedules(self):
        for seed in range(4):
            g = build_random_graph(10, seed)
            cl = Cluster(num_processors=4)
            s = LocMpsScheduler().schedule(g, cl)
            assert validate_schedule(s, g) == []

    def test_respects_pbest_cap(self):
        g = TaskGraph()
        g.add_task("A", ExecutionProfile(LinearSpeedup(cap=3), 90.0))
        s = LocMpsScheduler().schedule(g, Cluster(num_processors=8))
        assert s["A"].width <= 3
        assert s.makespan == pytest.approx(30.0)

    def test_look_ahead_escapes_local_minimum(self):
        # Paper Fig 3: without look-ahead the schedule is stuck at 40; the
        # data-parallel schedule achieves 30.
        g = build_fig3_graph()
        s = LocMpsScheduler().schedule(g, Cluster(num_processors=4))
        assert s.makespan == pytest.approx(30.0)

    def test_depth_one_gets_stuck_in_fig3(self):
        # With no meaningful look-ahead the Fig 3 local minimum persists.
        g = build_fig3_graph()
        s = LocMpsScheduler(look_ahead_depth=1).schedule(
            g, Cluster(num_processors=4)
        )
        assert s.makespan >= 40.0 - 1e-9

    def test_deterministic(self):
        g = build_random_graph(10, 5)
        cl = Cluster(num_processors=4)
        s1 = LocMpsScheduler().schedule(g, cl)
        s2 = LocMpsScheduler().schedule(g, cl)
        assert s1.makespan == s2.makespan
        assert s1.allocation() == s2.allocation()

    def test_scheduler_name_recorded(self):
        g = build_random_graph(6, 0)
        s = LocMpsScheduler().schedule(g, Cluster(num_processors=2))
        assert s.scheduler == "locmps"
        assert s.scheduling_time > 0

    def test_comm_blind_flag(self):
        g = TaskGraph()
        g.add_task("A", ExecutionProfile(LinearSpeedup(), 10.0))
        g.add_task("B", ExecutionProfile(LinearSpeedup(), 10.0))
        g.add_edge("A", "B", 1e12)  # absurd volume
        cl = Cluster(num_processors=2, bandwidth=1.0)
        blind = LocMpsScheduler(comm_blind=True).schedule(g, cl)
        # comm-blind timing ignores the enormous edge entirely
        assert blind.makespan <= 20.0 + 1e-6


class TestGrowEdge:
    def test_equalizes_widths(self):
        alloc = {"a": 2, "b": 7}
        LocMpsScheduler()._grow_edge(("a", "b"), alloc, P=8)
        assert alloc == {"a": 7, "b": 7}

    def test_equal_widths_grow_both(self):
        alloc = {"a": 3, "b": 3}
        LocMpsScheduler()._grow_edge(("a", "b"), alloc, P=8)
        assert alloc == {"a": 4, "b": 4}

    def test_capped_at_P(self):
        alloc = {"a": 8, "b": 8}
        LocMpsScheduler()._grow_edge(("a", "b"), alloc, P=8)
        assert alloc == {"a": 8, "b": 8}


class TestLazyScheduleDagBuilds:
    def test_walk_builds_fewer_schedule_dags_than_it_runs_passes(
        self, monkeypatch
    ):
        import repro.schedulers.base as base_mod
        from repro.cluster import MYRINET_2GBPS
        from repro.perf.hotpath import wide_dag

        builds = []

        class CountingScheduleDAG(base_mod.ScheduleDAG):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(base_mod, "ScheduleDAG", CountingScheduleDAG)
        sched = LocMpsScheduler(look_ahead_depth=2)
        s = sched.schedule(
            wide_dag(16, seed=11),
            Cluster(num_processors=8, bandwidth=MYRINET_2GBPS),
        )
        passes = sched.memo_stats["misses"]
        assert len(s) == 16
        assert passes > 0
        assert len(builds) == 0
