"""LoCBS — the locality-conscious backfill scheduler (Algorithm 2)."""

import pytest

from repro import Cluster, TaskGraph, validate_schedule
from repro.exceptions import AllocationError, ScheduleError
from repro.graph.pseudo import ScheduleDAG
from repro.schedulers import LocbsOptions, ProvenanceRecorder, locbs_schedule
from repro.schedulers.base import SchedulingResult
from repro.speedup import AmdahlSpeedup, ExecutionProfile, LinearSpeedup

from tests.helpers import build_fig1_graph, build_random_graph


def lin(et1):
    return ExecutionProfile(LinearSpeedup(), et1)


class TestBasics:
    def test_single_task(self):
        g = TaskGraph()
        g.add_task("A", lin(10.0))
        cl = Cluster(num_processors=4)
        res = locbs_schedule(g, cl, {"A": 2})
        assert res.makespan == pytest.approx(5.0)
        assert res.schedule["A"].processors == (0, 1)

    def test_allocation_honored(self):
        g = TaskGraph()
        g.add_task("A", lin(10.0))
        g.add_task("B", lin(10.0))
        cl = Cluster(num_processors=4)
        res = locbs_schedule(g, cl, {"A": 3, "B": 1})
        assert res.schedule["A"].width == 3
        assert res.schedule["B"].width == 1

    def test_allocation_validated(self):
        g = TaskGraph()
        g.add_task("A", lin(1.0))
        cl = Cluster(num_processors=2)
        with pytest.raises(AllocationError):
            locbs_schedule(g, cl, {"A": 5})
        with pytest.raises(AllocationError):
            locbs_schedule(g, cl, {})

    def test_independent_tasks_run_concurrently(self):
        g = TaskGraph()
        g.add_task("A", lin(10.0))
        g.add_task("B", lin(10.0))
        cl = Cluster(num_processors=4)
        res = locbs_schedule(g, cl, {"A": 2, "B": 2})
        assert res.makespan == pytest.approx(5.0)

    def test_resource_serialization_adds_pseudo_edge(self):
        g = TaskGraph()
        g.add_task("A", lin(10.0))
        g.add_task("B", lin(10.0))
        cl = Cluster(num_processors=2)
        res = locbs_schedule(g, cl, {"A": 2, "B": 2})
        assert res.makespan == pytest.approx(10.0)
        assert res.sdag.pseudo_edges() == [("A", "B")]


class TestFig1:
    def test_reproduces_paper_fig1(self):
        g = build_fig1_graph()
        cl = Cluster(num_processors=4, bandwidth=1e6)
        res = locbs_schedule(g, cl, {"T1": 4, "T2": 3, "T3": 2, "T4": 4})
        assert res.makespan == pytest.approx(30.0)
        assert res.sdag.pseudo_edges() == [("T2", "T3")]
        length, path = res.sdag.critical_path()
        assert length == pytest.approx(30.0)
        assert path == ["T1", "T2", "T3", "T4"]


class TestBackfill:
    def test_backfills_into_hole(self):
        # Wide task A blocks everything; small C fits into the hole next to
        # narrow B only when backfilling is on.
        g = TaskGraph()
        g.add_task("A", lin(10.0))
        g.add_task("B", lin(4.0))
        g.add_task("C", lin(2.0))
        g.add_edge("A", "B")  # B after A
        cl = Cluster(num_processors=2)
        # priority order: A (bl 14), then B, then C; with backfill C runs at
        # t=0 on the idle second processor
        res = locbs_schedule(g, cl, {"A": 1, "B": 1, "C": 1})
        assert res.schedule["C"].start == pytest.approx(0.0)
        assert res.makespan == pytest.approx(14.0)

    def test_no_backfill_defers(self):
        g = TaskGraph()
        g.add_task("A", lin(10.0))
        g.add_task("B", lin(4.0))
        g.add_task("C", lin(2.0))
        g.add_edge("A", "B")
        cl = Cluster(num_processors=2)
        res = locbs_schedule(
            g, cl, {"A": 1, "B": 1, "C": 1}, LocbsOptions(backfill=False)
        )
        # C is lowest priority but processor 1 is free from t=0 even under
        # EAT bookkeeping, so it still starts immediately.
        assert res.schedule["C"].start == pytest.approx(0.0)
        validate_schedule(res.schedule, g)

    def test_backfill_no_worse_on_average(self):
        # Per-instance dominance is not guaranteed (both variants make
        # greedy locality choices); the paper's claim is aggregate, so the
        # geometric-mean makespan with backfill must not be worse.
        import math

        log_ratio = 0.0
        for seed in range(8):
            g = build_random_graph(12, seed)
            cl = Cluster(num_processors=6)
            alloc = {t: 1 + (i % 3) for i, t in enumerate(g.tasks())}
            with_bf = locbs_schedule(g, cl, alloc).makespan
            without = locbs_schedule(
                g, cl, alloc, LocbsOptions(backfill=False)
            ).makespan
            log_ratio += math.log(with_bf / without)
        assert log_ratio <= 1e-9


class TestLocality:
    def test_child_prefers_parent_processors(self):
        g = TaskGraph()
        g.add_task("A", lin(4.0))
        g.add_task("B", lin(4.0))
        g.add_edge("A", "B", 1e9)  # enormous volume: locality decisive
        cl = Cluster(num_processors=8, bandwidth=1e6)
        res = locbs_schedule(g, cl, {"A": 2, "B": 2})
        assert res.schedule["B"].processors == res.schedule["A"].processors
        assert res.schedule.edge_comm_times[("A", "B")] == 0.0

    def test_comm_blind_ignores_volumes(self):
        g = TaskGraph()
        g.add_task("A", lin(4.0))
        g.add_task("B", lin(4.0))
        g.add_edge("A", "B", 1e9)
        cl = Cluster(num_processors=4, bandwidth=1e3)
        res = locbs_schedule(g, cl, {"A": 1, "B": 1}, LocbsOptions(comm_blind=True))
        # schedule is timed as if the edge were free
        assert res.makespan == pytest.approx(8.0)

    def test_comm_delays_start_overlap_mode(self):
        g = TaskGraph()
        g.add_task("A", lin(4.0))
        g.add_task("B", lin(4.0))
        g.add_edge("A", "B", 1000.0)
        cl = Cluster(num_processors=2, bandwidth=10.0)
        # force disjoint processor sets by allocating both full width? No:
        # allocate 1 proc each; B prefers A's processor (locality) so comm
        # is free there.
        res = locbs_schedule(g, cl, {"A": 1, "B": 1})
        assert res.schedule["B"].processors == res.schedule["A"].processors


class TestNoOverlapMode:
    def test_comm_occupies_destination(self):
        g = TaskGraph()
        g.add_task("A", lin(4.0))
        g.add_task("B", lin(4.0))
        g.add_task("C", lin(4.0))
        g.add_edge("A", "C", 1000.0)
        g.add_edge("B", "C", 1000.0)
        cl = Cluster(num_processors=2, bandwidth=10.0, overlap=False)
        res = locbs_schedule(g, cl, {"A": 1, "B": 1, "C": 2})
        placed = res.schedule["C"]
        # C receives from both parents; at least one transfer is non-local
        assert placed.exec_start > placed.start
        validate_schedule(res.schedule, g)

    def test_valid_on_random_graphs(self):
        for seed in (0, 1):
            g = build_random_graph(10, seed)
            cl = Cluster(num_processors=4, overlap=False)
            res = locbs_schedule(g, cl, {t: 1 for t in g.tasks()})
            assert validate_schedule(res.schedule, g) == []


class TestValidity:
    @pytest.mark.parametrize("seed", range(6))
    def test_always_valid_random(self, seed):
        g = build_random_graph(14, seed)
        cl = Cluster(num_processors=5)
        alloc = {t: 1 + (hash(t) % 3) for t in g.tasks()}
        res = locbs_schedule(g, cl, alloc)
        assert validate_schedule(res.schedule, g) == []
        # schedule-DAG critical path length equals the makespan... at least
        # bounds it from below (CP is the longest chain of the schedule)
        length, _ = res.sdag.critical_path()
        assert length <= res.makespan + 1e-6


class TestBaseGuard:
    """``base`` must come from a pass over the same graph and cluster."""

    def _base(self):
        g = build_random_graph(8, 2)
        cl = Cluster(num_processors=4)
        alloc = {t: 1 for t in g.tasks()}
        return g, cl, alloc, locbs_schedule(g, cl, alloc)

    def test_same_graph_and_cluster_accepted(self):
        g, cl, alloc, base = self._base()
        res = locbs_schedule(g, cl, alloc, base=base)
        assert res.placements_reused == g.num_tasks
        assert base.placements_reused == 0

    def test_other_graph_rejected(self):
        g, cl, alloc, base = self._base()
        twin = build_random_graph(8, 2)  # equal content, another object
        with pytest.raises(ScheduleError, match="different graph"):
            locbs_schedule(twin, cl, alloc, base=base)

    def test_other_cluster_rejected(self):
        g, cl, alloc, base = self._base()
        twin = Cluster(num_processors=4)  # equal content, another object
        with pytest.raises(ScheduleError, match="different cluster"):
            locbs_schedule(g, twin, alloc, base=base)

    def test_provenance_needs_a_cold_pass(self):
        g, cl, alloc, base = self._base()
        with pytest.raises(ScheduleError, match="cold pass"):
            locbs_schedule(
                g, cl, alloc, base=base, provenance=ProvenanceRecorder()
            )


class TestLazyScheduleDag:
    """A LoCBS result builds its ``G'`` on the first read of ``.sdag``."""

    @pytest.mark.parametrize("seed", range(4))
    def test_lazy_sdag_equals_an_eager_build(self, seed):
        g = build_random_graph(16, seed)
        cl = Cluster(num_processors=4)
        res = locbs_schedule(g, cl, {t: 1 + (int(t[1:]) % 3) for t in g.tasks()})
        sched = res.schedule
        eager = ScheduleDAG(
            g, {p.name: p.exec_duration for p in sched}, sched.edge_comm_times
        )
        for u, v in res.pseudo_edges:
            eager.add_pseudo_edge(u, v)
        lazy = res.sdag
        assert lazy is res.sdag  # built once
        assert lazy.pseudo_edges() == eager.pseudo_edges()
        assert lazy.real_edges() == eager.real_edges()
        assert all(
            lazy.vertex_weight(t) == eager.vertex_weight(t) for t in g.tasks()
        )
        assert all(
            lazy.edge_weight(u, v) == eager.edge_weight(u, v)
            for u, v in eager.real_edges() + eager.pseudo_edges()
        )
        assert lazy.critical_path() == eager.critical_path()

    def test_pseudo_edge_pairs_are_in_pop_order(self):
        g = build_random_graph(16, 3)
        res = locbs_schedule(g, Cluster(num_processors=3), {t: 2 for t in g.tasks()})
        pos = {p.name: i for i, p in enumerate(res.schedule)}
        assert res.pseudo_edges
        dsts = [pos[v] for _, v in res.pseudo_edges]
        assert dsts == sorted(dsts)
        assert all(pos[u] < pos[v] for u, v in res.pseudo_edges)

    def test_eager_sdag_is_kept(self):
        g = build_random_graph(6, 1)
        res = locbs_schedule(g, Cluster(num_processors=2), {t: 1 for t in g.tasks()})
        given = SchedulingResult(schedule=res.schedule, sdag=res.sdag)
        assert given.sdag is res.sdag
        assert given.graph is g
