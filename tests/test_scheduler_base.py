"""Scheduler base helpers: allocation clamping, edge-cost maps, timing."""

import pytest

from repro import Cluster, TaskGraph
from repro.exceptions import AllocationError
from repro.schedulers.base import (
    Scheduler,
    SchedulingResult,
    clamp_allocation,
    edge_cost_map,
)
from repro.speedup import ExecutionProfile, LinearSpeedup


def make_pair():
    g = TaskGraph()
    g.add_task("A", ExecutionProfile(LinearSpeedup(), 10.0))
    g.add_task("B", ExecutionProfile(LinearSpeedup(), 10.0))
    g.add_edge("A", "B", 100.0)
    return g


class TestClampAllocation:
    def test_passes_valid(self):
        g = make_pair()
        cl = Cluster(num_processors=4)
        out = clamp_allocation(g, cl, {"A": 1, "B": 4})
        assert out == {"A": 1, "B": 4}

    def test_missing_task(self):
        g = make_pair()
        cl = Cluster(num_processors=4)
        with pytest.raises(AllocationError, match="missing"):
            clamp_allocation(g, cl, {"A": 1})

    def test_out_of_range(self):
        g = make_pair()
        cl = Cluster(num_processors=4)
        with pytest.raises(AllocationError):
            clamp_allocation(g, cl, {"A": 0, "B": 1})
        with pytest.raises(AllocationError):
            clamp_allocation(g, cl, {"A": 5, "B": 1})

    @pytest.mark.parametrize(
        "width", [1.5, 0.5, float("nan"), float("inf"), "2"],
        ids=["fraction", "below-one", "nan", "inf", "string"],
    )
    def test_non_whole_width_raises(self, width):
        g = make_pair()
        cl = Cluster(num_processors=4)
        with pytest.raises(AllocationError, match="not whole"):
            clamp_allocation(g, cl, {"A": width, "B": 1})

    def test_whole_floats_and_numpy_ints_pass(self):
        np = pytest.importorskip("numpy")
        g = make_pair()
        cl = Cluster(num_processors=4)
        out = clamp_allocation(g, cl, {"A": 2.0, "B": np.int64(3)})
        assert out == {"A": 2, "B": 3}
        assert all(type(w) is int for w in out.values())

    def test_returns_copy(self):
        g = make_pair()
        cl = Cluster(num_processors=4)
        alloc = {"A": 1, "B": 2}
        out = clamp_allocation(g, cl, alloc)
        out["A"] = 3
        assert alloc["A"] == 1


class TestEdgeCostMap:
    def test_estimate_formula(self):
        g = make_pair()
        cl = Cluster(num_processors=4, bandwidth=10.0)
        costs = edge_cost_map(g, cl, {"A": 2, "B": 4})
        # 100 bytes / (min(2,4) * 10 B/s)
        assert costs[("A", "B")] == pytest.approx(5.0)

    def test_comm_blind_zeroes(self):
        g = make_pair()
        cl = Cluster(num_processors=4, bandwidth=10.0)
        costs = edge_cost_map(g, cl, {"A": 2, "B": 4}, comm_blind=True)
        assert costs[("A", "B")] == 0.0


class TestSchedulerTiming:
    def test_schedule_records_wallclock_and_name(self):
        from repro.schedulers import TaskParallelScheduler

        g = make_pair()
        cl = Cluster(num_processors=2)
        s = TaskParallelScheduler().schedule(g, cl)
        assert s.scheduling_time > 0
        assert s.scheduler == "task"

    def test_schedule_validates_graph_first(self):
        from repro.schedulers import TaskParallelScheduler

        g = make_pair()
        g.nx_graph().add_edge("B", "A", data_volume=0.0)  # backdoor cycle
        cl = Cluster(num_processors=2)
        from repro.exceptions import CycleError

        with pytest.raises(CycleError):
            TaskParallelScheduler().schedule(g, cl)

    def test_scheduling_result_makespan_property(self):
        from repro.schedulers import locbs_schedule

        g = make_pair()
        cl = Cluster(num_processors=2)
        result = locbs_schedule(g, cl, {"A": 1, "B": 1})
        assert result.makespan == result.schedule.makespan
