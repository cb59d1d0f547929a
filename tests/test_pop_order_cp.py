"""LoC-MPS reads each pass's critical path from its pop order, not from ``G'``.

Every look-ahead step analyses one LoCBS pass: its critical path, the
path's ``Tcomp``/``Tcomm`` split and its real edges. LoC-MPS sweeps the
pass's pop order for them (``_pop_order_cp``) instead of building the
schedule-DAG ``G'``. These tests hold that summary equal, float for
float, to :class:`~repro.graph.pseudo.ScheduleDAG`'s answers on every
analysed pass of the benchmark's inputs.
"""

import numpy as np
import pytest

from repro.cluster import MYRINET_2GBPS, Cluster
from repro.graph import TaskGraph
from repro.graph.pseudo import ScheduleDAG
from repro.perf.hotpath import deep_dag, wide_dag
from repro.schedule import PlacedTask, Schedule
from repro.schedulers.base import SchedulingResult
from repro.schedulers.context import ExternalInput, SchedulingContext
from repro.schedulers.costcache import CostCache, GraphInvariants
from repro.schedulers.locmps import LocMpsScheduler, _cp_summary, _pop_order_cp
from repro.speedup import ExecutionProfile, LinearSpeedup
from repro.workloads.strassen import strassen_graph
from repro.workloads.tce import ccsd_t1_graph


def _myrinet(procs):
    return Cluster(num_processors=procs, bandwidth=MYRINET_2GBPS)


def _analysed_passes(monkeypatch, scheduler, graph, cluster):
    """Every pass result ``_next_candidate`` analyses during one run."""
    seen = {}
    original = LocMpsScheduler._next_candidate

    def recording(self, cur_result, *args):
        # nothing has built this pass's G' yet, so the summary read below
        # is the pop-order sweep's
        assert cur_result._sdag is None
        out = original(self, cur_result, *args)
        seen[id(cur_result)] = cur_result
        return out

    monkeypatch.setattr(LocMpsScheduler, "_next_candidate", recording)
    scheduler.schedule(graph, cluster)
    monkeypatch.undo()
    assert seen
    return list(seen.values())


def _assert_summaries_match_sdag(results, graph):
    inv = GraphInvariants(graph)
    for result in results:
        summary = _pop_order_cp(result.schedule, result.pseudo_edges, inv)
        assert summary is not None
        assert result._cp_summary == summary  # what the step read
        path, tcomp, tcomm, edges = summary
        sdag = result.sdag
        _length, sdag_path = sdag.critical_path()
        assert path == sdag_path
        assert (tcomp, tcomm) == sdag.path_costs(path)
        assert edges == sdag.real_edges_on_path(path)


def _bench_seed(seed, i):
    return np.random.SeedSequence([seed, i])


@pytest.mark.parametrize(
    "tasks, procs", [(8, 4), (16, 8)], ids=["smoke", "full"]
)
def test_wide_passes(monkeypatch, tasks, procs):
    graph = wide_dag(tasks, seed=_bench_seed(11, 0))
    results = _analysed_passes(
        monkeypatch, LocMpsScheduler(look_ahead_depth=2), graph, _myrinet(procs)
    )
    _assert_summaries_match_sdag(results, graph)


@pytest.mark.parametrize(
    "depth, width, procs", [(3, 2, 4), (4, 3, 12)], ids=["smoke", "full"]
)
def test_deep_passes(monkeypatch, depth, width, procs):
    graph = deep_dag(depth, width, seed=_bench_seed(12, 0))
    results = _analysed_passes(
        monkeypatch, LocMpsScheduler(look_ahead_depth=2), graph, _myrinet(procs)
    )
    _assert_summaries_match_sdag(results, graph)


@pytest.mark.parametrize("backfill", [True, False], ids=["backfill", "nobackfill"])
@pytest.mark.parametrize(
    "make_graph",
    [lambda: strassen_graph(1024), lambda: ccsd_t1_graph(o=8, v=24)],
    ids=["strassen", "ccsd_t1"],
)
def test_app_passes(monkeypatch, make_graph, backfill):
    graph = make_graph()
    results = _analysed_passes(
        monkeypatch, LocMpsScheduler(backfill=backfill), graph, _myrinet(3)
    )
    _assert_summaries_match_sdag(results, graph)


def test_deep_passes_under_context(monkeypatch):
    graph = deep_dag(3, 3, seed=_bench_seed(12, 1))
    context = SchedulingContext(
        processor_ready={0: 4.0, 1: 9.5, 3: 2.25},
        external_inputs={
            "t000_00": [ExternalInput(3.0, (0, 1), 8e6, label="old-a")],
            "t000_02": [
                ExternalInput(1.5, (2,), 4e6, label="old-b"),
                ExternalInput(6.0, (1, 3), 12e6, label="old-c"),
            ],
        },
    )
    results = _analysed_passes(
        monkeypatch,
        LocMpsScheduler(look_ahead_depth=3, context=context),
        graph,
        _myrinet(6),
    )
    _assert_summaries_match_sdag(results, graph)


@pytest.mark.parametrize(
    "make_graph, procs",
    [
        (lambda: wide_dag(16, seed=_bench_seed(11, 0)), 8),
        (lambda: deep_dag(4, 3, seed=_bench_seed(12, 0)), 12),
        (lambda: strassen_graph(256), 4),
        (lambda: ccsd_t1_graph(o=4, v=10), 4),
    ],
    ids=["wide", "deep", "strassen", "ccsd_t1"],
)
def test_locmps_builds_no_schedule_dag(monkeypatch, make_graph, procs):
    def refuse(*args, **kwargs):
        raise AssertionError("LoC-MPS built a ScheduleDAG")

    monkeypatch.setattr(ScheduleDAG, "__init__", refuse)
    sched = LocMpsScheduler(look_ahead_depth=2, explain=True)
    graph = make_graph()
    s = sched.schedule(graph, _myrinet(procs))
    assert sched.memo_stats["misses"] > 1
    assert len(s) == graph.num_tasks


def _chain_pass(pseudo_edges):
    """A two-task pass on one processor: ``b`` placed, then ``a``."""
    graph = TaskGraph("pair")
    for name in ("a", "b"):
        graph.add_task(name, ExecutionProfile(LinearSpeedup(), 2.0))
    schedule = Schedule(_myrinet(1))
    schedule.place(PlacedTask("b", 0.0, 0.0, 2.0, (0,)))
    schedule.place(PlacedTask("a", 2.0, 2.0, 4.0, (0,)))
    return graph, schedule, SchedulingResult(
        schedule, graph=graph, pseudo_edges=pseudo_edges
    )


def test_forward_pseudo_edge_joins_the_path():
    graph, _schedule, result = _chain_pass([("b", "a")])
    summary = _cp_summary(result, CostCache(_myrinet(1)))
    assert summary == (["b", "a"], 4.0, 0.0, [])
    assert result._sdag is None


def test_backward_pseudo_edge_falls_back_to_the_schedule_dag():
    # ("a", "b") runs against the pop order b, a: the sweep cannot use it
    graph, schedule, result = _chain_pass([("a", "b")])
    assert _pop_order_cp(schedule, result.pseudo_edges, GraphInvariants(graph)) is None
    summary = _cp_summary(result, CostCache(_myrinet(1)))
    assert result._sdag is not None
    assert summary == (["a", "b"], 4.0, 0.0, [])


def test_ready_made_schedule_dag_is_read():
    graph, schedule, _ = _chain_pass(())
    sdag = ScheduleDAG(graph, {"a": 2.0, "b": 2.0}, {})
    sdag.add_pseudo_edge("a", "b")  # not what the schedule's order says
    result = SchedulingResult(schedule, sdag=sdag)
    summary = _cp_summary(result, CostCache(_myrinet(1)))
    assert summary == (["a", "b"], 4.0, 0.0, [])
