"""The parallel scheduling backend: pools, spools, parallel sweeps.

Under test:

* every registered scheduler must survive a pickle round-trip (the
  contract that lets sweeps ship schedulers across process boundaries);
* ``available_parallelism`` must size pools by the affinity mask, not the
  machine's core count;
* ``run_comparison(workers=N, tracer=...)`` must stream cells through the
  warm pool and merge every worker's spooled trace events exactly once.
"""

from __future__ import annotations

import collections
import os
import pickle

import pytest

from repro.cluster import Cluster
from repro.exceptions import ExperimentError
from repro.experiments.common import run_comparison
from repro.obs import SpoolTracer, Tracer, merge_spool_dir
from repro.parallel import SchedulerPool, default_chunksize
from repro.perf import available_parallelism
from repro.perf.golden import schedule_digest
from repro.schedulers import get_scheduler
from repro.schedulers.registry import SCHEDULERS

from tests.helpers import build_random_graph


# -- pickling the registry -------------------------------------------------------


class TestSchedulerPickling:
    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_registry_scheduler_round_trips(self, name):
        original = SCHEDULERS[name]()
        clone = pickle.loads(pickle.dumps(original))
        graph = build_random_graph(6, 3)
        cluster = Cluster(num_processors=4, bandwidth=12.5e6)
        a = original.schedule(graph, cluster)
        b = clone.schedule(graph, cluster)
        assert a.makespan == b.makespan
        assert schedule_digest(a) == schedule_digest(b)


# -- SchedulerPool ---------------------------------------------------------------


def _double(env, x):
    return (env.context or 0) + 2 * x


class TestSchedulerPool:
    def test_map_ordered_with_context(self):
        with SchedulerPool(2, context=100) as pool:
            out = pool.map_ordered(_double, [(i,) for i in range(10)])
        assert out == [100 + 2 * i for i in range(10)]

    def test_imap_unordered_yields_every_index_once(self):
        with SchedulerPool(2) as pool:
            got = dict(pool.imap_unordered(_double, [(i,) for i in range(7)], chunksize=2))
        assert got == {i: 2 * i for i in range(7)}

    def test_submit_single(self):
        with SchedulerPool(1, context=5) as pool:
            assert pool.submit(_double, 10).result() == 25

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            SchedulerPool(0)

    def test_default_chunksize(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(8, 2) == 1
        assert default_chunksize(100, 4) == 7


class TestAvailableParallelism:
    def test_counts_the_affinity_mask(self, monkeypatch):
        # a container pinned to 3 of 64 cores must size its pools for 3
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_parallelism() == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_parallelism() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_parallelism() == 1


# -- spool merge -----------------------------------------------------------------


class TestSpoolMerge:
    def test_merge_orders_events_by_timestamp(self, tmp_path):
        a = SpoolTracer(tmp_path / "spool-1.jsonl")
        b = SpoolTracer(tmp_path / "spool-2.jsonl")
        a.event("first", idx=0)
        b.event("second", idx=1)
        a.event("third", idx=2)
        a.close()
        b.close()
        target = Tracer()
        merged = merge_spool_dir(target, tmp_path)
        assert merged == 3
        assert [e.ts for e in target.events] == sorted(e.ts for e in target.events)
        assert {e.name for e in target.events} == {"first", "second", "third"}
        assert target.counters.summary()["first"] == 1


# -- parallel sweeps -------------------------------------------------------------


class TestParallelSweepTracing:
    def test_workers_with_tracer_exactly_once_per_cell(self):
        graphs = [build_random_graph(6, s) for s in (0, 1)]
        schemes = ["cpa", "task"]
        procs = [2, 4]
        serial = run_comparison(graphs, schemes, procs, bandwidth=12.5e6)
        tracer = Tracer()
        parallel = run_comparison(
            graphs, schemes, procs, bandwidth=12.5e6, workers=2, tracer=tracer
        )
        assert serial.makespans == parallel.makespans
        cells = collections.Counter(
            (e.fields["graph"], e.fields["P"], e.fields["scheme"])
            for e in tracer.events
            if e.name == "experiment_cell"
        )
        expected = {
            (g.name, P, s) for g in graphs for P in procs for s in schemes
        }
        assert set(cells) == expected
        assert all(count == 1 for count in cells.values())
        # merged events arrive timestamp-ordered
        ts = [e.ts for e in tracer.events]
        assert ts == sorted(ts)

    def test_explicit_chunksize(self):
        graphs = [build_random_graph(5, s) for s in (0, 1, 2)]
        serial = run_comparison(graphs, ["task"], [2, 4], bandwidth=12.5e6)
        chunked = run_comparison(
            graphs, ["task"], [2, 4], bandwidth=12.5e6, workers=2, chunksize=1
        )
        assert serial.makespans == chunked.makespans

    def test_module_level_factory_crosses_workers(self):
        graphs = [build_random_graph(5, 1)]
        serial = run_comparison(
            graphs, ["task"], [2], bandwidth=12.5e6, scheduler_factory=get_scheduler
        )
        parallel = run_comparison(
            graphs,
            ["task"],
            [2],
            bandwidth=12.5e6,
            workers=2,
            scheduler_factory=get_scheduler,
        )
        assert serial.makespans == parallel.makespans

    def test_unpicklable_factory_rejected(self):
        with pytest.raises(ExperimentError, match="picklable"):
            run_comparison(
                [build_random_graph(4, 0)],
                ["task"],
                [2],
                bandwidth=1e6,
                workers=2,
                scheduler_factory=lambda name: None,
            )
