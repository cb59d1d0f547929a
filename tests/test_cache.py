"""Content-addressed schedule cache: fingerprints, tiers, warm starts, CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Cluster, TaskGraph
from repro.cache import (
    CachedScheduleService,
    ScheduleCache,
    canonical_json,
    cluster_fingerprint,
    config_fingerprint,
    graph_fingerprint,
    graph_signature,
    request_fingerprint,
    scheme_config,
    signature_delta,
)
from repro.cache.cli import main as cache_main
from repro.exceptions import CacheError, ExperimentError
from repro.experiments.common import run_comparison
from repro.graph.serialization import save_graph
from repro.perf.golden import schedule_digest
from repro.schedulers.locmps import LocMpsScheduler
from repro.speedup import (
    AmdahlSpeedup,
    DowneySpeedup,
    ExecutionProfile,
    LinearSpeedup,
)

from tests.helpers import build_random_graph

SRC = str(Path(__file__).resolve().parents[1] / "src")


def chain_graph(n=4, *, model=None, volume=1e6, name="chain", scale=1.0):
    g = TaskGraph(name)
    for i in range(n):
        g.add_task(
            f"t{i}",
            ExecutionProfile(
                model or DowneySpeedup(8.0, 1.0), (5.0 + i) * scale
            ),
        )
    for i in range(n - 1):
        g.add_edge(f"t{i}", f"t{i + 1}", volume)
    return g


def shuffled_copy(g: TaskGraph) -> TaskGraph:
    """Same content as *g*, inserted in reversed task/edge order."""
    out = TaskGraph("other-name")
    for name in reversed(g.tasks()):
        task = g.task(name)
        out.add_task(name, task.profile, **task.attrs)
    for u, v in reversed(g.edges()):
        out.add_edge(u, v, g.data_volume(u, v))
    return out


class TestFingerprint:
    def test_insertion_order_invariant(self):
        g = build_random_graph(10, seed=5)
        assert graph_fingerprint(shuffled_copy(g)) == graph_fingerprint(g)

    def test_cosmetic_names_excluded(self):
        a = chain_graph(name="alpha")
        b = chain_graph(name="beta")
        assert graph_fingerprint(a) == graph_fingerprint(b)
        c1 = Cluster(num_processors=4, bandwidth=1e7, name="x")
        c2 = Cluster(num_processors=4, bandwidth=1e7, name="y")
        assert cluster_fingerprint(c1) == cluster_fingerprint(c2)

    def test_content_changes_fingerprint(self):
        assert graph_fingerprint(chain_graph()) != graph_fingerprint(
            chain_graph(scale=1.01)
        )
        assert graph_fingerprint(chain_graph(volume=1e6)) != graph_fingerprint(
            chain_graph(volume=2e6)
        )

    def test_cluster_fields_distinguish(self):
        base = Cluster(num_processors=4, bandwidth=1e7)
        for other in (
            Cluster(num_processors=8, bandwidth=1e7),
            Cluster(num_processors=4, bandwidth=2e7),
            Cluster(num_processors=4, bandwidth=1e7, overlap=False),
        ):
            assert cluster_fingerprint(other) != cluster_fingerprint(base)

    def test_config_key_order_irrelevant(self):
        a = config_fingerprint({"scheme": "locmps", "options": {"a": 1, "b": 2}})
        b = config_fingerprint({"options": {"b": 2, "a": 1}, "scheme": "locmps"})
        assert a == b
        assert config_fingerprint(scheme_config("locmps")) != config_fingerprint(
            scheme_config("task")
        )

    def test_non_finite_rejected(self):
        with pytest.raises(CacheError):
            canonical_json({"x": float("nan")})
        with pytest.raises(CacheError):
            canonical_json({"x": object()})

    def test_stable_across_hash_seeds(self):
        snippet = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.cluster import Cluster\n"
            "from repro.graph import TaskGraph\n"
            "from repro.speedup import DowneySpeedup, ExecutionProfile\n"
            "from repro.cache import request_fingerprint, scheme_config\n"
            "g = TaskGraph('hs')\n"
            "for i in range(12):\n"
            "    g.add_task('t%d' % i,"
            " ExecutionProfile(DowneySpeedup(8.0, 1.0), 5.0 + i))\n"
            "for i in range(11):\n"
            "    g.add_edge('t%d' % i, 't%d' % (i + 1), 1e6 * (i + 1))\n"
            "key = request_fingerprint(g,"
            " Cluster(num_processors=8, bandwidth=12.5e6),"
            " scheme_config('locmps', {{'look_ahead_depth': 8}}))\n"
            "print(key.fingerprint)\n"
        ).format(src=SRC)
        outputs = set()
        for seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", snippet],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(out.stdout.strip())
        assert len(outputs) == 1

    def test_signature_delta(self):
        g = build_random_graph(8, seed=2)
        sig = graph_signature(g)
        assert signature_delta(sig, graph_signature(shuffled_copy(g))) == 0
        # perturbing one leaf task's time changes exactly that vertex
        a = chain_graph(4)
        b = chain_graph(4)
        doc_sig_a = graph_signature(a)
        from repro.graph.serialization import graph_from_dict, graph_to_dict

        doc = graph_to_dict(b)
        for t in doc["tasks"]:
            if t["name"] == "t3":
                t["sequential_time"] *= 2.0
        delta = signature_delta(doc_sig_a, graph_signature(graph_from_dict(doc)))
        assert delta == 1


    def test_request_key_digest_computed_once(self, monkeypatch):
        import repro.cache.fingerprint as fp_mod

        key = request_fingerprint(
            chain_graph(), Cluster(num_processors=4), scheme_config("locmps")
        )
        calls = []
        real_digest = fp_mod._digest

        def counting(doc):
            calls.append(doc)
            return real_digest(doc)

        monkeypatch.setattr(fp_mod, "_digest", counting)
        first = key.fingerprint
        assert key.fingerprint == first
        assert len(calls) == 1
        assert first == real_digest(
            {
                "schema": fp_mod.FINGERPRINT_SCHEMA,
                "graph": key.graph_fp,
                "cluster": key.cluster_fp,
                "config": key.config_fp,
            }
        )


class TestScheduleCache:
    def _schedule(self, g, cluster):
        return LocMpsScheduler().schedule(g, cluster)

    def test_hit_is_fresh_and_bit_identical(self):
        g = build_random_graph(8, seed=1)
        cluster = Cluster(num_processors=4, bandwidth=12.5e6)
        key = request_fingerprint(g, cluster, scheme_config("locmps"))
        cache = ScheduleCache()
        schedule = self._schedule(g, cluster)
        cache.store(key, schedule, g)
        hit = cache.lookup(key, graph=g)
        assert hit is not None and hit is not schedule
        assert schedule_digest(hit) == schedule_digest(schedule)
        assert hit.makespan == schedule.makespan
        assert cache.stats["memory_hits"] == 1

    def test_lru_eviction_and_stats(self):
        cluster = Cluster(num_processors=2, bandwidth=1e7)
        cache = ScheduleCache(capacity=2)
        keys = []
        for seed in (1, 2, 3):
            g = build_random_graph(5, seed=seed)
            key = request_fingerprint(g, cluster, scheme_config("locmps"))
            cache.store(key, self._schedule(g, cluster), g)
            keys.append((key, g))
        assert len(cache) == 2
        assert cache.stats["evictions"] == 1
        assert cache.stats["peak_size"] == 2
        # memory-only: the evicted (oldest) entry is gone
        assert cache.lookup(keys[0][0], graph=keys[0][1]) is None

    def test_disk_tier_promotion(self, tmp_path):
        g = build_random_graph(7, seed=4)
        cluster = Cluster(num_processors=4, bandwidth=12.5e6)
        key = request_fingerprint(g, cluster, scheme_config("locmps"))
        first = ScheduleCache(cache_dir=tmp_path)
        schedule = self._schedule(g, cluster)
        first.store(key, schedule, g)
        assert first.disk_size() == 1
        # a fresh cache over the same directory = a later process
        second = ScheduleCache(cache_dir=tmp_path)
        hit = second.lookup(key, graph=g)
        assert hit is not None
        assert second.stats["disk_hits"] == 1
        assert schedule_digest(hit) == schedule_digest(schedule)
        second.lookup(key, graph=g)
        assert second.stats["memory_hits"] == 1

    def test_corrupt_disk_entry_dropped(self, tmp_path):
        g = build_random_graph(6, seed=9)
        cluster = Cluster(num_processors=4, bandwidth=12.5e6)
        key = request_fingerprint(g, cluster, scheme_config("locmps"))
        path = tmp_path / f"{key.fingerprint}.json"
        path.write_text("{ not json")
        cache = ScheduleCache(cache_dir=tmp_path)
        assert cache.lookup(key, graph=g) is None
        assert cache.stats["invalid"] == 1
        assert not path.exists()

    def test_stale_entry_fails_validation(self, tmp_path):
        g = build_random_graph(6, seed=9)
        cluster = Cluster(num_processors=4, bandwidth=12.5e6)
        key = request_fingerprint(g, cluster, scheme_config("locmps"))
        cache = ScheduleCache(cache_dir=tmp_path)
        cache.store(key, self._schedule(g, cluster), g)
        path = tmp_path / f"{key.fingerprint}.json"
        entry = json.loads(path.read_text())
        del entry["schedule"]["placements"][0]  # now incomplete vs the graph
        path.write_text(json.dumps(entry))
        fresh = ScheduleCache(cache_dir=tmp_path)
        assert fresh.lookup(key, graph=g) is None
        assert fresh.stats["invalid"] == 1

    def test_store_rejects_unknown_mode(self):
        g = build_random_graph(5, seed=1)
        cluster = Cluster(num_processors=2, bandwidth=1e7)
        key = request_fingerprint(g, cluster, scheme_config("locmps"))
        cache = ScheduleCache()
        with pytest.raises(CacheError):
            cache.store(key, self._schedule(g, cluster), g, mode="tepid")

    def test_nearest_neighbor_delta(self):
        g = chain_graph(5)
        cluster = Cluster(num_processors=4, bandwidth=12.5e6)
        config = scheme_config("locmps")
        cache = ScheduleCache()
        cache.store(
            request_fingerprint(g, cluster, config), self._schedule(g, cluster), g
        )
        perturbed = chain_graph(5, scale=1.05)
        key = request_fingerprint(perturbed, cluster, config)
        found = cache.nearest(key, graph_signature(perturbed))
        assert found is not None
        entry, delta = found
        assert delta == 5  # every task's time changed
        assert entry["key"]["graph_fp"] == graph_fingerprint(g)
        # a delta cap below the real delta suppresses the match
        assert cache.nearest(key, graph_signature(perturbed), max_delta=4) is None
        # different cluster fingerprint: never a candidate
        other = request_fingerprint(
            perturbed, Cluster(num_processors=8, bandwidth=12.5e6), config
        )
        assert cache.nearest(other, graph_signature(perturbed)) is None


class TestWarmStart:
    cluster = Cluster(num_processors=4, bandwidth=1e7)

    def test_profitable_seed_adopted(self):
        # linear speedup, no communication: every width-4 allocation is
        # strictly better than all-ones, so the seed must be adopted
        g = chain_graph(3, model=LinearSpeedup(), volume=0.0)
        warm = LocMpsScheduler(
            initial_allocation={"t0": 4, "t1": 4, "t2": 4}
        )
        schedule = warm.schedule(g, self.cluster)
        assert warm.warm_start_stats["attempted"] == 1
        assert warm.warm_start_stats["adopted"] == 1
        cold = LocMpsScheduler().schedule(g, self.cluster)
        assert schedule.makespan <= cold.makespan + 1e-9

    def test_unprofitable_seed_falls_back_bit_identical(self):
        # serial-fraction-1 Amdahl: wider never helps, so the warm seed
        # cannot strictly beat all-ones and the walk must be bit-identical
        # to a cold run
        g = chain_graph(3, model=AmdahlSpeedup(1.0), volume=0.0)
        warm = LocMpsScheduler(
            initial_allocation={"t0": 4, "t1": 4, "t2": 4}
        )
        warm_schedule = warm.schedule(g, self.cluster)
        assert warm.warm_start_stats["attempted"] == 1
        assert warm.warm_start_stats["rejected"] == 1
        cold_schedule = LocMpsScheduler().schedule(g, self.cluster)
        assert schedule_digest(warm_schedule) == schedule_digest(cold_schedule)
        assert warm_schedule.makespan == cold_schedule.makespan

    def test_unknown_tasks_ignored_and_clamped(self):
        g = chain_graph(3)
        warm = LocMpsScheduler(
            initial_allocation={"ghost": 3, "t0": 99, "t1": 0}
        )
        schedule = warm.schedule(g, self.cluster)  # must not raise
        cold = LocMpsScheduler().schedule(g, self.cluster)
        # whatever happened, the result is at least as good as cold
        assert schedule.makespan <= cold.makespan + 1e-9

    def test_config_doc_records_seed(self):
        sched = LocMpsScheduler(initial_allocation={"a": 2})
        assert sched.initial_allocation == {"a": 2}


class TestCachedScheduleService:
    cluster = Cluster(num_processors=4, bandwidth=12.5e6)

    def test_cold_then_hit(self):
        g = build_random_graph(8, seed=6)
        service = CachedScheduleService(ScheduleCache())
        first = service.schedule(g, self.cluster)
        assert first.outcome == "cold"
        second = service.schedule(g, self.cluster)
        assert second.outcome == "hit"
        assert schedule_digest(second.schedule) == schedule_digest(
            first.schedule
        )
        assert service.stats == {
            "requests": 2, "hits": 1, "warm": 0, "cold": 1,
        }

    def test_perturbed_neighbor_request(self):
        g = chain_graph(5, model=LinearSpeedup(), volume=0.0)
        service = CachedScheduleService(ScheduleCache())
        service.schedule(g, self.cluster)
        perturbed = chain_graph(5, model=LinearSpeedup(), volume=0.0, scale=1.1)
        res = service.schedule(perturbed, self.cluster)
        assert res.outcome in ("warm", "cold")
        if res.outcome == "warm":
            assert res.delta == 5
            assert res.neighbor_fp == graph_fingerprint(g)
        # either way the result was stored and now hits
        assert service.schedule(perturbed, self.cluster).outcome == "hit"

    def test_non_locmps_scheme_cached_without_neighbor_scan(self):
        g = build_random_graph(7, seed=8)
        cache = ScheduleCache()
        service = CachedScheduleService(cache, scheme="task")
        assert service.schedule(g, self.cluster).outcome == "cold"
        assert service.schedule(g, self.cluster).outcome == "hit"

    def test_rejects_bad_configuration(self):
        with pytest.raises(CacheError):
            CachedScheduleService(ScheduleCache(), scheme="nope")
        with pytest.raises(CacheError):
            CachedScheduleService(
                ScheduleCache(), scheme="task", scheduler_options={"x": 1}
            )
        with pytest.raises(CacheError):
            CachedScheduleService(
                ScheduleCache(),
                scheduler_options={"initial_allocation": {"a": 1}},
            )

    def test_options_join_the_fingerprint(self):
        g = build_random_graph(6, seed=3)
        cache = ScheduleCache()
        a = CachedScheduleService(cache)
        b = CachedScheduleService(
            cache, scheduler_options={"look_ahead_depth": 2}
        )
        assert a.schedule(g, self.cluster).outcome == "cold"
        # different config fingerprint: not a hit for the other service
        assert b.schedule(g, self.cluster).outcome in ("warm", "cold")


class TestRunComparisonCache:
    graphs = None

    def _graphs(self):
        return [build_random_graph(6, s) for s in (0, 1)]

    def test_rerun_hits_and_results_identical(self, tmp_path):
        kwargs = dict(bandwidth=12.5e6)
        first = run_comparison(
            self._graphs(), ["locmps", "task"], [2, 4],
            cache=tmp_path / "c", **kwargs
        )
        cache = ScheduleCache(cache_dir=tmp_path / "c")
        second = run_comparison(
            self._graphs(), ["locmps", "task"], [2, 4], cache=cache, **kwargs
        )
        assert cache.stats["hits"] == 2 * 2 * 2  # every cell hit
        assert second.makespans == first.makespans
        assert second.sched_times == first.sched_times

    def test_results_match_uncached(self):
        baseline = run_comparison(
            self._graphs(), ["locmps"], [2, 4], bandwidth=12.5e6
        )
        cached = run_comparison(
            self._graphs(), ["locmps"], [2, 4],
            bandwidth=12.5e6, cache=ScheduleCache(),
        )
        assert cached.makespans == baseline.makespans

    def test_duplicate_graphs_hit_within_one_run(self):
        g = build_random_graph(6, seed=0)
        cache = ScheduleCache()
        run_comparison([g, g], ["task"], [2], bandwidth=12.5e6, cache=cache)
        assert cache.stats["hits"] == 1
        assert cache.stats["misses"] == 1

    def test_workers_share_disk_tier(self, tmp_path):
        kwargs = dict(bandwidth=12.5e6)
        serial = run_comparison(
            self._graphs(), ["locmps", "task"], [2, 4],
            cache=tmp_path / "c", **kwargs
        )
        parallel = run_comparison(
            self._graphs(), ["locmps", "task"], [2, 4],
            cache=tmp_path / "c", workers=2, **kwargs
        )
        assert parallel.makespans == serial.makespans
        assert parallel.sched_times == serial.sched_times

    def test_memory_only_cache_with_workers_rejected(self):
        with pytest.raises(ExperimentError):
            run_comparison(
                self._graphs(), ["task"], [2],
                bandwidth=12.5e6, cache=ScheduleCache(), workers=2,
            )

    def test_cache_with_factory_rejected(self):
        with pytest.raises(ExperimentError):
            run_comparison(
                self._graphs(), ["locmps"], [2],
                bandwidth=12.5e6,
                cache=ScheduleCache(),
                scheduler_factory=LocMpsScheduler,
            )

    def test_bogus_cache_type_rejected(self):
        with pytest.raises(ExperimentError):
            run_comparison(
                self._graphs(), ["task"], [2], bandwidth=12.5e6, cache=42
            )


class TestCacheCli:
    def _write_graph(self, tmp_path):
        g = build_random_graph(6, seed=5)
        path = tmp_path / "g.json"
        save_graph(g, path)
        return path

    def test_lookup_schedule_roundtrip(self, tmp_path, capsys):
        gpath = self._write_graph(tmp_path)
        cdir = tmp_path / "cache"
        base = ["--dir", str(cdir), "--graph", str(gpath), "--procs", "4"]
        assert cache_main(["lookup"] + base) == 3  # miss branches the shell
        assert "miss" in capsys.readouterr().out
        assert cache_main(["schedule"] + base + [
            "--out", str(tmp_path / "s.json")
        ]) == 0
        out = capsys.readouterr().out
        assert "cold:" in out
        assert (tmp_path / "s.json").is_file()
        assert cache_main(["lookup"] + base) == 0
        assert "hit" in capsys.readouterr().out
        assert cache_main(["schedule"] + base) == 0
        assert "hit:" in capsys.readouterr().out

    def test_stats(self, tmp_path, capsys):
        gpath = self._write_graph(tmp_path)
        cdir = tmp_path / "cache"
        base = ["--dir", str(cdir), "--graph", str(gpath), "--procs", "2"]
        cache_main(["schedule"] + base)
        capsys.readouterr()
        assert cache_main(["stats", "--dir", str(cdir)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == 1
        assert doc["modes"] == {"cold": 1}
        assert doc["bytes"] > 0


class TestObservability:
    def test_events_fold_into_registry_and_dashboard(self):
        from repro.obs import Tracer
        from repro.obs.dashboard import render_dashboard
        from repro.obs.registry import registry_from_events, render_openmetrics

        tracer = Tracer()
        g = build_random_graph(7, seed=2)
        cluster = Cluster(num_processors=4, bandwidth=12.5e6)
        cache = ScheduleCache(tracer=tracer)
        service = CachedScheduleService(cache, tracer=tracer)
        service.schedule(g, cluster)
        service.schedule(g, cluster)
        reg = registry_from_events(tracer.events)
        text = render_openmetrics(reg)
        assert 'repro_cache_ops_total{op="hit",tier="memory"} 1' in text
        assert 'repro_cache_ops_total{op="miss"} 1' in text
        assert 'repro_cache_ops_total{mode="cold",op="store"} 1' in text
        html = render_dashboard(tracer.events)
        assert "Cache hit rate" in html
        assert "50.0%" in html

    def test_metrics_registry_counts_directly(self):
        from repro.obs.registry import MetricsRegistry

        reg = MetricsRegistry()
        g = build_random_graph(5, seed=1)
        cluster = Cluster(num_processors=2, bandwidth=1e7)
        cache = ScheduleCache(metrics=reg)
        key = request_fingerprint(g, cluster, scheme_config("locmps"))
        assert cache.lookup(key, graph=g) is None
        cache.store(key, LocMpsScheduler().schedule(g, cluster), g)
        cache.lookup(key, graph=g)
        rendered = reg.render()
        assert "cache_ops" in rendered
