"""Cache benchmark harness."""

import pytest

from repro.cluster import Cluster
from repro.perf.cachebench import (
    perturb_graph,
    run_hit_benchmark,
    run_warm_benchmark,
    run_zipf_replay,
)
from repro.perf.golden import schedule_digest

from tests.helpers import build_random_graph


class TestPerturbGraph:
    def test_deterministic_and_scoped(self):
        g = build_random_graph(8, seed=3)
        p1 = perturb_graph(g, count=3, factor=1.05)
        p2 = perturb_graph(g, count=3, factor=1.05)
        changed = [
            t
            for t in g.tasks()
            if p1.task(t).profile.sequential_time
            != g.task(t).profile.sequential_time
        ]
        assert len(changed) == 3
        assert changed == sorted(g.tasks())[:3]
        # deterministic: same perturbation every time
        for t in g.tasks():
            assert (
                p1.task(t).profile.sequential_time
                == p2.task(t).profile.sequential_time
            )
        assert p1.edges() == g.edges()

    def test_factor_applied(self):
        g = build_random_graph(5, seed=1)
        p = perturb_graph(g, count=1, factor=2.0)
        t = sorted(g.tasks())[0]
        assert p.task(t).profile.sequential_time == pytest.approx(
            2.0 * g.task(t).profile.sequential_time
        )


class TestBenchmarks:
    cluster = Cluster(num_processors=4, bandwidth=12.5e6)

    def test_hit_benchmark_bit_identical(self):
        g = build_random_graph(8, seed=4)
        rec = run_hit_benchmark(g, self.cluster, None, repeats=3)
        assert rec["bit_identical"] is True
        assert rec["cold_s"] > 0
        assert rec["hit_s"] > 0
        assert rec["hit_speedup"] == rec["cold_s"] / rec["hit_s"]

    def test_warm_benchmark_reports_outcome(self):
        g = build_random_graph(10, seed=5)
        rec = run_warm_benchmark(g, self.cluster, None, perturb_count=2)
        assert rec["outcome"] in ("warm", "cold")
        assert rec["base_outcome"] == "cold"
        assert rec["cold_s"] > 0 and rec["warm_s"] > 0
        assert rec["perturbed_tasks"] == 2
        # the perturbed graph's schedules are real schedules either way
        assert rec["cold_makespan"] > 0 and rec["warm_makespan"] > 0

    def test_zipf_replay_hit_ratio(self):
        rec = run_zipf_replay(
            num_graphs=3, num_tasks=8, processors=4,
            requests=12, capacity=2, seed=7,
        )
        assert rec["stats"]["requests"] == 12
        assert 0.0 <= rec["hit_ratio"] <= rec["best_possible_hit_ratio"]
        # a skewed stream over 3 graphs must repeat something
        assert rec["hit_ratio"] > 0
        assert rec["distinct_requested"] <= 3

    def test_zipf_replay_deterministic_indices(self):
        a = run_zipf_replay(
            num_graphs=3, num_tasks=8, processors=4,
            requests=12, capacity=2, seed=7,
        )
        b = run_zipf_replay(
            num_graphs=3, num_tasks=8, processors=4,
            requests=12, capacity=2, seed=7,
        )
        assert a["hit_ratio"] == b["hit_ratio"]
        assert a["distinct_requested"] == b["distinct_requested"]
