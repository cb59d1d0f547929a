"""Perturbed near-neighbour graphs for the cache's warm-start path."""

import pytest

from repro.perf.cachebench import perturb_graph

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

