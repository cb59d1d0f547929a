"""Synthetic Poisson/Zipf arrival streams for the online daemon.

Arrivals follow a Poisson process (exponential inter-arrival times at a
configurable rate); each arrival instantiates one of a small library of
mixed-parallel application *templates*, chosen with Zipf-distributed
popularity (rank ``k`` drawn with probability proportional to
``1/k^s``) — the skew that makes cross-event reuse pay: the daemon's
cost cache and the content-addressed schedule cache both key repeated
templates to the same state.

Everything is driven by one :func:`repro.utils.rng.as_generator` stream,
so a ``(templates, n_jobs, rate, seed)`` tuple reproduces the identical
job list on any platform and under any ``PYTHONHASHSEED`` — the
determinism contract the subprocess test in
``tests/test_online_daemon.py`` enforces.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.graph import TaskGraph
from repro.online.jobs import Job
from repro.speedup import AmdahlSpeedup, ExecutionProfile
from repro.utils.rng import SeedLike, as_generator

__all__ = ["default_templates", "poisson_zipf_stream"]


def _profile(seq_time: float, serial_fraction: float) -> ExecutionProfile:
    return ExecutionProfile(AmdahlSpeedup(serial_fraction), seq_time)


def _chain() -> TaskGraph:
    g = TaskGraph("chain4")
    prev = None
    for i, (t, f) in enumerate([(40.0, 0.05), (25.0, 0.2), (40.0, 0.05),
                                (15.0, 0.4)]):
        name = f"s{i}"
        g.add_task(name, _profile(t, f))
        if prev is not None:
            g.add_edge(prev, name, 4e6)
        prev = name
    return g


def _forkjoin() -> TaskGraph:
    g = TaskGraph("forkjoin")
    g.add_task("split", _profile(12.0, 0.3))
    g.add_task("join", _profile(18.0, 0.25))
    for i in range(3):
        b = f"b{i}"
        g.add_task(b, _profile(30.0 + 5.0 * i, 0.05))
        g.add_edge("split", b, 2e6)
        g.add_edge(b, "join", 2e6)
    return g


def _diamond() -> TaskGraph:
    g = TaskGraph("diamond")
    g.add_task("a", _profile(20.0, 0.1))
    g.add_task("b", _profile(35.0, 0.05))
    g.add_task("c", _profile(28.0, 0.15))
    g.add_task("d", _profile(22.0, 0.2))
    g.add_edge("a", "b", 6e6)
    g.add_edge("a", "c", 3e6)
    g.add_edge("b", "d", 4e6)
    g.add_edge("c", "d", 4e6)
    return g


def _wide() -> TaskGraph:
    g = TaskGraph("wide")
    g.add_task("scatter", _profile(10.0, 0.35))
    for i in range(5):
        leaf = f"w{i}"
        g.add_task(leaf, _profile(24.0 + 3.0 * i, 0.08))
        g.add_edge("scatter", leaf, 1e6)
    return g


def default_templates() -> List[Tuple[str, TaskGraph]]:
    """The built-in template library, most popular first (Zipf rank 1..n).

    Each template graph is constructed fresh per call but *shared across
    every job of one stream* — object identity is what the cost cache's
    graph memo and the schedule cache's fingerprint reuse key on.
    """
    return [
        ("forkjoin", _forkjoin()),
        ("chain4", _chain()),
        ("diamond", _diamond()),
        ("wide", _wide()),
    ]


def poisson_zipf_stream(
    *,
    n_jobs: int,
    rate: float,
    seed: SeedLike = 0,
    zipf_s: float = 1.5,
    templates: Sequence[Tuple[str, TaskGraph]] = (),
) -> List[Job]:
    """Generate *n_jobs* arrivals at *rate* jobs/second of simulated time.

    ``zipf_s`` is the popularity skew exponent (0 = uniform). Every job
    of a template shares that one graph object, and its widths are left
    to the daemon (``Job.widths is None``), so the stream is
    machine-independent.
    """
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0, got {n_jobs}")
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    pool = list(templates) if templates else default_templates()
    weights = [1.0 / (k ** zipf_s) for k in range(1, len(pool) + 1)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    cumulative[-1] = 1.0  # guard against float drift

    rng = as_generator(seed)
    jobs: List[Job] = []
    now = 0.0
    width = max(4, len(str(max(n_jobs - 1, 1))))
    for i in range(n_jobs):
        now += float(rng.exponential(1.0 / rate))
        u = float(rng.random())
        idx = next(k for k, c in enumerate(cumulative) if u <= c)
        name, template = pool[idx]
        jobs.append(
            Job(
                job_id=f"j{i:0{width}d}-{name}",
                template=name,
                template_graph=template,
                arrival=now,
            )
        )
    return jobs
