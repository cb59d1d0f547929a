"""Synthetic DAG shapes that stress the scheduler hot paths.

:func:`wide_dag` (a fork-join DAG far wider than the machine) and
:func:`deep_dag` (a layered DAG with a long critical path) are the
inputs of the ``wide`` and ``deep`` workloads of the benchmark in
``bench/`` (``python bench/run.py``), which imports them from here, and
of the optimized-vs-reference gate in ``benchmarks/bench_hotpath.py``.
"""

from __future__ import annotations

from typing import List

from repro.graph import TaskGraph
from repro.speedup import DowneySpeedup, ExecutionProfile
from repro.utils.rng import as_generator

__all__ = ["wide_dag", "deep_dag"]


def wide_dag(
    num_tasks: int,
    *,
    seed: int = 0,
    ccr_volume: float = 20e6,
    name: str = "",
) -> TaskGraph:
    """A fork-join DAG: source → ``num_tasks - 2`` parallel tasks → sink.

    On a machine far narrower than the middle layer, every placement
    contends for processors: the ready set stays ~as large as the layer
    (stressing the ready queue) and most tasks wait on releases rather
    than data (stressing pseudo-edge blocker detection).
    """
    if num_tasks < 3:
        raise ValueError(f"need num_tasks >= 3, got {num_tasks}")
    rng = as_generator(seed)
    g = TaskGraph(name or f"wide-{num_tasks}")

    def profile() -> ExecutionProfile:
        A = float(rng.uniform(4, 48))
        return ExecutionProfile(DowneySpeedup(A, 1.0), float(rng.uniform(5, 60)))

    g.add_task("src", profile())
    mids = [f"m{i:04d}" for i in range(num_tasks - 2)]
    for m in mids:
        g.add_task(m, profile())
    g.add_task("sink", profile())
    for m in mids:
        g.add_edge("src", m, float(rng.uniform(0.1, 1.0)) * ccr_volume)
        g.add_edge(m, "sink", float(rng.uniform(0.1, 1.0)) * ccr_volume)
    return g


def deep_dag(
    depth: int,
    width: int,
    *,
    seed: int = 0,
    ccr_volume: float = 20e6,
    name: str = "",
) -> TaskGraph:
    """A layered DAG: *depth* layers of *width* tasks, dense layer links.

    Long critical paths drive many look-ahead steps in the outer loop, so
    this shape stresses the per-call setup costs (edge-cost map, bottom
    levels) that the run-scoped cost cache amortizes.
    """
    if depth < 1 or width < 1:
        raise ValueError(f"need depth, width >= 1, got {depth}, {width}")
    rng = as_generator(seed)
    g = TaskGraph(name or f"deep-{depth}x{width}")
    layers: List[List[str]] = []
    for d in range(depth):
        layer = [f"t{d:03d}_{w:02d}" for w in range(width)]
        for t in layer:
            A = float(rng.uniform(4, 48))
            g.add_task(
                t, ExecutionProfile(DowneySpeedup(A, 1.0), float(rng.uniform(5, 60)))
            )
        layers.append(layer)
    for prev, cur in zip(layers, layers[1:]):
        for i, t in enumerate(cur):
            # same-index parent plus one rotating neighbour: connected but
            # not so dense that the layer serializes on communication.
            # Deduped with an insertion-ordered dict, NOT a set: string-set
            # iteration order varies with PYTHONHASHSEED, which made the
            # edge insertion order — and through tie-breaking, the whole
            # benchmark schedule — differ from process to process.
            for u in dict.fromkeys((prev[i], prev[(i + 1) % width])):
                g.add_edge(u, t, float(rng.uniform(0.1, 1.0)) * ccr_volume)
    return g
