"""Parallel scheduling backend: warm worker pools for sweeps.

The paper's first stated future-work item is parallelizing the
scheduling step itself. Independent sweep cells are where extra cores pay,
so this package supplies :class:`SchedulerPool` — a persistent process pool
that ships shared context (graphs, clusters, scheduler configuration) to
each worker once via the pool initializer and then streams small work
items at it, with chunked dispatch, completion-order streaming, and
per-worker trace spooling. ``repro.experiments.run_comparison(workers=N)``
runs its (graph, P) sweep cells on one.
"""

from repro.parallel.pool import SchedulerPool, WorkerEnv, default_chunksize

__all__ = [
    "SchedulerPool",
    "WorkerEnv",
    "default_chunksize",
]
