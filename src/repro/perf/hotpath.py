"""Micro-benchmarks of the scheduler hot paths → ``BENCH_hotpath.json``.

Measures LoC-MPS wall-clock on four suite families — wide synthetic DAGs
(huge ready sets and heavy resource contention: the ready-queue and
blocker-scan hot paths), deep layered DAGs (long critical paths: many
look-ahead steps, stressing cost-model reuse), the Strassen application
DAG, and the CCSD T1 tensor-contraction DAG — twice: once with the
incremental engine (heap ready queue, placement index, run-scoped cost
cache) and once with the naive reference paths of
:mod:`repro.perf.reference`.

Methodology (recorded in the emitted JSON):

* Each arm schedules every graph of a suite once on a cold scheduler
  instance; wall-clock is the sum of ``Schedule.scheduling_time``
  (``time.perf_counter`` around ``Scheduler.run``, the same quantity as
  the paper's Fig 10).
* Both arms are verified to produce identical makespans — a speedup that
  changes schedules would be meaningless.
* ``placements_per_s`` counts committed task placements only; the
  look-ahead explores many more (one LoCBS pass per memo miss), so the
  memo/cost-cache counters from :mod:`repro.obs` are reported alongside.

Run ``python -m repro.perf hotpath`` (``--quick`` for the CI-sized
variant) to regenerate; ``benchmarks/bench_hotpath.py`` wraps the same
runner under pytest-benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster import MYRINET_2GBPS, Cluster
from repro.graph import TaskGraph
from repro.obs import Counters
from repro.obs.registry import MetricsRegistry
from repro.perf.reference import ReferenceLocMpsScheduler
from repro.perf.schema import BENCH_SCHEMA_VERSION
from repro.schedulers.locmps import LocMpsScheduler
from repro.speedup import DowneySpeedup, ExecutionProfile
from repro.utils.rng import as_generator
from repro.workloads.strassen import strassen_graph
from repro.workloads.tce import ccsd_t1_graph

__all__ = [
    "SuiteSpec",
    "wide_dag",
    "deep_dag",
    "build_suites",
    "run_suite",
    "run_hotpath",
]

SCHEMA = "repro.perf.hotpath/v1"


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


@dataclass(frozen=True)
class SuiteSpec:
    """One benchmark suite: graphs, a machine, and a scheduler config."""

    name: str
    description: str
    graph_factory: Callable[[], List[TaskGraph]]
    cluster: Cluster
    #: LocMpsScheduler keyword overrides (applied to both arms)
    scheduler_kwargs: Optional[Dict[str, object]] = None


def build_suites(scale: str = "full") -> List[SuiteSpec]:
    """The benchmark suites at ``"full"`` or ``"quick"`` (CI smoke) scale.

    The wide suite runs at P = 64 >= 32 — it is the acceptance suite for
    the incremental engine's speedup claim.
    """
    if scale not in ("full", "quick"):
        raise ValueError(f"scale must be 'full' or 'quick', got {scale!r}")
    quick = scale == "quick"
    wide_n = 96 if quick else 192
    deep_shape = (10, 6) if quick else (18, 8)
    strassen_n = 256 if quick else 1024
    ccsd_ov = (4, 10) if quick else (8, 24)
    look_ahead = 8 if quick else 20
    fast_net = Cluster(
        num_processors=64, bandwidth=MYRINET_2GBPS, name="myrinet-64"
    )
    return [
        SuiteSpec(
            name="wide-synthetic-P64",
            description=(
                f"fork-join DAG, {wide_n} tasks on P=64: max ready-set and "
                "contention pressure (acceptance suite, P >= 32)"
            ),
            graph_factory=lambda: [wide_dag(wide_n, seed=11)],
            cluster=fast_net,
            scheduler_kwargs={"look_ahead_depth": look_ahead},
        ),
        SuiteSpec(
            name="deep-synthetic-P32",
            description=(
                f"layered DAG {deep_shape[0]}x{deep_shape[1]} on P=32: "
                "long critical path, many look-ahead steps"
            ),
            graph_factory=lambda: [deep_dag(*deep_shape, seed=12)],
            cluster=Cluster(
                num_processors=32, bandwidth=MYRINET_2GBPS, name="myrinet-32"
            ),
            scheduler_kwargs={"look_ahead_depth": look_ahead},
        ),
        SuiteSpec(
            name="strassen-P32",
            description=f"one-level Strassen DAG (n={strassen_n}) on P=32",
            graph_factory=lambda: [strassen_graph(strassen_n)],
            cluster=Cluster(
                num_processors=32, bandwidth=MYRINET_2GBPS, name="myrinet-32"
            ),
        ),
        SuiteSpec(
            name="ccsd-t1-P32",
            description=(
                f"CCSD T1 DAG (o={ccsd_ov[0]}, v={ccsd_ov[1]}) on P=32"
            ),
            graph_factory=lambda: [
                ccsd_t1_graph(o=ccsd_ov[0], v=ccsd_ov[1])
            ],
            cluster=Cluster(
                num_processors=32, bandwidth=MYRINET_2GBPS, name="myrinet-32"
            ),
        ),
    ]


def _run_arm(
    scheduler: LocMpsScheduler,
    graphs: List[TaskGraph],
    cluster: Cluster,
    *,
    metrics: Optional[MetricsRegistry] = None,
    suite: str = "",
    arm: str = "",
) -> Dict[str, object]:
    """Schedule every graph once; collect wall-clock and obs counters."""
    wall = 0.0
    placements = 0
    makespans: List[float] = []
    for graph in graphs:
        schedule = scheduler.schedule(graph, cluster)
        wall += schedule.scheduling_time
        placements += len(schedule)
        makespans.append(schedule.makespan)
        if metrics is not None and len(schedule) > 0:
            metrics.observe(
                "placement_seconds",
                schedule.scheduling_time / len(schedule),
                suite=suite, arm=arm,
                help="mean wall-clock per committed placement, per graph",
            )
    counters = Counters()
    for key, val in scheduler.memo_stats.items():
        counters.inc(f"memo_{key}", val)
    for key, val in scheduler.cost_cache_stats.items():
        counters.inc(f"cost_cache_{key}", val)
    memo_total = scheduler.memo_stats["hits"] + scheduler.memo_stats["misses"]
    counters.set_gauge(
        "memo_hit_rate",
        scheduler.memo_stats["hits"] / memo_total if memo_total else 0.0,
    )
    for kind in ("edge", "transfer"):
        hits = scheduler.cost_cache_stats[f"{kind}_hits"]
        total = hits + scheduler.cost_cache_stats[f"{kind}_misses"]
        counters.set_gauge(
            f"cost_cache_{kind}_hit_rate", hits / total if total else 0.0
        )
    return {
        "wall_s": wall,
        "placements": placements,
        "placements_per_s": placements / wall if wall > 0 else 0.0,
        "makespans": makespans,
        "counters": counters.summary(),
    }


def run_suite(
    spec: SuiteSpec,
    *,
    include_reference: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Time one suite; returns the per-suite record of the JSON report."""
    graphs = spec.graph_factory()
    kwargs = dict(spec.scheduler_kwargs or {})
    record: Dict[str, object] = {
        "name": spec.name,
        "description": spec.description,
        "num_graphs": len(graphs),
        "tasks_total": sum(g.num_tasks for g in graphs),
        "processors": spec.cluster.num_processors,
        "optimized": _run_arm(
            LocMpsScheduler(**kwargs), graphs, spec.cluster,
            metrics=metrics, suite=spec.name, arm="optimized",
        ),
    }
    # Probe-ladder pruning telemetry of the optimized arm (the reference
    # arm keeps no prune counters).
    opt_counters = record["optimized"]["counters"]  # type: ignore[index]
    considered = int(opt_counters.get("cost_cache_probes_considered", 0))
    bound = int(opt_counters.get("cost_cache_probes_bound_pruned", 0))
    dom = int(opt_counters.get("cost_cache_probes_dominance_pruned", 0))
    pruned = bound + dom
    ladder = considered + pruned
    record["prune"] = {
        "probes_considered": considered,
        "probes_pruned": pruned,
        "bound_pruned": bound,
        "dominance_pruned": dom,
        "prune_rate": pruned / ladder if ladder else 0.0,
    }
    if include_reference:
        record["reference"] = _run_arm(
            ReferenceLocMpsScheduler(**kwargs), graphs, spec.cluster,
            metrics=metrics, suite=spec.name, arm="reference",
        )
        opt, ref = record["optimized"], record["reference"]
        record["speedup"] = (
            ref["wall_s"] / opt["wall_s"] if opt["wall_s"] > 0 else float("inf")
        )
        record["makespans_equal"] = opt["makespans"] == ref["makespans"]
    return record


def run_hotpath(
    *,
    scale: str = "full",
    include_reference: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    metrics: Optional[MetricsRegistry] = None,
    profile: bool = False,
) -> Dict[str, object]:
    """Run every suite and return the full ``BENCH_hotpath.json`` document.

    *metrics* (optional) additionally collects the per-placement
    wall-clock histogram (``placement_seconds{suite=...,arm=...}``) for
    OpenMetrics exposition.

    *profile* runs the whole benchmark under :mod:`cProfile` and embeds
    the top-20 cumulative-time entries as the document's ``profile`` list.
    The profiler slows everything down uniformly (2-3x), so ``wall_s`` of
    a profiled run is NOT comparable to an unprofiled one — the report
    stamps ``profiled: true`` so consumers cannot mix them up.
    """
    prof = None
    if profile:
        import cProfile

        prof = cProfile.Profile()
        prof.enable()
    suites: List[Dict[str, object]] = []
    for spec in build_suites(scale):
        if progress is not None:
            progress(f"running {spec.name} ...")
        suites.append(
            run_suite(
                spec, include_reference=include_reference, metrics=metrics
            )
        )
    doc: Dict[str, object] = {
        "schema": SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "scale": scale,
        "methodology": (
            "Per suite, each arm schedules every graph once on a cold "
            "scheduler instance; wall_s sums Schedule.scheduling_time "
            "(perf_counter around Scheduler.run, as in the paper's Fig 10). "
            "'optimized' is the incremental engine (heap ready queue, "
            "placement index, run-scoped cost cache); 'reference' is the "
            "pre-optimization implementation from repro.perf.reference. "
            "Both arms must produce identical makespans (makespans_equal); "
            "speedup = reference wall_s / optimized wall_s."
        ),
        "suites": suites,
    }
    if prof is not None:
        import pstats

        prof.disable()
        stats = pstats.Stats(prof)
        stats.sort_stats("cumulative")
        entries: List[Dict[str, object]] = []
        for func in stats.fcn_list[:20]:  # type: ignore[attr-defined]
            _cc, ncalls, tottime, cumtime, _callers = stats.stats[func]  # type: ignore[attr-defined]
            filename, lineno, name = func
            entries.append(
                {
                    "function": f"{filename}:{lineno}({name})",
                    "ncalls": ncalls,
                    "tottime_s": round(tottime, 6),
                    "cumtime_s": round(cumtime, 6),
                }
            )
        doc["profiled"] = True
        doc["profile"] = entries
    return doc
