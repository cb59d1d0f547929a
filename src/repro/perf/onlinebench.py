"""Benchmarks for the online daemon: incremental splice vs cold rebuild.

Two replay suites, both run with the daemon's differential mode on —
every placement is answered by **both** arms and compared bit-exactly,
so the reported speedup is backed by a proof of equivalence on every
event, the ``test_array_equivalence`` oracle pattern applied to the
online path:

``poisson-zipf``
    Mixed-parallel DAG templates arriving as a Poisson process with
    Zipf-skewed template popularity (:mod:`repro.online.arrivals`); the
    daemon's allocator decides widths (memoized per template).
``swf-replay``
    A synthetic Standard Workload Format trace — rigid jobs with
    heavy-tailed runtimes and power-of-two widths — rendered to SWF text
    and ingested through the real importer (:mod:`repro.online.swf`), so
    the benchmark covers the trace path end to end.

Headline numbers per suite: sustained submissions per simulated hour,
p50/p95/max per-event wall latency, and the incremental-vs-cold
median-latency speedup. The cold arm re-splices the *entire committed
history* from an empty machine per event — exactly what cold-starting
LoCBS on every arrival costs — so its per-event latency grows with
history while the incremental arm's stays flat.

Latency caveat: wall-clock numbers from a 1-core container are inflated
by interference; the ``cpu`` block says whether this run was affected.
Speedup and probe ratios are between arms measured in the same conditions
and remain meaningful either way.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

from repro.cluster import Cluster
from repro.online.admission import AdmissionPolicy
from repro.online.arrivals import poisson_zipf_stream
from repro.online.daemon import OnlineSchedulerDaemon, latency_stats
from repro.online.jobs import Job
from repro.online.swf import jobs_from_swf
from repro.perf.schema import BENCH_SCHEMA_VERSION
from repro.schedulers.locbs import LocbsOptions
from repro.utils.rng import as_generator

__all__ = ["available_parallelism", "run_onlinebench", "synthetic_swf_text"]

SCHEMA = "repro.perf.online/v1"


def available_parallelism() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def synthetic_swf_text(
    *, n_jobs: int, max_width: int, seed: int = 0, mean_interarrival: float = 45.0
) -> str:
    """A deterministic SWF trace: heavy-tailed rigid jobs.

    Runtimes are lognormal (median ~5 min, occasional hour-long tails),
    widths are powers of two up to *max_width* (small widths more
    likely), inter-arrivals exponential. Rendered as real 18-field SWF
    lines so the importer parses it exactly like an archive trace.
    """
    rng = as_generator(seed)
    widths = []
    w = 1
    while w <= max_width:
        widths.append(w)
        w *= 2
    lines = [
        "; synthetic SWF trace (repro.perf.onlinebench)",
        f"; MaxProcs: {max_width}",
    ]
    now = 0.0
    for i in range(1, n_jobs + 1):
        now += float(rng.exponential(mean_interarrival))
        run_time = max(1.0, float(rng.lognormal(mean=5.7, sigma=1.0)))
        # skew toward narrow jobs: rank k gets weight 1/(k+1)
        u = float(rng.random())
        acc, total = 0.0, sum(1.0 / (k + 1) for k in range(len(widths)))
        width = widths[-1]
        for k, cand in enumerate(widths):
            acc += (1.0 / (k + 1)) / total
            if u <= acc:
                width = cand
                break
        lines.append(
            f"{i} {now:.0f} 0 {run_time:.0f} {width} -1 -1 {width} "
            f"-1 -1 1 1 1 1 1 1 -1 -1"
        )
    return "\n".join(lines) + "\n"


def _run_suite(
    name: str,
    cluster: Cluster,
    jobs: List[Job],
    *,
    admission: AdmissionPolicy,
) -> Dict[str, object]:
    daemon = OnlineSchedulerDaemon(
        cluster,
        admission=admission,
        options=LocbsOptions(),
        differential=True,
        verify=True,
    )
    report = daemon.run(jobs)
    doc = report.to_dict()
    return {
        "name": name,
        "procs": cluster.num_processors,
        "jobs": len(jobs),
        "placed": report.placed,
        "rejected": report.rejected,
        "deferred": report.deferred,
        "makespan_s": report.makespan,
        "utilization": report.utilization,
        "submissions_per_sim_hour": report.submissions_per_sim_hour,
        "event_latency": doc["event_latency"],
        "event_latency_by_kind": doc["event_latency_by_kind"],
        "incremental": latency_stats(report.incremental_latencies),
        "cold": latency_stats(report.cold_latencies),
        "median_speedup": report.median_speedup,
        "identical": report.identical,
        "mismatches": report.mismatches[:5],
        "probes": dict(report.probes),
    }


def run_onlinebench(
    *,
    scale: str = "full",
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run both replay suites; returns the ``BENCH_online.json`` document."""
    quick = scale == "quick"
    suites: List[Dict[str, object]] = []

    n_dag = 40 if quick else 150
    dag_cluster = Cluster(16 if quick else 32, bandwidth=1e8)
    if progress is not None:
        progress(
            f"poisson-zipf: {n_dag} DAG jobs on P={dag_cluster.num_processors} "
            "(differential) ..."
        )
    dag_jobs = poisson_zipf_stream(
        n_jobs=n_dag, rate=0.05 if quick else 0.1, seed=2006
    )
    suites.append(
        _run_suite(
            "poisson-zipf",
            dag_cluster,
            dag_jobs,
            admission=AdmissionPolicy(max_backlog=4000.0),
        )
    )

    n_swf = 80 if quick else 400
    swf_cluster = Cluster(32 if quick else 64, bandwidth=1e8)
    if progress is not None:
        progress(
            f"swf-replay: {n_swf} rigid jobs on P={swf_cluster.num_processors} "
            "(differential) ..."
        )
    swf_text = synthetic_swf_text(
        n_jobs=n_swf,
        max_width=swf_cluster.num_processors,
        seed=1993,
        mean_interarrival=60.0 if quick else 30.0,
    )
    swf_jobs = jobs_from_swf(swf_text, swf_cluster)
    suites.append(
        _run_suite(
            "swf-replay",
            swf_cluster,
            swf_jobs,
            admission=AdmissionPolicy(max_backlog=50000.0),
        )
    )

    affinity = available_parallelism()
    single_core = affinity <= 1
    identical = all(bool(s["identical"]) for s in suites)
    speedups = [s["median_speedup"] for s in suites if s["median_speedup"]]
    return {
        "schema": SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "scale": scale,
        "cpu": {
            "count": os.cpu_count(),
            "affinity": affinity,
            "single_core": single_core,
        },
        "latency_caveat": (
            "wall-clock latencies measured on a 1-core container; absolute "
            "numbers are inflated by interference, arm-vs-arm ratios remain "
            "meaningful"
        ) if single_core else None,
        "methodology": (
            "Both suites run the daemon with differential=True: every "
            "placement is produced by the incremental arm (persistent "
            "timeline and cost cache, one splice per event) AND by the "
            "cold-rebuild arm (fresh state, full history re-splice, then "
            "the new job) and compared bit-exactly; identical=false fails "
            "the run. median_speedup = cold median placement latency / "
            "incremental median placement latency. probes counts the "
            "hole-ladder candidates each arm priced (cost-cache "
            "probes_considered deltas); the incremental arm must price "
            "strictly fewer. Event latencies exclude the cold arm's "
            "replay cost (it is the baseline, not serving cost). "
            "Throughput is submissions per simulated hour over the span "
            "from first arrival to last finish."
        ),
        "suites": suites,
        "identical": identical,
        "min_median_speedup": min(speedups) if speedups else None,
    }
