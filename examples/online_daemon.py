#!/usr/bin/env python
"""The online scheduler daemon end to end: stream, splice, observe.

A Poisson stream of mixed-parallel jobs (Zipf-skewed template popularity)
is driven through :class:`repro.online.OnlineSchedulerDaemon`. Each
arrival is spliced into the *live* chart by the incremental placer —
persistent timeline and cost cache across events — and
the differential mode replays every placement from an empty machine to
prove the shortcut changes nothing. The run's tracer events are then
folded into metrics and rendered as the explainability dashboard, whose
online tile shows the p95 per-event latency and peak queue depth.

Run:  python examples/online_daemon.py
"""

import tempfile
from pathlib import Path

from repro import Cluster, Tracer
from repro.obs.dashboard import write_dashboard
from repro.obs.registry import registry_from_events
from repro.online import (
    AdmissionPolicy,
    OnlineSchedulerDaemon,
    poisson_zipf_stream,
)


def main() -> None:
    cluster = Cluster(num_processors=16, bandwidth=1e8)
    jobs = poisson_zipf_stream(n_jobs=25, rate=0.08, seed=11)
    span = jobs[-1].arrival - jobs[0].arrival
    print(
        f"stream: {len(jobs)} jobs over {span:.0f} simulated seconds "
        f"on P={cluster.num_processors}\n"
    )

    tracer = Tracer()
    daemon = OnlineSchedulerDaemon(
        cluster,
        admission=AdmissionPolicy(max_backlog=2000.0),
        differential=True,  # cold-rebuild oracle checks every placement
        tracer=tracer,
    )
    report = daemon.run(jobs)

    doc = report.to_dict()
    print(
        f"placed {report.placed}/{report.submitted} "
        f"(deferred {report.deferred}, rejected {report.rejected}), "
        f"makespan {report.makespan:.0f} s, "
        f"utilization {report.utilization:.2f}"
    )
    print(
        f"per-event latency: p50 {doc['event_latency']['p50'] * 1e3:.3f} ms, "
        f"p95 {doc['event_latency']['p95'] * 1e3:.3f} ms"
    )
    speedup = report.median_speedup
    print(
        f"incremental splice vs cold rebuild: "
        f"{doc['incremental_latency']['p50'] * 1e3:.3f} ms vs "
        f"{doc['cold_latency']['p50'] * 1e3:.3f} ms median "
        f"({speedup:.1f}x), bit-identical={report.identical}"
    )

    registry = registry_from_events(tracer.events)
    placed_line = [
        line
        for line in registry.render().splitlines()
        if "online_jobs" in line and 'op="placed"' in line
    ]
    print(f"\nmetrics fold: {placed_line[0]}")

    out = Path(tempfile.mkdtemp(prefix="repro-online-")) / "dashboard.html"
    write_dashboard(tracer.events, out, title="Online daemon example")
    print(f"dashboard (with the online latency tile): {out}")


if __name__ == "__main__":
    main()
