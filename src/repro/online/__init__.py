"""Event-driven online scheduling daemon (the paper's run-time framework).

The paper's closing future-work item asks for "incorporation of the
scheduling strategy into a run-time framework for the on-line scheduling
of mixed parallel applications". This package is that framework, built
for streaming arrivals rather than the deviation-replay loop of
:mod:`repro.sim.online`:

* :mod:`repro.online.events` — the deterministic priority event queue
  (submit / start / finish / replan);
* :mod:`repro.online.jobs` — job records: (template, prefix, widths);
* :mod:`repro.online.admission` — admission control (reject / defer);
* :mod:`repro.online.placer` — the perf core: an incremental placer that
  persists the :class:`~repro.schedule.ProcessorTimeline` and
  :class:`~repro.schedulers.costcache.CostCache` across events and
  splices each arrival into the live chart with the offline LoCBS pass,
  plus the cold-rebuild
  differential arm that must stay bit-identical;
* :mod:`repro.online.daemon` — the event loop tying it together;
* :mod:`repro.online.swf` — Standard Workload Format trace ingestion;
* :mod:`repro.online.arrivals` — synthetic Poisson/Zipf job streams.

``python -m repro.online`` drives a replay from the command line;
the ``online`` workload of the benchmark in ``bench/``
(``python bench/run.py``) measures the daemon's per-event latency.
"""

from repro.online.admission import AdmissionDecision, AdmissionPolicy
from repro.online.arrivals import default_templates, poisson_zipf_stream
from repro.online.daemon import OnlineDaemonReport, OnlineSchedulerDaemon
from repro.online.events import EventQueue, OnlineEvent, OnlineEventKind
from repro.online.jobs import Job
from repro.online.placer import (
    ColdRebuildPlacer,
    IncrementalPlacer,
    PlacementResult,
)
from repro.online.swf import (
    SwfJob,
    jobs_from_swf,
    parse_swf,
    synthetic_swf_text,
)

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "ColdRebuildPlacer",
    "EventQueue",
    "IncrementalPlacer",
    "Job",
    "OnlineDaemonReport",
    "OnlineEvent",
    "OnlineEventKind",
    "OnlineSchedulerDaemon",
    "PlacementResult",
    "SwfJob",
    "default_templates",
    "jobs_from_swf",
    "parse_swf",
    "poisson_zipf_stream",
    "synthetic_swf_text",
]
