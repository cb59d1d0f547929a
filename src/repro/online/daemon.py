"""The online scheduler daemon: an event loop over streaming job arrivals.

The loop pops :class:`~repro.online.events.OnlineEvent` records off the
deterministic priority queue and reacts:

``JOB_SUBMIT``
    Decide the job's allocation (preset for rigid SWF jobs; otherwise the
    allocator runs **once per template** — repeated templates reuse the
    memoized widths, or hit the content-addressed schedule cache when a
    :class:`~repro.cache.service.CachedScheduleService` is attached),
    then ask admission control: place now, defer to the FIFO pending
    queue, or reject.
``JOB_FINISH``
    Release the finished job's cost-cache state and, if jobs are waiting,
    schedule a ``REPLAN`` at the same instant (firing *after* every
    simultaneous finish, per the queue's kind priority).
``REPLAN``
    Drain the pending FIFO while admission now says "place"; deferred
    jobs splice with their *replan* time as the release floor.
``JOB_START``
    Bookkeeping marker (the job's first placed start).

Placement itself is the incremental splice of
:class:`~repro.online.placer.IncrementalPlacer`. With
``differential=True`` every placement is replayed by the
:class:`~repro.online.placer.ColdRebuildPlacer` from an empty machine and
the two arms' placements are compared **bit-exactly** — the correctness
gate of the incremental arm's speedup (the cold arm's wall time
is kept out of the per-event latency numbers; it is the baseline, not
part of the daemon's serving cost).

Simulated execution is deterministic (plan == realization: the noise-free
regime of :mod:`repro.sim`), so a job's finish event fires exactly at its
placed finish time.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.cache.service import CachedScheduleService
from repro.cluster import Cluster
from repro.exceptions import ScheduleError
from repro.graph import TaskGraph
from repro.obs.events import (
    JOB_FINISHED,
    JOB_PLACED,
    JOB_REJECTED,
    JOB_SUBMITTED,
    ONLINE_EVENT,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.online.admission import AdmissionDecision, AdmissionPolicy
from repro.online.events import EventQueue, OnlineEvent, OnlineEventKind
from repro.online.jobs import Job
from repro.online.placer import ColdRebuildPlacer, IncrementalPlacer
from repro.schedulers.locbs import LocbsOptions
from repro.schedulers.locmps import LocMpsScheduler
from repro.sim.engine import verify_realized

__all__ = ["OnlineDaemonReport", "OnlineSchedulerDaemon", "percentile"]

#: allocator signature: template graph + cluster -> widths by template task
Allocator = Callable[[TaskGraph, Cluster], Dict[str, int]]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    0 for an empty sequence — latency rollups over an idle daemon should
    read as zero cost, not crash.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(len(ordered) - 1, max(rank - 1, 0))]


def latency_stats(values: Sequence[float]) -> Dict[str, float]:
    """count/p50/p95/max/mean rollup of a latency sample (seconds)."""
    if not values:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "max": 0.0, "mean": 0.0}
    return {
        "count": len(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "max": max(values),
        "mean": sum(values) / len(values),
    }


@dataclass
class OnlineDaemonReport:
    """Outcome of one daemon run over a job stream."""

    submitted: int = 0
    placed: int = 0
    rejected: int = 0
    deferred: int = 0  #: submissions that waited in the pending queue
    makespan: float = 0.0  #: latest placed finish (simulated seconds)
    last_arrival: float = 0.0
    utilization: float = 0.0  #: busy fraction of P * makespan
    #: wall-clock handler latency per event, keyed by event kind name
    event_latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: incremental-arm placement latencies (one per placed job)
    incremental_latencies: List[float] = field(default_factory=list)
    #: cold-rebuild-arm placement latencies (differential mode only)
    cold_latencies: List[float] = field(default_factory=list)
    differential: bool = False
    identical: bool = True  #: both arms bit-identical on every event
    mismatches: List[str] = field(default_factory=list)
    #: probe-ladder candidates priced, summed per arm
    probes: Dict[str, int] = field(default_factory=dict)
    jobs: List[Job] = field(default_factory=list)

    @property
    def sim_span(self) -> float:
        """Simulated seconds the run covered (arrivals through last finish)."""
        return max(self.makespan, self.last_arrival)

    @property
    def submissions_per_sim_hour(self) -> float:
        """Sustained ingest rate over the simulated span."""
        span = self.sim_span
        if span <= 0:
            return 0.0
        return self.submitted * 3600.0 / span

    @property
    def median_speedup(self) -> Optional[float]:
        """cold median latency / incremental median latency, if measured."""
        if not self.cold_latencies or not self.incremental_latencies:
            return None
        incr = percentile(self.incremental_latencies, 50)
        if incr <= 0:
            return None
        return percentile(self.cold_latencies, 50) / incr

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON rollup (what ``python -m repro.online --json`` writes)."""
        per_kind = {
            kind: latency_stats(vals)
            for kind, vals in sorted(self.event_latencies.items())
        }
        all_events = [
            v for vals in self.event_latencies.values() for v in vals
        ]
        return {
            "submitted": self.submitted,
            "placed": self.placed,
            "rejected": self.rejected,
            "deferred": self.deferred,
            "makespan": self.makespan,
            "sim_span_s": self.sim_span,
            "submissions_per_sim_hour": self.submissions_per_sim_hour,
            "utilization": self.utilization,
            "event_latency": latency_stats(all_events),
            "event_latency_by_kind": per_kind,
            "incremental_latency": latency_stats(self.incremental_latencies),
            "cold_latency": latency_stats(self.cold_latencies),
            "median_speedup": self.median_speedup,
            "differential": self.differential,
            "identical": self.identical,
            "mismatches": self.mismatches[:10],
            "probes": dict(self.probes),
        }


class OnlineSchedulerDaemon:
    """Event-driven scheduler daemon with incremental cross-event reuse.

    Parameters
    ----------
    cluster:
        The machine the daemon schedules onto.
    admission:
        Admission rules; default admits everything immediately.
    options:
        LoCBS options shared by every splice (both arms).
    allocator:
        Decides processor widths for jobs arriving without a preset
        allocation; receives the **shared template graph**. Default runs
        LoC-MPS once per template and memoizes the widths.
    cache_service:
        Optional :class:`CachedScheduleService`: allocation requests
        route through the content-addressed cache (hit → warm → cold)
        instead of the local memo — repeated templates across daemon
        *restarts* then reuse the disk tier.
    differential:
        Replay every placement through the cold-rebuild arm and require
        bit-identical placements (the correctness oracle; adds the cold
        arm's full rebuild cost per event, so only for tests/benchmarks).
    verify:
        Audit the final chart: per-job precedence/exclusivity via
        :func:`repro.sim.engine.verify_realized` plus timeline
        invariants.
    tracer:
        Observability sink; emits ``online_event`` latency spans and
        ``job_submitted``/``job_placed``/``job_finished``/``job_rejected``
        markers that :func:`repro.obs.registry.registry_from_events`
        folds into metrics.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        admission: Optional[AdmissionPolicy] = None,
        options: LocbsOptions = LocbsOptions(),
        allocator: Optional[Allocator] = None,
        cache_service: Optional[CachedScheduleService] = None,
        differential: bool = False,
        verify: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.cluster = cluster
        self.admission = admission or AdmissionPolicy()
        self.options = options
        self.cache_service = cache_service
        self._allocator = allocator
        self.differential = differential
        self.verify = verify
        self.tracer = tracer or NULL_TRACER
        self.incremental = IncrementalPlacer(cluster, options=options)
        self.cold: Optional[ColdRebuildPlacer] = (
            ColdRebuildPlacer(cluster, options=options) if differential else None
        )
        #: template graph id -> widths by template task name
        self._alloc_memo: Dict[int, Dict[str, int]] = {}
        self._pending: Deque[Job] = deque()
        self._queue = EventQueue()  # replaced per run()
        self._report = OnlineDaemonReport(differential=differential)
        self._probe_totals = {"incremental": 0, "cold": 0}
        #: wall seconds spent in the cold arm during the current event
        #: (subtracted from the event's serving latency — the baseline
        #: replay is measurement, not serving cost)
        self._event_overhead = 0.0

    # -- allocation ------------------------------------------------------------------

    def _allocate(self, job: Job) -> Dict[str, int]:
        """Widths for *job*'s tasks (namespaced), decided exactly once."""
        if job.allocation is not None:
            return job.allocation
        key = id(job.template_graph)
        widths = self._alloc_memo.get(key)
        if widths is None:
            if self.cache_service is not None:
                widths = self.cache_service.allocation_for(
                    job.template_graph, self.cluster
                )
            elif self._allocator is not None:
                widths = dict(self._allocator(job.template_graph, self.cluster))
            else:
                schedule = LocMpsScheduler().schedule(
                    job.template_graph, self.cluster
                )
                widths = schedule.allocation()
            self._alloc_memo[key] = widths
        job.allocation = {
            f"{job.job_id}/{t}": w for t, w in widths.items()
        }
        return job.allocation

    # -- event handlers ----------------------------------------------------------------

    def _commit(self, job: Job, floor: float) -> None:
        """Splice *job* into the live chart (and the cold arm, if on)."""
        assert job.allocation is not None
        result = self.incremental.place(job.graph, job.allocation, floor)
        report = self._report
        report.incremental_latencies.append(result.latency_s)
        self._probe_totals["incremental"] += result.probes_considered
        if self.cold is not None:
            t0 = time.perf_counter()
            cold = self.cold.place(job.graph, job.allocation, floor)
            self._event_overhead += time.perf_counter() - t0
            report.cold_latencies.append(cold.latency_s)
            self._probe_totals["cold"] += cold.probes_considered
            for inc, ref in zip(result.placements, cold.placements):
                if (
                    inc.name != ref.name
                    or inc.start != ref.start
                    or inc.exec_start != ref.exec_start
                    or inc.finish != ref.finish
                    or inc.processors != ref.processors
                ):
                    report.identical = False
                    report.mismatches.append(
                        f"{inc.name}: incremental ({inc.start:g}, "
                        f"{inc.finish:g}, {inc.processors}) != cold "
                        f"({ref.start:g}, {ref.finish:g}, {ref.processors})"
                    )
        job.record_placements(result.placements)
        job.placed_at = floor
        report.placed += 1
        self._queue.push(
            OnlineEvent(job.start, OnlineEventKind.JOB_START, job.job_id)
        )
        self._queue.push(
            OnlineEvent(job.finish, OnlineEventKind.JOB_FINISH, job.job_id)
        )
        if self.tracer.enabled:
            self.tracer.event(
                JOB_PLACED,
                job=job.job_id,
                sim_time=floor,
                start=job.start,
                finish=job.finish,
                width=job.width,
                latency_s=result.latency_s,
            )

    def _on_submit(self, job: Job, now: float) -> None:
        report = self._report
        report.submitted += 1
        self._allocate(job)
        decision = self.admission.decide(
            width=job.width,
            pending_depth=len(self._pending),
            backlog=max(0.0, self.incremental.timeline.horizon() - now),
        )
        if self.tracer.enabled:
            self.tracer.event(
                JOB_SUBMITTED,
                job=job.job_id,
                sim_time=now,
                template=job.template,
                decision=decision.value,
            )
        if decision is AdmissionDecision.REJECT:
            report.rejected += 1
            if self.tracer.enabled:
                self.tracer.event(JOB_REJECTED, job=job.job_id, sim_time=now)
            return
        if decision is AdmissionDecision.DEFER:
            report.deferred += 1
            self._pending.append(job)
            return
        self._commit(job, now)

    def _on_finish(self, job: Job, now: float) -> None:
        self.incremental.release(job.graph)
        if self.tracer.enabled:
            self.tracer.event(JOB_FINISHED, job=job.job_id, sim_time=now)
        if self._pending:
            self._queue.push(OnlineEvent(now, OnlineEventKind.REPLAN))

    def _on_replan(self, now: float) -> None:
        pending = self._pending
        while pending:
            job = pending[0]
            decision = self.admission.decide(
                width=job.width,
                pending_depth=len(pending) - 1,
                backlog=max(0.0, self.incremental.timeline.horizon() - now),
            )
            if decision is AdmissionDecision.DEFER:
                break
            pending.popleft()
            if decision is AdmissionDecision.REJECT:
                self._report.rejected += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        JOB_REJECTED, job=job.job_id, sim_time=now
                    )
                continue
            self._commit(job, now)

    # -- main loop ---------------------------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> OnlineDaemonReport:
        """Process *jobs* to completion; returns the run report."""
        ordered = sorted(jobs, key=lambda j: j.arrival)
        by_id: Dict[str, Job] = {}
        self._queue = EventQueue()
        for job in ordered:
            if job.job_id in by_id:
                raise ScheduleError(f"duplicate job id {job.job_id!r}")
            by_id[job.job_id] = job
            self._queue.push(
                OnlineEvent(job.arrival, OnlineEventKind.JOB_SUBMIT, job.job_id)
            )
        report = self._report
        report.jobs = ordered
        report.last_arrival = ordered[-1].arrival if ordered else 0.0

        while self._queue:
            event = self._queue.pop()
            now = event.time
            self._event_overhead = 0.0
            t0 = time.perf_counter()
            if event.kind is OnlineEventKind.JOB_SUBMIT:
                self._on_submit(by_id[event.job_id], now)
            elif event.kind is OnlineEventKind.JOB_FINISH:
                self._on_finish(by_id[event.job_id], now)
            elif event.kind is OnlineEventKind.REPLAN:
                self._on_replan(now)
            # JOB_START is a marker: the latency sample records how cheap
            # a no-op event round is
            latency = time.perf_counter() - t0 - self._event_overhead
            report.event_latencies.setdefault(event.kind.name, []).append(
                latency
            )
            if self.tracer.enabled:
                self.tracer.event(
                    ONLINE_EVENT,
                    kind=event.kind.name,
                    sim_time=now,
                    latency_s=latency,
                    queue_depth=len(self._pending),
                )

        finished = [j for j in ordered if j.finish is not None]
        report.makespan = max((j.finish for j in finished), default=0.0)
        report.utilization = self.incremental.timeline.utilization(
            report.makespan
        )
        report.probes = dict(self._probe_totals)
        if self.verify:
            self._audit(finished)
        return report

    # -- invariants --------------------------------------------------------------------

    def _audit(self, placed_jobs: List[Job]) -> None:
        """Chart-level correctness audit of everything that was placed."""
        self.incremental.timeline.check_invariants()
        for job in placed_jobs:
            done = {p.name: p for p in job.placements}
            verify_realized(job.graph, done)
            if job.start is not None and job.start < job.arrival - 1e-9:
                raise ScheduleError(
                    f"job {job.job_id!r} started at {job.start:g} before "
                    f"its arrival at {job.arrival:g}"
                )
