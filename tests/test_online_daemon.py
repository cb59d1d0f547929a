"""Event-driven online daemon: splice equivalence, differential, determinism.

The load-bearing claims under test:

* ``splice_schedule`` into an empty chart is **bit-identical** to
  ``locbs_schedule`` — the online path is the offline scheduler, not an
  approximation of it;
* the incremental arm (persistent timeline and cost cache) and the
  cold-rebuild arm (fresh state, full history replay per event) produce
  bit-identical placements on every event, while the incremental arm
  prices strictly fewer probe-ladder candidates;
* the whole run — event order and final chart — is independent of
  ``PYTHONHASHSEED`` (subprocess test, mirroring the ``deep_dag``
  regression in ``test_array_equivalence.py``).
"""

import math

import pytest

from repro import Cluster, TaskGraph, Tracer
from repro.exceptions import ScheduleError, WorkloadError
from repro.obs.dashboard import render_dashboard
from repro.obs.registry import registry_from_events
from repro.online import (
    AdmissionDecision,
    AdmissionPolicy,
    ColdRebuildPlacer,
    EventQueue,
    IncrementalPlacer,
    Job,
    OnlineEvent,
    OnlineEventKind,
    OnlineSchedulerDaemon,
    default_templates,
    jobs_from_swf,
    namespace_graph,
    parse_swf,
    poisson_zipf_stream,
    synthetic_swf_text,
)
from repro.online.daemon import latency_stats, percentile
from repro.schedule import ProcessorTimeline
from repro.schedulers.context import SchedulingContext
from repro.schedulers.costcache import CostCache
from repro.schedulers.locbs import LocbsOptions, locbs_schedule, splice_schedule
from repro.speedup import AmdahlSpeedup, ExecutionProfile, LinearSpeedup
from repro.workloads import synthetic_dag


def small_template() -> TaskGraph:
    g = TaskGraph("tmpl")
    prof = ExecutionProfile(AmdahlSpeedup(0.1), 20.0)
    for t in ("a", "b", "c", "d"):
        g.add_task(t, prof)
    g.add_edge("a", "b", 1e6)
    g.add_edge("a", "c", 1e6)
    g.add_edge("b", "d", 1e6)
    g.add_edge("c", "d", 1e6)
    return g


def make_job(job_id: str, arrival: float, template: TaskGraph) -> Job:
    return Job(
        job_id=job_id,
        template="tmpl",
        graph=namespace_graph(template, job_id),
        template_graph=template,
        arrival=arrival,
    )


class TestEventQueue:
    def test_kind_priority_at_equal_time(self):
        q = EventQueue()
        q.push(OnlineEvent(5.0, OnlineEventKind.JOB_SUBMIT, "s"))
        q.push(OnlineEvent(5.0, OnlineEventKind.JOB_START, "t"))
        q.push(OnlineEvent(5.0, OnlineEventKind.JOB_FINISH, "f"))
        q.push(OnlineEvent(5.0, OnlineEventKind.REPLAN))
        kinds = [q.pop().kind for _ in range(4)]
        assert kinds == [
            OnlineEventKind.JOB_FINISH,
            OnlineEventKind.REPLAN,
            OnlineEventKind.JOB_SUBMIT,
            OnlineEventKind.JOB_START,
        ]

    def test_fifo_within_kind(self):
        q = EventQueue()
        for name in ("x", "y", "z"):
            q.push(OnlineEvent(1.0, OnlineEventKind.JOB_SUBMIT, name))
        assert [q.pop().job_id for _ in range(3)] == ["x", "y", "z"]

    def test_time_order_dominates(self):
        q = EventQueue()
        q.push(OnlineEvent(2.0, OnlineEventKind.JOB_FINISH, "late"))
        q.push(OnlineEvent(1.0, OnlineEventKind.JOB_START, "early"))
        assert q.pop().job_id == "early"
        assert q.peek_time() == 2.0
        assert len(q) == 1 and bool(q)


class TestJobs:
    def test_namespace_graph_prefixes_everything(self):
        tmpl = small_template()
        g = namespace_graph(tmpl, "j1")
        assert sorted(g.tasks()) == ["j1/a", "j1/b", "j1/c", "j1/d"]
        assert ("j1/a", "j1/b") in g.edges()
        assert g.data_volume("j1/a", "j1/b") == tmpl.data_volume("a", "b")

    def test_slash_in_job_id_rejected(self):
        with pytest.raises(ScheduleError):
            namespace_graph(small_template(), "bad/id")

    def test_negative_arrival_rejected(self):
        with pytest.raises(ScheduleError):
            make_job("j", -1.0, small_template())

    def test_width_is_widest_task(self):
        job = make_job("j", 0.0, small_template())
        assert job.width == 1  # allocation undecided
        job.allocation = {"j/a": 2, "j/b": 4, "j/c": 1, "j/d": 2}
        assert job.width == 4


class TestAdmission:
    def test_validation(self):
        with pytest.raises(ScheduleError):
            AdmissionPolicy(max_width=0)
        with pytest.raises(ScheduleError):
            AdmissionPolicy(max_pending=-1)
        with pytest.raises(ScheduleError):
            AdmissionPolicy(max_backlog=-0.5)

    def test_decision_branches(self):
        pol = AdmissionPolicy(max_width=8, max_pending=2, max_backlog=100.0)
        dec = pol.decide(width=16, pending_depth=0, backlog=0.0)
        assert dec is AdmissionDecision.REJECT
        dec = pol.decide(width=4, pending_depth=2, backlog=0.0)
        assert dec is AdmissionDecision.REJECT
        dec = pol.decide(width=4, pending_depth=0, backlog=500.0)
        assert dec is AdmissionDecision.DEFER
        dec = pol.decide(width=4, pending_depth=1, backlog=50.0)
        assert dec is AdmissionDecision.PLACE

    def test_default_admits_everything(self):
        pol = AdmissionPolicy()
        dec = pol.decide(width=10**6, pending_depth=10**6, backlog=1e18)
        assert dec is AdmissionDecision.PLACE


class TestSwf:
    TRACE = "\n".join(
        [
            "; comment line",
            "",
            "1 0 0 100 4 -1 -1 8 -1 -1 1 1 1 1 1 1 -1 -1",  # requested wins
            "2 50 0 -1 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1",  # bad run time
            "3 60 0 30 -1 -1 -1 -1 -1 -1 1 1 1 1 1 1 -1 -1",  # bad width
            "4 -5 0 10 0 -1 -1 2 -1 -1 1 1 1 1 1 1 -1 -1",  # clamped submit
        ]
    )

    def test_parse_skips_and_prefers_requested(self):
        recs = parse_swf(self.TRACE)
        assert [r.job_id for r in recs] == ["1", "4"]
        assert recs[0].processors == 8  # field 8 over field 5
        assert recs[1].submit == 0.0  # negative submit clamped

    def test_short_line_raises(self):
        with pytest.raises(ScheduleError):
            parse_swf("1 0 0 100")

    @pytest.mark.parametrize(
        "record",
        [
            "7 nan 0 10 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1",  # submit
            "7 inf 0 10 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1",  # submit
            "7 0 0 nan 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1",  # run time
            "7 0 0 inf 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1",  # run time
            "7 0 0 10 4 -1 -1 inf -1 -1 1 1 1 1 1 1 -1 -1",  # requested
            "7 0 0 10 inf -1 -1 -1 -1 -1 1 1 1 1 1 1 -1 -1",  # allocated
        ],
    )
    def test_non_finite_field_raises_with_line_number(self, record):
        trace = "; header\n" + record
        with pytest.raises(ScheduleError, match="SWF line 2: "):
            parse_swf(trace)
        with pytest.raises(ScheduleError, match="SWF line 2"):
            jobs_from_swf(trace, Cluster(4))

    def test_jobs_clamp_width_to_cluster(self):
        jobs = jobs_from_swf(self.TRACE, Cluster(4, bandwidth=1e8))
        assert jobs[0].allocation == {"swf1/work": 4}  # 8 clamped to 4
        # rigid: runtime at the recorded width equals the trace run time
        prof = jobs[0].graph.task("swf1/work").profile
        assert prof.time(4) == pytest.approx(100.0)

    def test_max_jobs_truncates(self):
        jobs = jobs_from_swf(self.TRACE, Cluster(16), max_jobs=1)
        assert len(jobs) == 1

    def test_synthetic_trace_round_trips(self):
        text = synthetic_swf_text(n_jobs=30, max_width=16, seed=7)
        assert text == synthetic_swf_text(n_jobs=30, max_width=16, seed=7)
        recs = parse_swf(text)
        assert [r.job_id for r in recs] == [str(i) for i in range(1, 31)]
        assert {r.processors for r in recs} <= {1, 2, 4, 8, 16}
        submits = [r.submit for r in recs]
        assert submits == sorted(submits)

    def test_synthetic_trace_without_jobs_is_header_only(self):
        assert parse_swf(synthetic_swf_text(n_jobs=0, max_width=1)) == []

    def test_synthetic_trace_rejects_zero_max_width(self):
        with pytest.raises(WorkloadError, match="max_width"):
            synthetic_swf_text(n_jobs=2, max_width=0)

    def test_synthetic_trace_rejects_negative_job_count(self):
        with pytest.raises(WorkloadError, match="n_jobs"):
            synthetic_swf_text(n_jobs=-1, max_width=4)


def _probe_counts(cache: CostCache):
    return cache.stats["probes_considered"], cache.stats["probes_bound_pruned"]


#: (backfill, overlap, comm_blind, locality_blind)
_SPLICE_CASES = [
    (True, True, False, False),
    (False, True, False, False),
    (True, False, False, False),
    (False, False, False, False),
    (True, True, True, False),
    (True, True, False, True),
]


class TestSpliceEquivalence:
    @pytest.mark.parametrize("floor_frac", [0.0, 0.3], ids=["floor0", "floor-mid"])
    @pytest.mark.parametrize(
        "backfill,overlap,comm_blind,locality_blind",
        _SPLICE_CASES,
        ids=["default", "nobackfill", "nooverlap", "nobackfill-nooverlap",
             "comm_blind", "locality_blind"],
    )
    def test_splice_on_empty_chart_matches_locbs(
        self, backfill, overlap, comm_blind, locality_blind, floor_frac
    ):
        graph = synthetic_dag(num_tasks=16, ccr=1.0, seed=5)
        cl = Cluster(8, bandwidth=12.5e6, overlap=overlap)
        alloc = {t: 1 + i % 3 for i, t in enumerate(sorted(graph.tasks()))}
        opts = LocbsOptions(
            backfill=backfill, comm_blind=comm_blind, locality_blind=locality_blind
        )
        floor = 0.0
        if floor_frac:
            # past the ready time of some task of the unclamped schedule
            cold = locbs_schedule(graph, cl, alloc, opts).schedule
            floor = floor_frac * cold.makespan
            assert any(p.start < floor for p in cold)

        offline_cache = CostCache(cl)
        offline = locbs_schedule(
            graph, cl, alloc, opts,
            context=SchedulingContext(release_floor=floor),
            cost_cache=offline_cache,
        )
        splice_cache = CostCache(cl)
        timeline = ProcessorTimeline(cl.processors)
        spliced = splice_schedule(
            graph, cl, dict(alloc), timeline,
            release_floor=floor, options=opts, cost_cache=splice_cache,
        )
        assert [
            (p.name, p.start, p.exec_start, p.finish, p.processors)
            for p in spliced
        ] == [
            (p.name, p.start, p.exec_start, p.finish, p.processors)
            for p in offline.schedule
        ]
        assert _probe_counts(splice_cache) == _probe_counts(offline_cache)

    def test_release_floor_clamps_starts(self):
        g = TaskGraph()
        g.add_task("only", ExecutionProfile(LinearSpeedup(), 4.0))
        cl = Cluster(4)
        timeline = ProcessorTimeline(cl.processors)
        placed = splice_schedule(
            g, cl, {"only": 2}, timeline, release_floor=25.0
        )
        assert placed[0].start >= 25.0


class TestPlacers:
    def test_incremental_matches_cold_rebuild(self):
        tmpl = small_template()
        cl = Cluster(8, bandwidth=1e8)
        incr = IncrementalPlacer(cl)
        cold = ColdRebuildPlacer(cl)
        for i, floor in enumerate((0.0, 3.0, 7.5)):
            g = namespace_graph(tmpl, f"j{i}")
            alloc = {t: 2 for t in g.tasks()}
            a = incr.place(g, alloc, floor)
            b = cold.place(g, alloc, floor)
            assert [
                (p.name, p.start, p.exec_start, p.finish, p.processors)
                for p in a.placements
            ] == [
                (p.name, p.start, p.exec_start, p.finish, p.processors)
                for p in b.placements
            ]

    def test_incremental_prices_fewer_probes_once_history_exists(self):
        tmpl = small_template()
        cl = Cluster(8, bandwidth=1e8)
        incr = IncrementalPlacer(cl)
        cold = ColdRebuildPlacer(cl)
        incr_total = cold_total = 0
        for i in range(4):
            g = namespace_graph(tmpl, f"j{i}")
            alloc = {t: 2 for t in g.tasks()}
            incr_total += incr.place(g, alloc, float(i)).probes_considered
            cold_total += cold.place(g, alloc, float(i)).probes_considered
        assert incr_total < cold_total  # cold re-prices all of history

    def test_release_keeps_chart_intact(self):
        cl = Cluster(4, bandwidth=1e8)
        incr = IncrementalPlacer(cl)
        g = namespace_graph(small_template(), "j0")
        incr.place(g, {t: 1 for t in g.tasks()}, 0.0)
        busy_before = incr.timeline.busy_time()
        incr.release(g)
        assert incr.timeline.busy_time() == busy_before


class TestDaemon:
    def test_differential_run_is_identical(self):
        tmpl = small_template()
        jobs = [make_job(f"j{i}", i * 5.0, tmpl) for i in range(6)]
        daemon = OnlineSchedulerDaemon(
            Cluster(8, bandwidth=1e8), differential=True, verify=True
        )
        report = daemon.run(jobs)
        assert report.identical, report.mismatches
        assert report.placed == 6
        assert report.probes["incremental"] < report.probes["cold"]
        assert 0.0 < report.utilization <= 1.0
        for job in jobs:
            assert job.start is not None and job.start >= job.arrival

    def test_duplicate_job_id_raises(self):
        tmpl = small_template()
        jobs = [make_job("same", 0.0, tmpl), make_job("same", 1.0, tmpl)]
        with pytest.raises(ScheduleError):
            OnlineSchedulerDaemon(Cluster(4)).run(jobs)

    def test_rejection_by_width(self):
        cl = Cluster(8, bandwidth=1e8)
        jobs = jobs_from_swf(
            "1 0 0 100 8 -1 -1 8 -1 -1 1 1 1 1 1 1 -1 -1\n"
            "2 1 0 100 1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1\n",
            cl,
        )
        daemon = OnlineSchedulerDaemon(
            cl, admission=AdmissionPolicy(max_width=4)
        )
        report = daemon.run(jobs)
        assert report.rejected == 1
        assert report.placed == 1

    def test_backlog_defers_until_capacity_frees(self):
        cl = Cluster(2, bandwidth=1e8)
        # three rigid 100 s jobs arriving back to back on a tiny machine
        trace = "\n".join(
            f"{i} {i} 0 100 2 -1 -1 2 -1 -1 1 1 1 1 1 1 -1 -1"
            for i in range(1, 4)
        )
        jobs = jobs_from_swf(trace, cl)
        daemon = OnlineSchedulerDaemon(
            cl, admission=AdmissionPolicy(max_backlog=50.0), differential=True
        )
        report = daemon.run(jobs)
        assert report.deferred >= 1  # backlog forced at least one wait
        assert report.placed == 3  # but everything eventually ran
        assert report.identical
        # deferred jobs started no earlier than the replan that admitted them
        starts = sorted(j.start for j in jobs)
        assert starts[1] >= 100.0 - 1e-9 or starts[2] >= 100.0 - 1e-9

    def test_empty_stream(self):
        report = OnlineSchedulerDaemon(Cluster(2)).run([])
        assert report.submitted == 0
        assert report.makespan == 0.0
        assert report.median_speedup is None

    def test_to_dict_shape(self):
        tmpl = small_template()
        daemon = OnlineSchedulerDaemon(
            Cluster(4, bandwidth=1e8), differential=True
        )
        doc = daemon.run([make_job("j0", 0.0, tmpl)]).to_dict()
        for key in (
            "submitted",
            "placed",
            "event_latency",
            "event_latency_by_kind",
            "incremental_latency",
            "cold_latency",
            "median_speedup",
            "identical",
            "probes",
        ):
            assert key in doc
        assert doc["median_speedup"] is None or doc["median_speedup"] > 0

    @pytest.mark.parametrize(
        "suite",
        ["poisson-zipf", "swf-replay"],
    )
    def test_quick_replay_suite_differential(self, suite):
        """The two replay suites at their CI size, differential and verify
        on: every placement bit-identical across arms, every job placed,
        and the incremental arm prices strictly fewer candidate holes."""
        if suite == "poisson-zipf":
            cluster = Cluster(16, bandwidth=1e8)
            jobs = poisson_zipf_stream(n_jobs=40, rate=0.05, seed=2006)
            admission = AdmissionPolicy(max_backlog=4000.0)
        else:
            cluster = Cluster(32, bandwidth=1e8)
            jobs = jobs_from_swf(
                synthetic_swf_text(
                    n_jobs=80, max_width=32, seed=1993, mean_interarrival=60.0
                ),
                cluster,
            )
            admission = AdmissionPolicy(max_backlog=50000.0)
        report = OnlineSchedulerDaemon(
            cluster, admission=admission, differential=True, verify=True
        ).run(jobs)
        probes = report.probes
        print(
            f"{suite}: placed {report.placed}/{len(jobs)}, probes "
            f"incremental {probes['incremental']} vs cold {probes['cold']}"
        )
        assert report.identical, report.mismatches
        assert report.mismatches == []
        assert report.placed == len(jobs)
        assert probes["incremental"] < probes["cold"], probes

    def test_allocator_memoized_per_template(self):
        tmpl = small_template()
        calls = []

        def allocator(graph, cluster):
            calls.append(graph)
            return {t: 2 for t in graph.tasks()}

        daemon = OnlineSchedulerDaemon(
            Cluster(8, bandwidth=1e8), allocator=allocator
        )
        daemon.run([make_job(f"j{i}", i * 2.0, tmpl) for i in range(5)])
        assert len(calls) == 1  # shared template graph -> one allocation


class TestLatencyRollups:
    def test_percentile_nearest_rank(self):
        vals = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(vals, 50) == 3.0
        assert percentile(vals, 95) == 5.0
        assert percentile([], 95) == 0.0

    def test_latency_stats(self):
        stats = latency_stats([2.0, 4.0])
        assert stats["count"] == 2
        assert stats["mean"] == pytest.approx(3.0)
        assert stats["max"] == 4.0
        assert latency_stats([])["count"] == 0


class TestObservability:
    def _traced_run(self):
        tracer = Tracer()
        tmpl = small_template()
        daemon = OnlineSchedulerDaemon(
            Cluster(8, bandwidth=1e8),
            admission=AdmissionPolicy(max_width=8),
            tracer=tracer,
        )
        jobs = [make_job(f"j{i}", i * 4.0, tmpl) for i in range(4)]
        # one rigid job too wide for the machine: exercises the reject path
        wide = TaskGraph("wide/rigid")
        wide.add_task(
            "wide/work", ExecutionProfile.from_table({1: 160.0, 16: 10.0})
        )
        jobs.append(
            Job(
                job_id="wide",
                template="rigid",
                graph=wide,
                template_graph=wide,
                arrival=2.0,
                allocation={"wide/work": 16},
            )
        )
        daemon.run(jobs)
        return tracer

    def test_tracer_emits_online_events(self):
        tracer = self._traced_run()
        names = {ev.name for ev in tracer.events}
        assert "online_event" in names
        assert "job_submitted" in names
        assert "job_placed" in names
        assert "job_finished" in names
        assert "job_rejected" in names

    def test_registry_folds_online_metrics(self):
        tracer = self._traced_run()
        reg = registry_from_events(tracer.events)
        rendered = reg.render()
        assert "online_event_seconds" in rendered
        assert "online_queue_depth" in rendered
        assert "online_jobs" in rendered

    def test_dashboard_renders_online_tile(self):
        tracer = self._traced_run()
        html = render_dashboard(tracer.events)
        assert "Online p95 latency" in html
        assert "max queue depth" in html

    def test_dashboard_without_online_events_has_no_tile(self):
        html = render_dashboard([])
        assert "Online p95 latency" not in html


class TestStreams:
    def test_poisson_zipf_stream_shares_templates(self):
        jobs = poisson_zipf_stream(n_jobs=12, rate=0.1, seed=5)
        assert len(jobs) == 12
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals)
        assert len({id(j.template_graph) for j in jobs}) <= len(
            default_templates()
        )
        assert len({j.job_id for j in jobs}) == 12

    def test_stream_deterministic_by_seed(self):
        a = poisson_zipf_stream(n_jobs=8, rate=0.2, seed=3)
        b = poisson_zipf_stream(n_jobs=8, rate=0.2, seed=3)
        assert [(j.job_id, j.arrival) for j in a] == [
            (j.job_id, j.arrival) for j in b
        ]

    def test_daemon_over_stream_end_to_end(self):
        jobs = poisson_zipf_stream(n_jobs=10, rate=0.1, seed=1)
        report = OnlineSchedulerDaemon(
            Cluster(16, bandwidth=1e8), differential=True
        ).run(jobs)
        assert report.identical, report.mismatches
        assert report.placed == 10
        assert math.isfinite(report.submissions_per_sim_hour)


class TestHashSeedDeterminism:
    def test_daemon_run_is_hash_seed_independent(self):
        """Same trace + seed => identical event order and final chart.

        The daemon promises no dict/hash-order dependence anywhere on the
        event path. Run the same Poisson/Zipf replay under two different
        ``PYTHONHASHSEED`` values in subprocesses (the seed is baked in at
        interpreter start) and require byte-identical output — the
        ``deep_dag`` pattern from ``test_array_equivalence.py`` applied to
        the whole online loop.
        """
        import os
        import subprocess
        import sys

        script = (
            "from repro import Cluster\n"
            "from repro.obs.tracer import Tracer\n"
            "from repro.online import OnlineSchedulerDaemon, "
            "poisson_zipf_stream\n"
            "from repro.online.admission import AdmissionPolicy\n"
            "tracer = Tracer(clock=lambda: 0.0)\n"
            "jobs = poisson_zipf_stream(n_jobs=12, rate=0.08, seed=42)\n"
            "daemon = OnlineSchedulerDaemon(\n"
            "    Cluster(8, bandwidth=1e8),\n"
            "    admission=AdmissionPolicy(max_backlog=300.0),\n"
            "    differential=True,\n"
            "    tracer=tracer,\n"
            ")\n"
            "report = daemon.run(jobs)\n"
            "print(report.identical, report.placed, report.deferred,\n"
            "      report.rejected, f'{report.makespan:.9f}')\n"
            "for ev in tracer.events:\n"
            "    if ev.name == 'online_event':\n"
            "        print(ev.fields['kind'], f\"{ev.fields['sim_time']:.9f}\")\n"
            "for job in report.jobs:\n"
            "    for p in job.placements:\n"
            "        print(p.name, f'{p.start:.9f}', f'{p.finish:.9f}',\n"
            "              p.processors)\n"
        )
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0].startswith("True "), outs[0]
        assert outs[0] == outs[1], "online run depends on PYTHONHASHSEED"
