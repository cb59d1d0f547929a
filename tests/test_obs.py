"""Observability layer: tracer, counters, exporters, CLI, instrumentation."""

import inspect
import json

import pytest

from repro import Cluster, LocMpsScheduler, NULL_TRACER, NullTracer, Tracer
from repro.obs import (
    Counters,
    TimerStat,
    Timers,
    TraceEvent,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.cli import main as obs_main, report_text
from repro.obs.dashboard import render_dashboard
from repro.obs.registry import registry_from_events, render_openmetrics
from repro.sim import ExecutionEngine

from tests.helpers import build_random_graph


def traced_schedule(tracer, *, ccr_volume=10e6, locality_blind=False, **kw):
    g = build_random_graph(12, seed=3, ccr_volume=ccr_volume)
    c = Cluster(num_processors=4, bandwidth=12.5e6)
    sched = LocMpsScheduler(tracer=tracer, locality_blind=locality_blind, **kw)
    return g, c, sched, sched.schedule(g, c)


class TestNullTracer:
    def test_records_nothing(self):
        _, _, _, schedule = traced_schedule(None)
        assert NULL_TRACER.events == []
        assert len(NULL_TRACER.counters) == 0
        assert len(NULL_TRACER.timers) == 0
        assert schedule.makespan > 0

    def test_disabled_flag_and_span(self):
        nt = NullTracer()
        assert not nt.enabled
        with nt.span("phase"):
            nt.event("x", a=1)
            nt.count("y")
            nt.gauge("z", 3.0)
        assert nt.events == [] and nt.summary()["num_events"] == 0

    def test_default_scheduler_tracer_is_null(self):
        assert LocMpsScheduler().tracer is NULL_TRACER

    def test_tracing_does_not_change_the_schedule(self):
        _, _, _, plain = traced_schedule(None)
        _, _, _, traced = traced_schedule(Tracer())
        assert traced.makespan == plain.makespan
        assert traced.allocation() == plain.allocation()


class TestTracer:
    def test_event_ordering_and_counters(self):
        tr = Tracer()
        tr.event("a", k=1)
        tr.event("b")
        tr.event("a", k=2)
        assert [e.name for e in tr.events] == ["a", "b", "a"]
        ts = [e.ts for e in tr.events]
        assert ts == sorted(ts)
        assert tr.counters.get("a") == 2 and tr.counters.get("b") == 1
        assert tr.events_by_type() == {"a": 2, "b": 1}

    def test_span_records_duration_and_timer(self):
        tr = Tracer()
        with tr.span("phase", tag="x"):
            pass
        (ev,) = tr.events
        assert ev.name == "phase" and ev.dur >= 0.0 and ev.fields["tag"] == "x"
        assert tr.timers.get("phase").count == 1

    def test_summary_shape(self):
        tr = Tracer()
        tr.event("a")
        tr.gauge("g", 4.5)
        s = tr.summary()
        assert s["num_events"] == 1
        assert s["events_by_type"] == {"a": 1}
        assert s["counters"]["g"] == 4.5

    def test_counters_and_timers_standalone(self):
        c = Counters()
        c.inc("n", 3)
        c.set_gauge("g", 2.0)
        assert c.summary() == {"n": 3, "g": 2.0}
        t = Timers()
        t.add("p", 0.5)
        t.add("p", 1.5)
        stat = t.get("p")
        assert isinstance(stat, TimerStat)
        assert stat.count == 2 and stat.mean == pytest.approx(1.0)
        assert t.summary()["p"]["max_s"] == pytest.approx(1.5)


class TestJsonlRoundTrip:
    def test_events_round_trip(self, tmp_path):
        tr = Tracer()
        _, _, _, _ = traced_schedule(tr)
        path = str(tmp_path / "t.jsonl")
        n = write_jsonl(tr, path)
        assert n == len(tr.events) > 0
        back = read_jsonl(path)
        assert [e.to_dict() for e in back] == [e.to_dict() for e in tr.events]

    def test_event_dict_round_trip(self):
        ev = TraceEvent("task_placed", 1.25, {"task": "A", "width": 2}, 0.5)
        assert TraceEvent.from_dict(ev.to_dict()) == ev

    def test_plain_event_list_accepted(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_jsonl([TraceEvent("a", 0.0)], path)
        assert [e.name for e in read_jsonl(path)] == ["a"]


class TestChromeExport:
    def test_valid_structure(self, tmp_path):
        tr = Tracer()
        g, c, _, schedule = traced_schedule(tr)
        ExecutionEngine(g, c, tracer=tr).execute(schedule)
        path = str(tmp_path / "t.chrome.json")
        write_chrome_trace(tr, path)
        with open(path) as fh:
            doc = json.load(fh)
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        for rec in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(rec)
            assert rec["ph"] in ("X", "i", "M")
            if rec["ph"] != "M":
                assert rec["ts"] >= 0.0
            if rec["ph"] == "X":
                assert rec["dur"] >= 0.0

    def test_sim_tasks_become_per_processor_slices(self):
        tr = Tracer()
        g, c, _, schedule = traced_schedule(tr)
        report = ExecutionEngine(g, c, tracer=tr).execute(schedule)
        doc = to_chrome_trace(tr)
        sim = [r for r in doc["traceEvents"] if r.get("cat") == "sim_task"]
        n_lanes = sum(len(t.processors) for t in report.tasks.values())
        assert len(sim) == n_lanes
        # one slice per processor lane, timed in simulated microseconds
        a_task = next(iter(report.tasks.values()))
        slices = [r for r in sim if r["name"] == a_task.name]
        assert {r["tid"] for r in slices} == set(a_task.processors)
        assert slices[0]["ts"] == pytest.approx(a_task.start * 1e6)

    def test_spans_become_complete_events(self):
        tr = Tracer()
        traced_schedule(tr)
        doc = to_chrome_trace(tr)
        spans = [r for r in doc["traceEvents"] if r["name"] == "locbs_schedule"]
        assert spans and all(r["ph"] == "X" for r in spans)


class TestChromeExportEdgeCases:
    def test_zero_makespan_schedule(self, tmp_path):
        # zero-duration sim spans (start == finish == 0) must export as
        # valid zero-width 'X' slices, not crash or go negative
        events = [
            TraceEvent(
                "sim_task",
                0.0,
                {"task": "t0", "start": 0.0, "finish": 0.0, "processors": [0]},
            ),
            TraceEvent(
                "sim_task",
                0.0,
                {"task": "t1", "start": 0.0, "finish": 0.0, "processors": [1]},
            ),
        ]
        doc = to_chrome_trace(events)
        slices = [r for r in doc["traceEvents"] if r["ph"] == "X"]
        assert len(slices) == 2
        assert all(r["dur"] == 0.0 and r["ts"] == 0.0 for r in slices)
        path = str(tmp_path / "zero.chrome.json")
        write_chrome_trace(events, path)
        with open(path) as fh:
            json.load(fh)  # strict JSON, loadable

    def test_inverted_span_clamps_duration(self):
        # finish < start (a malformed or clock-skewed record) clamps to 0
        ev = TraceEvent(
            "sim_task",
            0.0,
            {"task": "t", "start": 5.0, "finish": 3.0, "processors": [0]},
        )
        (rec,) = [
            r for r in to_chrome_trace([ev])["traceEvents"] if r["ph"] == "X"
        ]
        assert rec["dur"] == 0.0

    def test_empty_trace_file(self, tmp_path):
        src = str(tmp_path / "empty.jsonl")
        open(src, "w").close()
        assert read_jsonl(src) == []
        doc = to_chrome_trace([])
        # only the scheduler process_name metadata record remains
        assert [r["ph"] for r in doc["traceEvents"]] == ["M"]
        dst = str(tmp_path / "empty.chrome.json")
        assert write_chrome_trace([], dst) == 1
        with open(dst) as fh:
            assert json.load(fh)["traceEvents"]

    def test_blank_lines_in_jsonl_are_skipped(self, tmp_path):
        path = str(tmp_path / "gappy.jsonl")
        with open(path, "w") as fh:
            fh.write("\n\n")
            fh.write(json.dumps(TraceEvent("a", 1.0).to_dict()) + "\n\n")
        assert [e.name for e in read_jsonl(path)] == ["a"]

    def test_sim_event_without_processors_gets_lane_zero(self):
        ev = TraceEvent(
            "sim_task", 0.0, {"task": "t", "start": 0.0, "finish": 1.0}
        )
        doc = to_chrome_trace([ev])
        (rec,) = [r for r in doc["traceEvents"] if r["ph"] == "X"]
        assert rec["tid"] == 0

    def test_absorb_twice_with_same_spool_stays_consistent(self):
        # absorb() appends what it is given: feeding the same spool twice
        # doubles the events, and the counters/timers must track exactly —
        # never drift from the event list
        spool = [
            TraceEvent("task_placed", 1.0, {"task": "a"}),
            TraceEvent("locbs_schedule", 2.0, {}, 0.25),
        ]
        tr = Tracer()
        tr.absorb(spool)
        tr.absorb(spool)
        assert len(tr.events) == 4
        assert tr.counters.get("task_placed") == 2
        assert tr.counters.get("locbs_schedule") == 2
        assert tr.timers.get("locbs_schedule").count == 2
        assert tr.events_by_type() == {"task_placed": 2, "locbs_schedule": 2}
        # the doubled trace still exports deterministically
        assert to_chrome_trace(tr) == to_chrome_trace(tr)


class TestInstrumentation:
    def test_scheduler_emits_typed_events(self):
        tr = Tracer()
        traced_schedule(tr)
        by_type = tr.events_by_type()
        for name in (
            "outer_iteration",
            "lookahead_step",
            "candidate_selected",
            "task_placed",
            "memo_miss",
            "redistribution_costed",
        ):
            assert by_type.get(name, 0) > 0, name

    def test_locality_counters_change_with_locality_blind(self):
        aware, blind = Tracer(), Tracer()
        traced_schedule(aware, locality_blind=False)
        traced_schedule(blind, locality_blind=True)
        assert aware.counters.get("locality_hit") > 0
        # the blind scheduler never ranks by residency, so it records no
        # locality decisions at all
        assert blind.counters.get("locality_hit") == 0
        assert blind.counters.get("locality_miss") == 0

    def test_sim_engine_emits_spans(self):
        tr = Tracer()
        g, c, _, schedule = traced_schedule(tr)
        report = ExecutionEngine(g, c, tracer=tr).execute(schedule)
        sim_tasks = [e for e in tr.events if e.name == "sim_task"]
        assert len(sim_tasks) == g.num_tasks
        assert max(e.fields["finish"] for e in sim_tasks) == pytest.approx(
            report.makespan
        )


class TestMemoTelemetry:
    def test_stats_exposed(self):
        tr = Tracer()
        _, _, sched, _ = traced_schedule(tr)
        stats = sched.memo_stats
        assert stats["misses"] > 0
        assert stats["hits"] == tr.counters.get("memo_hit")
        assert stats["misses"] == tr.counters.get("memo_miss")
        assert stats["peak_size"] >= stats["size"] > 0
        assert tr.counters.gauge("memo_size") == stats["size"]

    def test_memo_limit_bounds_size_and_preserves_result(self):
        _, _, unlimited, plain = traced_schedule(None)
        _, _, capped, limited = traced_schedule(None, memo_limit=4)
        assert capped.memo_stats["peak_size"] <= 4
        assert capped.memo_stats["evictions"] > 0
        # eviction only costs recomputation; the search is unchanged
        assert limited.makespan == plain.makespan

    def test_prefix_reuse_counters_match_the_trace(self):
        tr = Tracer()
        g, _, sched, _ = traced_schedule(tr)
        stats = sched.memo_stats
        reused = [e.fields["count"] for e in tr.events if e.name == "prefix_reused"]
        # one event per LoCBS pass, i.e. per memo miss
        assert len(reused) == stats["misses"]
        assert sum(reused) == stats["placements_reused"] > 0
        assert stats["placements_scanned"] > 0
        assert (
            stats["placements_reused"] + stats["placements_scanned"]
            == stats["misses"] * g.num_tasks
        )
        # every placement, reused or scanned, is still announced
        assert tr.counters.get("task_placed") == stats["misses"] * g.num_tasks

    def test_prefix_reuse_counters_untraced_equal_traced(self):
        _, _, plain, _ = traced_schedule(None)
        _, _, traced, _ = traced_schedule(Tracer())
        assert plain.memo_stats == traced.memo_stats

    def test_memo_limit_validation(self):
        with pytest.raises(ValueError):
            LocMpsScheduler(memo_limit=0)


class TestPruneTelemetry:
    """``prune_stats`` deltas, the registry and the dashboard tile agree."""

    @pytest.fixture(scope="class")
    def run(self):
        tr = Tracer()
        _, _, sched, _ = traced_schedule(tr)
        return tr, sched.cost_cache_stats

    def test_registry_totals_equal_events_and_cost_cache_stats(self, run):
        tr, stats = run
        deltas = [e.fields for e in tr.events if e.name == "prune_stats"]
        assert deltas
        reg = registry_from_events(tr.events)
        for kind in ("considered", "bound_pruned"):
            total = sum(d[kind] for d in deltas)
            assert total > 0, kind
            assert reg.get("prune_probes", kind=kind) == total
            assert stats[f"probes_{kind}"] == total
        assert all(set(d) == {"considered", "bound_pruned"} for d in deltas)
        assert reg.get("prune_probes", kind="dominance_pruned") is None
        assert "dominance_pruned" not in render_openmetrics(reg)

    def test_dashboard_tile_lists_considered_and_break_pruned(self, run):
        tr, stats = run
        considered = stats["probes_considered"]
        pruned = stats["probes_bound_pruned"]
        html = render_dashboard(tr.events)
        assert "Probe prune rate" in html
        assert f"{pruned / (considered + pruned):.1%}" in html
        assert f"{considered} considered, {pruned} break-pruned" in html
        assert "dominance" not in html


class TestSelectEdgeSignature:
    def test_limits_parameter_removed(self):
        params = inspect.signature(LocMpsScheduler._select_edge).parameters
        assert "limits" not in params


class TestObsCli:
    def test_report_contents(self, tmp_path, capsys):
        tr = Tracer()
        traced_schedule(tr)
        path = str(tmp_path / "t.jsonl")
        write_jsonl(tr, path)
        obs_main(["report", path])
        out = capsys.readouterr().out
        assert "locality hit rate" in out
        assert "memo hit rate" in out
        assert "backfill fill ratio" in out
        assert "task_placed" in out

    def test_chrome_subcommand(self, tmp_path, capsys):
        tr = Tracer()
        traced_schedule(tr)
        src = str(tmp_path / "t.jsonl")
        dst = str(tmp_path / "t.chrome.json")
        write_jsonl(tr, src)
        obs_main(["chrome", src, dst])
        with open(dst) as fh:
            assert json.load(fh)["traceEvents"]

    def test_report_text_handles_empty_trace(self):
        text = report_text([])
        assert "0 events" in text and "n/a" in text


class TestExperimentsTraceFlag:
    def test_trace_flag_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.experiments.cli import main as experiments_main

        path = str(tmp_path / "fig.jsonl")
        experiments_main(["fig9a", "--procs", "4", "--trace", path])
        events = read_jsonl(path)
        assert events
        names = {e.name for e in events}
        assert "experiment_cell" in names and "task_placed" in names

    def test_run_comparison_merges_tracer_with_workers(self):
        # workers > 1 used to reject a tracer outright; worker events are
        # now spooled per process and merged back (tests/test_parallel_backend.py
        # covers exactly-once semantics — here we just check it records).
        from repro.experiments.common import run_comparison

        g = build_random_graph(6, seed=1)
        tracer = Tracer()
        run_comparison([g], ["task"], [2], bandwidth=1e6, workers=2, tracer=tracer)
        assert any(e.name == "experiment_cell" for e in tracer.events)
