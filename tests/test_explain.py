"""Schedule explainability: provenance, attribution, metrics, dashboard."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest

from repro import Cluster, LocMpsScheduler, Tracer
from repro.cluster import MYRINET_2GBPS
from repro.exceptions import ScheduleError
from repro.obs import (
    MetricsRegistry,
    read_jsonl,
    registry_from_events,
    render_openmetrics,
    validate_openmetrics,
    write_jsonl,
)
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.perf.hotpath import wide_dag
from repro.workloads.strassen import strassen_graph
from repro.schedule import attribute_makespan, extract_critical_chain
from repro.schedulers import (
    CandidateProbe,
    PlacementDecision,
    ProvenanceRecorder,
    rank_regrets,
)
from repro.schedulers.provenance import LOST, TOO_FEW_FREE, WON
from repro.sim import ExecutionEngine
from repro.utils.intervals import EPS

from tests.helpers import build_random_graph


def _probe(outcome, margin, tau=0.0, procs=(0,), finish=1.0):
    infeasible = outcome in (TOO_FEW_FREE, "hole_too_short")
    return CandidateProbe(
        tau=tau,
        processors=() if infeasible else tuple(procs),
        start=math.inf if infeasible else tau,
        exec_start=math.inf if infeasible else tau,
        finish=math.inf if infeasible else finish,
        resident_bytes=0.0,
        comm_time=0.0,
        outcome=outcome,
        margin=margin,
    )


def explained_schedule(**kw):
    g = build_random_graph(12, seed=3, ccr_volume=10e6)
    c = Cluster(num_processors=4, bandwidth=12.5e6)
    sched = LocMpsScheduler(explain=True, **kw)
    return g, c, sched, sched.schedule(g, c)


class TestProvenanceRecords:
    def test_probe_round_trips_including_non_finite(self):
        p = _probe(TOO_FEW_FREE, math.inf, tau=2.5)
        d = p.to_dict()
        # non-finite floats serialize as null, never as bare Infinity
        json.loads(json.dumps(d, allow_nan=False))
        assert CandidateProbe.from_dict(d) == p

    def test_decision_round_trip_and_regret(self):
        d = PlacementDecision(
            task="t",
            width=2,
            ready_time=1.0,
            candidates=[
                _probe(WON, 0.0, tau=1.0),
                _probe(LOST, 0.75, tau=2.0),
                _probe(LOST, 0.25, tau=3.0),
                _probe(TOO_FEW_FREE, math.inf, tau=4.0),
            ],
            winner=0,
            run="g/P4/locmps",
        )
        assert d.placement.outcome == WON
        assert d.runner_up.margin == 0.25
        assert d.regret == 0.25
        back = PlacementDecision.from_dict(d.to_dict())
        assert back.task == d.task and back.regret == d.regret
        assert back.run == d.run

    def test_forced_decision_has_infinite_regret(self):
        d = PlacementDecision(
            task="t",
            width=1,
            ready_time=0.0,
            candidates=[_probe(WON, 0.0)],
            winner=0,
        )
        assert d.runner_up is None
        assert d.regret == float("inf")

    def test_rank_regrets_excludes_forced_and_sorts(self):
        def dec(name, margin):
            cands = [_probe(WON, 0.0)]
            if margin is not None:
                cands.append(_probe(LOST, margin))
            return PlacementDecision(
                task=name, width=1, ready_time=0.0, candidates=cands, winner=0
            )

        ds = [dec("a", 0.5), dec("b", None), dec("c", 0.1), dec("d", 0.1)]
        ranked = rank_regrets(ds, 10)
        assert [d.task for d in ranked] == ["c", "d", "a"]
        assert [d.task for d in rank_regrets(ds, 1)] == ["c"]

    def test_recorder_labels_and_lookup(self):
        rec = ProvenanceRecorder(label="g/P8/locmps")
        d = PlacementDecision(
            task="x",
            width=1,
            ready_time=0.0,
            candidates=[_probe(WON, 0.0)],
            winner=0,
        )
        rec.record(d)
        assert len(rec) == 1
        assert rec.decision_for("x").run == "g/P8/locmps"
        assert rec.decision_for("missing") is None


class TestExplainScheduler:
    def test_disabled_by_default(self):
        sched = LocMpsScheduler()
        assert sched.explain is False
        g = build_random_graph(8, seed=5)
        sched.schedule(g, Cluster(num_processors=4, bandwidth=12.5e6))
        assert sched.provenance is None

    def test_explain_does_not_change_the_schedule(self):
        g = build_random_graph(12, seed=3, ccr_volume=10e6)
        c = Cluster(num_processors=4, bandwidth=12.5e6)
        plain = LocMpsScheduler().schedule(g, c)
        explained = LocMpsScheduler(explain=True).schedule(g, c)
        assert explained.makespan == plain.makespan
        assert explained.allocation() == plain.allocation()

    def test_every_placement_has_a_matching_decision(self):
        g, c, sched, schedule = explained_schedule()
        rec = sched.provenance
        assert rec is not None and len(rec) == len(schedule)
        for placed in schedule:
            d = rec.decision_for(placed.name)
            assert d is not None
            w = d.placement
            assert w.outcome == WON and w.margin == 0.0
            assert w.processors == tuple(placed.processors)
            assert w.start == placed.start
            assert w.exec_start == placed.exec_start
            assert w.finish == placed.finish
            assert d.width == placed.width
            assert d.run  # run label stamped (graph/P/scheme)

    def test_acceptance_wide_synthetic_p64(self):
        # acceptance-scale shape: wide fork-join DAG on P=64
        g = wide_dag(20, seed=11)
        c = Cluster(num_processors=64, bandwidth=MYRINET_2GBPS)
        sched = LocMpsScheduler(explain=True, look_ahead_depth=4)
        schedule = sched.schedule(g, c)
        rec = sched.provenance
        assert len(rec) == g.num_tasks == len(schedule)
        for placed in schedule:
            w = rec.decision_for(placed.name).placement
            assert w.processors == tuple(placed.processors)
            assert w.finish == placed.finish
        # the wide middle layer contends: most decisions must be contested
        assert len(rec.regret_list(1000)) > 0

    def test_losing_probes_carry_finite_margins(self):
        _, _, sched, _ = explained_schedule()
        losers = [
            c
            for d in sched.provenance.decisions
            for c in d.candidates
            if c.outcome == LOST
        ]
        assert losers
        assert all(c.margin >= 0.0 and math.isfinite(c.margin) for c in losers)

    @pytest.mark.parametrize("backfill", [True, False])
    def test_break_closed_probes_never_beat_the_winner(self, backfill):
        """The explaining scan probes past the ``tau + et`` break.

        Once a candidate fails the break test every later one does too
        (``tau`` rises, the incumbent finish only falls), so the ``pruned``
        probes are the tail of the list; the winner must precede them and
        none of them may finish earlier than it.
        """
        _, _, sched, _ = explained_schedule(backfill=backfill)
        decisions = sched.provenance.decisions
        assert any(d.pruned for d in decisions)
        for d in decisions:
            open_probes = len(d.candidates) - d.pruned
            assert 0 <= d.winner < open_probes
            for c in d.candidates[open_probes:]:
                assert c.finish >= d.placement.finish - EPS

    def test_placement_decision_events_reach_the_tracer(self):
        tr = Tracer()
        g = build_random_graph(10, seed=7, ccr_volume=10e6)
        c = Cluster(num_processors=4, bandwidth=12.5e6)
        sched = LocMpsScheduler(explain=True, tracer=tr)
        schedule = sched.schedule(g, c)
        evs = [e for e in tr.events if e.name == "placement_decision"]
        assert len(evs) == len(schedule)
        for e in evs:
            # strict-JSON serializable (no bare Infinity)
            json.loads(json.dumps(e.to_dict(), allow_nan=False))
            PlacementDecision.from_dict(e.fields)


#: every explained decision of a fixed matrix of runs, digested; pins the
#: losing probes too, which the explain pass's divergence check (winner
#: rows only) cannot see
EXPLAIN_GOLDEN_PATH = Path(__file__).parent / "golden" / "explain_golden.json"

_EXPLAIN_GRAPHS = {
    "wide-synthetic": lambda: wide_dag(28, seed=11),
    "strassen": lambda: strassen_graph(256),
}


def _explain_case_ids():
    for name in sorted(_EXPLAIN_GRAPHS):
        for backfill in (True, False):
            for overlap in (True, False):
                yield f"{name}/backfill={backfill}/overlap={overlap}"


def _explain_digest(case_id):
    name, bf, ov = case_id.split("/")
    cluster = Cluster(
        num_processors=8,
        bandwidth=MYRINET_2GBPS,
        overlap=ov == "overlap=True",
    )
    sched = LocMpsScheduler(
        look_ahead_depth=4, explain=True, backfill=bf == "backfill=True"
    )
    sched.schedule(_EXPLAIN_GRAPHS[name](), cluster)
    decisions = [d.to_dict() for d in sched.provenance.decisions]
    blob = json.dumps(
        decisions, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode()
    return {
        "decisions": len(decisions),
        "candidates": sum(len(d["candidates"]) for d in decisions),
        "digest": hashlib.sha1(blob).hexdigest(),
    }


class TestExplainGolden:
    """Every ``CandidateProbe`` of an explained run, against a fixture.

    Regenerate deliberately (only when an intentional change to the
    recorded scan lands) with ``PYTHONPATH=src python -m tests.test_explain``.
    """

    @pytest.mark.parametrize("case_id", list(_explain_case_ids()))
    def test_decisions_match_the_fixture(self, case_id):
        golden = json.loads(EXPLAIN_GOLDEN_PATH.read_text())
        assert _explain_digest(case_id) == golden[case_id]


def _diverging_explain_pass(monkeypatch, corrupt):
    """Make the explaining (provenance) pass return a corrupted schedule."""
    original = LocMpsScheduler._schedule

    def patched(
        self, graph, cluster, alloc, provenance=None, base=None, plan=None
    ):
        result = original(self, graph, cluster, alloc, provenance, base, plan)
        if provenance is not None:
            corrupt(result.schedule)
        return result

    monkeypatch.setattr(LocMpsScheduler, "_schedule", patched)


class TestExplainDivergenceCheck:
    """The cold explaining pass must match the committed schedule exactly."""

    def test_moved_placement_with_same_makespan_raises(self, monkeypatch):
        def corrupt(schedule):
            # swap one processor of a narrow task: same times, so the
            # makespan (all the old check compared) is unchanged
            placed = next(
                p for p in schedule
                if p.width < schedule.cluster.num_processors
            )
            spare = next(
                p for p in schedule.cluster.processors
                if p not in placed.processors
            )
            procs = (spare,) + placed.processors[1:]
            schedule._placements[placed.name] = dataclasses.replace(
                placed, processors=tuple(sorted(procs))
            )

        _diverging_explain_pass(monkeypatch, corrupt)
        with pytest.raises(ScheduleError, match="diverged"):
            explained_schedule()

    def test_changed_transfer_time_raises(self, monkeypatch):
        def corrupt(schedule):
            key = next(iter(schedule.edge_comm_times))
            schedule.edge_comm_times[key] += 1.0

        _diverging_explain_pass(monkeypatch, corrupt)
        with pytest.raises(ScheduleError, match="transfer times"):
            explained_schedule()

    def test_identical_pass_is_accepted(self, monkeypatch):
        _diverging_explain_pass(monkeypatch, lambda schedule: None)
        _, _, sched, schedule = explained_schedule()
        assert len(sched.provenance) == len(schedule)


class TestAttribution:
    @pytest.mark.parametrize("overlap", [True, False])
    def test_identity_sums_to_p_times_makespan(self, overlap):
        g = build_random_graph(14, seed=9, ccr_volume=20e6)
        c = Cluster(num_processors=4, bandwidth=12.5e6, overlap=overlap)
        schedule = LocMpsScheduler().schedule(g, c)
        rep = attribute_makespan(schedule)
        assert rep.num_processors == 4
        total = rep.compute + rep.redistribution + rep.idle
        assert total == pytest.approx(rep.total, rel=1e-9)
        assert rep.total == pytest.approx(4 * schedule.makespan)
        fr = rep.fractions()
        assert sum(fr.values()) == pytest.approx(1.0)
        assert all(v >= 0.0 for v in fr.values())
        if not overlap:
            # non-overlapping clusters charge inbound comm to the
            # destination processors
            assert rep.redistribution > 0.0

    def test_per_processor_rows_cover_the_cluster(self):
        g = build_random_graph(10, seed=2)
        c = Cluster(num_processors=5, bandwidth=12.5e6)
        rep = attribute_makespan(LocMpsScheduler().schedule(g, c))
        assert [a.processor for a in rep.per_processor] == list(range(5))
        for a in rep.per_processor:
            assert a.busy == pytest.approx(a.compute + a.redistribution)
            assert a.idle >= -1e-9

    def test_report_text_and_dict(self):
        g = build_random_graph(8, seed=4)
        c = Cluster(num_processors=4, bandwidth=12.5e6)
        rep = attribute_makespan(LocMpsScheduler().schedule(g, c))
        assert rep.dominant in ("compute", "redistribution", "idle")
        assert "makespan" in rep.text()
        d = rep.to_dict()
        assert len(d["per_processor"]) == 4
        json.dumps(d, allow_nan=False)

    @pytest.mark.parametrize("overlap", [True, False])
    def test_critical_chain_ends_at_the_makespan(self, overlap):
        g = build_random_graph(14, seed=9, ccr_volume=20e6)
        c = Cluster(num_processors=4, bandwidth=12.5e6, overlap=overlap)
        schedule = LocMpsScheduler().schedule(g, c)
        chain = extract_critical_chain(schedule, g)
        assert chain
        assert chain[-1].binds == "makespan"
        assert chain[-1].finish == pytest.approx(schedule.makespan)
        for link in chain[:-1]:
            assert link.binds in ("data", "resource")
        # time-ordered and contiguous in the committed schedule
        finishes = [link.finish for link in chain]
        assert finishes == sorted(finishes)
        for link in chain:
            assert link.task in schedule


class TestMetricsRegistry:
    def test_counter_gauge_histogram_render_clean(self):
        reg = MetricsRegistry()
        reg.inc("events", 3, type="task_placed", help="by type")
        reg.set_gauge("queue_depth", 7.0, help="ready queue")
        for v in (0.001, 0.02, 0.3, 4.0):
            reg.observe("span_seconds", v, name="locbs", help="spans")
        text = render_openmetrics(reg)
        assert validate_openmetrics(text) == []
        assert "# EOF" in text
        assert 'repro_events_total{type="task_placed"} 3' in text
        assert "repro_span_seconds_bucket" in text

    def test_label_collision_with_parameter_names(self):
        # labels named "name"/"amount"/"value" must not collide with the
        # positional-only method parameters
        reg = MetricsRegistry()
        reg.inc("lookups", 1, name="x", amount="y")
        reg.observe("obs_seconds", 0.5, value="z")
        assert validate_openmetrics(render_openmetrics(reg)) == []

    def test_negative_counter_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("n", -1)

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.inc("m", 1)
        with pytest.raises(ValueError):
            reg.set_gauge("m", 2.0)

    def test_validator_flags_problems(self):
        assert validate_openmetrics("") != []  # no EOF
        bad = "undeclared_metric 1\n# EOF\n"
        assert any("undeclared" in p or "TYPE" in p
                   for p in validate_openmetrics(bad))

    def test_registry_from_events_covers_provenance(self, tmp_path):
        tr = Tracer()
        g = build_random_graph(10, seed=7, ccr_volume=10e6)
        c = Cluster(num_processors=4, bandwidth=12.5e6)
        LocMpsScheduler(explain=True, tracer=tr).schedule(g, c)
        reg = registry_from_events(tr.events)
        text = render_openmetrics(reg)
        assert validate_openmetrics(text) == []
        assert "repro_placement_decisions_total" in text
        assert "repro_placement_candidates_total" in text


class TestDashboard:
    @pytest.fixture(scope="class")
    def trace_events(self, tmp_path_factory):
        tr = Tracer()
        g = build_random_graph(12, seed=3, ccr_volume=10e6)
        c = Cluster(num_processors=4, bandwidth=12.5e6)
        sched = LocMpsScheduler(explain=True, tracer=tr)
        schedule = sched.schedule(g, c)
        ExecutionEngine(g, c, tracer=tr).execute(schedule)
        path = str(tmp_path_factory.mktemp("dash") / "trace.jsonl")
        write_jsonl(tr, path)
        return read_jsonl(path)

    def test_renders_all_sections(self, trace_events):
        html = render_dashboard(trace_events)
        for marker in (
            "Processor utilization",
            "Makespan attribution",
            "Regret list",
            "Decision provenance",
            "sim_task events",  # replay preferred over planned placements
        ):
            assert marker in html, marker
        assert "Infinity" not in html

    def test_groups_decisions_by_run(self, trace_events):
        html = render_dashboard(trace_events)
        runs = {
            e.fields["run"]
            for e in trace_events
            if e.name == "placement_decision"
        }
        assert runs
        for run in runs:
            assert run in html

    def test_empty_trace_still_renders(self):
        html = render_dashboard([])
        assert "<html" in html and "No task intervals" in html

    def test_write_dashboard(self, trace_events, tmp_path):
        out = write_dashboard(trace_events, tmp_path / "d.html")
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")

    def test_planned_fallback_collapses_lookahead_passes(self):
        # without sim or explain events, the heatmap falls back to
        # task_placed — deduplicated, not every speculative pass overlaid
        tr = Tracer()
        g = build_random_graph(10, seed=7)
        c = Cluster(num_processors=4, bandwidth=12.5e6)
        LocMpsScheduler(tracer=tr).schedule(g, c)
        html = render_dashboard(tr.events)
        assert "look-ahead passes" in html


class TestCliIntegration:
    def test_obs_metrics_subcommand(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_main

        tr = Tracer()
        g = build_random_graph(10, seed=7, ccr_volume=10e6)
        c = Cluster(num_processors=4, bandwidth=12.5e6)
        LocMpsScheduler(explain=True, tracer=tr).schedule(g, c)
        src = str(tmp_path / "t.jsonl")
        write_jsonl(tr, src)
        out = str(tmp_path / "m.txt")
        obs_main(["metrics", src, "--out", out, "--check"])
        text = open(out).read()
        assert text.endswith("# EOF\n")
        assert validate_openmetrics(text) == []

    def test_obs_dashboard_subcommand(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_main

        tr = Tracer()
        g = build_random_graph(10, seed=7)
        c = Cluster(num_processors=4, bandwidth=12.5e6)
        LocMpsScheduler(explain=True, tracer=tr).schedule(g, c)
        src = str(tmp_path / "t.jsonl")
        write_jsonl(tr, src)
        dst = str(tmp_path / "d.html")
        obs_main(["dashboard", src, dst, "--title", "smoke"])
        html = open(dst, encoding="utf-8").read()
        assert "smoke" in html and "Decision provenance" in html

    def test_experiments_explain_flag_records_decisions(self, tmp_path, capsys):
        from repro.experiments.cli import main as experiments_main

        path = str(tmp_path / "fig.jsonl")
        experiments_main(
            ["fig9a", "--procs", "4", "--trace", path, "--explain"]
        )
        events = read_jsonl(path)
        decisions = [e for e in events if e.name == "placement_decision"]
        assert decisions
        # every decision round-trips and carries its run label
        for e in decisions:
            d = PlacementDecision.from_dict(e.fields)
            assert d.run and d.candidates

    def test_trace_written_even_when_a_sweep_raises(self, tmp_path, capsys):
        from repro.experiments.cli import main as experiments_main

        path = str(tmp_path / "partial.jsonl")
        with pytest.raises(ValueError):
            experiments_main(
                ["fig9a", "--procs", "4", "0", "--trace", path]
            )
        assert read_jsonl(path)  # partial trace flushed by the finally

    def test_worker_spools_merged_when_a_cell_raises(self):
        from repro.exceptions import ExperimentError
        from repro.experiments.common import run_comparison

        g = build_random_graph(6, seed=1)
        tracer = Tracer()
        with pytest.raises((ValueError, ExperimentError)):
            run_comparison(
                [g],
                ["task"],
                [2, 0],  # P=0 raises inside a worker
                bandwidth=1e6,
                workers=2,
                chunksize=1,
                tracer=tracer,
            )
        # the successful cell's spool reached the tracer before cleanup
        assert any(e.name == "experiment_cell" for e in tracer.events)

    def test_run_comparison_explain_serial_path(self):
        from repro.experiments.common import run_comparison

        g = build_random_graph(6, seed=1)
        tracer = Tracer()
        run_comparison(
            [g],
            ["locmps", "task"],
            [4],
            bandwidth=12.5e6,
            tracer=tracer,
            explain=True,
        )
        decisions = [
            e for e in tracer.events if e.name == "placement_decision"
        ]
        # locmps explains; the TASK scheduler has no explain support and
        # is silently skipped
        assert len(decisions) == g.num_tasks


if __name__ == "__main__":
    EXPLAIN_GOLDEN_PATH.write_text(
        json.dumps(
            {c: _explain_digest(c) for c in _explain_case_ids()},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
