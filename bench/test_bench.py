"""Checks of the benchmark itself, at ``--smoke`` sizes.

Run from the repository root with ``python -m pytest bench/``. Every
file these tests write goes under ``bench/out/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out" / "test"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.schedulers.locmps import LocMpsScheduler  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_workloads() -> None:
    assert NAMES == list(run.WORKLOAD_ORDER)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(name: str, trace: int) -> None:
    proc = bench("--workload", name, "--smoke", "--trace", str(trace),
                 "--out", str(OUT / "results"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def traced_pass(name: str, count: int):
    cls = workloads.WORKLOADS[name]
    wl = cls(cls.default_seed, "smoke", OUT)
    rec = tracing.SpanRecorder()
    try:
        with tracing.Tracing(rec) as active:
            res = run.run_pass(wl, {}, count=count, tracing=active)
    finally:
        wl.close()
    return rec, res


@pytest.mark.parametrize("name", NAMES)
def test_self_times_within_spans(name: str) -> None:
    original = LocMpsScheduler.__dict__["run"]
    rec, res = traced_pass(name, count=2)
    assert LocMpsScheduler.__dict__["run"] is original  # wrappers removed
    assert res.failed == 0
    cols = rec.columns()
    assert len(cols["dur"]) > 0
    assert (cols["self"] >= -1e-9).all()
    assert (cols["self"] <= cols["dur"] + 1e-12).all()


def test_placements_sum_over_passes() -> None:
    rec, _ = traced_pass("wide", count=2)
    extras = {"calib_ms": 1.0, "trace_overhead": 1.0}
    layers = tracing.layer_metrics(rec, "wide", extras)
    passes = rec.select("locbs.schedule")
    per_pass = [rec.extra[int(i)]["placements"] for i in passes]
    tasks = workloads.Wide.SIZES["smoke"]["tasks"]
    assert layers["locbs.placements"][0] == sum(per_pass) == tasks * len(passes)
    assert layers["locbs.passes"][0] == len(passes) > 2


def test_pinned_digest_mismatch_fails_the_op() -> None:
    wl = workloads.Wide(11, "smoke", OUT)
    res = run.run_pass(wl, {"0": "0" * 40}, count=2)
    assert res.failed == 1 and "pinned" in res.problems[0]


def test_exits_nonzero_without_the_program() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "test_*.py"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "wide", "--seed", "1", "--seconds", str(SPEC["run_seconds"]),
                 "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_other_run_length_is_refused() -> None:
    proc = bench("--workload", "wide", "--seconds", str(SPEC["run_seconds"] + 1))
    assert proc.returncode == 2
    assert not proc.stdout.strip()
    assert "run length" in proc.stderr


def _doc(seed: int, value: float, started: float, **fields: object) -> dict:
    doc = {
        "schema": "bench.result/v1", "workload": "wide", "seed": seed, "trace": 0,
        "scale": "full", "seconds": SPEC["run_seconds"], "started": started,
        "host": {"calib_ms": 10.0}, "correct": True, "failed": 0,
        "metrics": {m["name"]: {"value": value} for m in SPEC["end_to_end"]},
    }
    doc.update(fields)
    return doc


def _pairs(change_value: float, **change_fields: object) -> list:
    return [
        (_doc(s, 100.0 + s % 3, 2 * s), _doc(s, change_value + s % 3, 2 * s + 1, **change_fields))
        for s in range(10)
    ]


@pytest.mark.parametrize(
    "change_value, verdict",
    [(100.0, "ok"), (150.0, "regression"), (70.0, "gain")],
)
def test_compare_verdicts(change_value: float, verdict: str) -> None:
    metric = {"name": "op_p50_norm_ms", "better": "lower", "bound": 0.15}
    assert compare.judge(metric, _pairs(change_value))["verdict"] == verdict


def test_compare_judges_every_metric() -> None:
    result = compare.judge_workload(SPEC["end_to_end"], _pairs(100.0))
    assert result["verdict"] == "judged"
    assert [r["metric"] for r in result["rows"]] == [m["name"] for m in SPEC["end_to_end"]]


def test_compare_refuses_a_gain_that_fails_ops() -> None:
    result = compare.judge_workload(SPEC["end_to_end"], _pairs(70.0, failed=1, correct=False))
    assert result["verdict"] == "failed" and not result["rows"]


@pytest.mark.parametrize("field, value", [("seconds", 5), ("scale", "smoke")])
def test_compare_leaves_other_settings_unjudged(field: str, value: object) -> None:
    result = compare.judge_workload(SPEC["end_to_end"], _pairs(70.0, **{field: value}))
    assert result["verdict"] == "unjudged" and field in result["reason"]


def test_compare_reports_runs_without_metrics(tmp_path: Path) -> None:
    pairs = _pairs(100.0)
    pairs[3][1]["metrics"] = {}
    result = compare.judge_workload(SPEC["end_to_end"], pairs)
    assert result["verdict"] == "unjudged" and "no metrics" in result["reason"]
    for side, index in (("parent", 0), ("change", 1)):
        (tmp_path / side).mkdir()
        for k, pair in enumerate(pairs):
            (tmp_path / side / f"{k}.json").write_text(json.dumps(pair[index]))
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 2
