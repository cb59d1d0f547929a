"""LoC-MPS benchmark: end-to-end metrics per workload, per-layer when traced.

Run from the repository root::

    python bench/run.py                          # all workloads, one subprocess each
    python bench/run.py --workload wide --seed 3
    python bench/run.py --workload online --trace       # per-layer metrics
    python bench/run.py --smoke                  # seconds per workload
    python bench/run.py --write-expected         # re-pin bench/expected.json

A run of one workload sets up its inputs from ``--seed``, repeats the
workload's op for ``run_seconds`` of ``BENCHMARK.json`` (1 s with
``--smoke``), checks every op's output, and prints one JSON object as
its last line::

    {"correct": true, "attempted": 80, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
from a fixed number of ops run once untraced and once with every layer
wrapped (see ``bench/tracing.py``). The full result, with the host stamp
and every metric, is written under ``bench/out/``. The exit code is
non-zero when any op fails.
"""

from __future__ import annotations

import os

# One thread per process, set before numpy loads: the benchmark must not
# use more threads than the machine has cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"
WORKLOAD_ORDER = ("wide", "deep", "apps", "online", "cache")

#: set-up is timed in this many fresh subprocesses; the median is reported
SETUP_PROBES = 3
#: measuring time of a --smoke run (seconds)
SMOKE_SECONDS = 1
#: one calibration reading is taken per this much op time (seconds),
#: between ops, and at most CALIB_MAX_READINGS after one op
CALIB_EVERY_S = 0.1
CALIB_MAX_READINGS = 10
#: an op's host speed is the median of the readings this close to it
#: (up to this many before the op ends and this many after): about a
#: second around short ops, the neighbouring ops' readings around long ones
CALIB_WINDOW = 10
#: ops of the traced pass, fixed so per-layer counts repeat exactly
TRACE_OPS = {
    "full": {"wide": 40, "deep": 70, "apps": 2, "online": 2, "cache": 5000},
    "smoke": {"wide": 2, "deep": 2, "apps": 1, "online": 1, "cache": 100},
}
#: ops pinned per seed by --write-expected (apps: one round, every case)
PIN_OPS = {
    "full": {"wide": 200, "deep": 300, "apps": 1, "online": 8, "cache": 60_000},
    "smoke": {"wide": 20, "deep": 20, "apps": 1, "online": 4, "cache": 2_000},
}

Metrics = Dict[str, Tuple[float, str]]


def percentile(values: List[float], q: int) -> float:
    """The *q*-th percentile, interpolated between the two nearest samples.

    With few samples (an ``apps`` run has 6-10) one slow sample then
    moves the 90th percentile less than it moves a nearest-rank one.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class PassResult:
    """Everything one pass over a workload's ops measured and checked."""

    def __init__(self) -> None:
        self.ops = 0
        self.samples: List[float] = []
        #: index of the op each sample belongs to
        self.sample_ops: List[int] = []
        self.walls: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[str, str] = {}
        self.chart_spans = 0
        self.counters: Dict[str, float] = {}
        #: calibration-loop times (ms) sampled between ops
        self.calib: List[float] = []
        #: per op, how many calibration readings were taken before it ended
        self.marks: List[int] = []

    @property
    def busy_s(self) -> float:
        return sum(self.walls)

    @property
    def calib_ms(self) -> float:
        return statistics.median(self.calib)

    def op_speeds(self) -> List[float]:
        """Per op, ``CALIB_REF_MS`` over the median reading around it.

        Multiplying an op's times by its speed gives them at the
        reference host speed, even when the host slowed down for only
        part of the run.
        """
        from host import CALIB_REF_MS

        return [
            CALIB_REF_MS / statistics.median(self.calib[max(0, m - CALIB_WINDOW): m + CALIB_WINDOW])
            for m in self.marks
        ]


def run_pass(
    wl: Any,
    pinned: Dict[str, str],
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    tracing: Any = None,
) -> PassResult:
    """Run ops 0, 1, ... until *seconds* are spent or *count* ops ran.

    Only ``op.run`` is timed (and, when *tracing*, wrapped in a
    ``bench.op`` span); checks and calibration samples run untimed, with
    the wrappers lifted.
    """
    from host import calibrate_ms
    from workloads import Checked

    rec = tracing.rec if tracing is not None else None
    op_name = rec.name_id("bench.op") if rec is not None else 0
    res = PassResult()
    deadline = time.perf_counter() + seconds if seconds is not None else math.inf
    last_calib = -math.inf
    i = 0
    while (count is None or i < count) and (i == 0 or time.perf_counter() < deadline):
        op = wl.op(i)
        if rec is not None:
            rec.op_id = i
            span = rec.open(op_name)
        t0 = time.perf_counter()
        try:
            output, error = op.run(), None
        except Exception:  # an op that raises is a failed op, not a crash
            output, error = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        if rec is not None:
            rec.close(span)
        with tracing.suspended() if tracing is not None else nullcontext():
            if error is None:
                checked = op.check(output, wall, pinned)
            else:
                checked = Checked(
                    samples=[], attempted=op.attempted, failed=op.attempted,
                    problems=[f"op {i} raised: {error.strip().splitlines()[-1]}"],
                )
        res.ops += 1
        res.walls.append(wall)
        res.marks.append(len(res.calib))
        res.samples += checked.samples
        res.sample_ops += [i] * len(checked.samples)
        res.attempted += checked.attempted
        res.failed += checked.failed
        res.problems += checked.problems[: max(0, 20 - len(res.problems))]
        res.digests.update(checked.digests)
        res.chart_spans = max(res.chart_spans, checked.chart_spans)
        for key, val in checked.counters.items():
            res.counters[key] = res.counters.get(key, 0) + val
        if time.perf_counter() - last_calib >= CALIB_EVERY_S:
            readings = min(CALIB_MAX_READINGS, max(1, int(wall / CALIB_EVERY_S)))
            res.calib += [calibrate_ms(repeats=1) for _ in range(readings)]
            last_calib = time.perf_counter()
        i += 1
    return res


def setup_seconds(args: argparse.Namespace, seed: int) -> List[Tuple[float, float]]:
    """``(set-up s, calibration ms)`` of fresh subprocesses.

    Set-up runs from interpreter start until the inputs are built; the
    child then times the calibration loop, for host-speed scaling.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(seed), "--setup-probe", repr(t0),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        elapsed, calib = proc.stdout.split()[-2:]
        times.append((float(elapsed), float(calib)))
    return times


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_expected() -> Dict[str, Dict[str, str]]:
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def select(spec_metrics: List[Dict[str, str]], values: Metrics) -> Dict[str, Any]:
    """The BENCHMARK.json metrics, in its order, with units cross-checked."""
    out = {}
    for m in spec_metrics:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit!r} != BENCHMARK.json {m['unit']!r}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def end_to_end(res: PassResult, probes: List[Tuple[float, float]]) -> Metrics:
    """End-to-end metrics of an untraced pass, raw and host-speed scaled.

    Each op's times are scaled by its own speed (:meth:`PassResult.op_speeds`)
    for the ``*_norm`` metrics; each set-up probe by ``CALIB_REF_MS`` over
    its own calibration time (see ``bench/host.py``).
    """
    from host import CALIB_REF_MS

    if not res.samples:
        return {}
    speeds = res.op_speeds()
    norm = [s * speeds[op] for s, op in zip(res.samples, res.sample_ops)]
    norm_busy = sum(w * speeds[op] for op, w in enumerate(res.walls))
    return {
        "op_p50_norm_ms": (percentile(norm, 50) * 1e3, "ms"),
        "op_p90_norm_ms": (percentile(norm, 90) * 1e3, "ms"),
        "ops_per_s_norm": (len(norm) / norm_busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(t * CALIB_REF_MS / c for t, c in probes), "s"),
        "op_p50_ms": (percentile(res.samples, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(res.samples, 90) * 1e3, "ms"),
        "ops_per_s": (len(res.samples) / res.busy_s, "1/s"),
        "setup_raw_s": (statistics.median(t for t, _ in probes), "s"),
    }


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; prints the result line."""
    import host
    import tracing
    import workloads

    scale = "smoke" if args.smoke else "full"
    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    spec = load_spec()
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds:g} is not the run length {seconds} s "
              f"({'--smoke' if args.smoke else 'run_seconds of BENCHMARK.json'})",
              file=sys.stderr)
        return 2
    started = time.time()

    probes = [] if args.trace else setup_seconds(args, seed)
    t0 = time.perf_counter()
    wl = cls(seed, scale, OUT)
    setup_inproc = time.perf_counter() - t0
    pinned = load_expected().get(wl.expected_key(), {})
    calib_before = host.calibrate_ms()
    cpu0 = host.cpu_times()
    try:
        if args.trace:
            count = TRACE_OPS[scale][args.workload]
            base = run_pass(wl, pinned, count=count)
            wl.new_pass()
            rec = tracing.SpanRecorder()
            with tracing.Tracing(rec) as active:
                res = run_pass(wl, pinned, count=count, tracing=active)
            counters = wl.layer_counters()
            passes = [base, res]
        else:
            res = run_pass(wl, pinned, seconds=seconds)
            passes = [res]
    finally:
        wl.close()
    stamp = host.stamp(cpu0, calib_before, res.calib_ms)

    doc: Dict[str, Any] = {
        "schema": "bench.result/v1",
        "workload": args.workload,
        "seed": seed,
        "scale": scale,
        "trace": args.trace,
        "seconds": seconds,
        "started": started,
        "setup": {"probes": probes, "inproc_s": setup_inproc},
        "host": stamp,
        "ops": res.ops,
        "samples": len(res.samples),
        "chart_spans": res.chart_spans,
    }
    if args.trace:
        chrome = OUT / f"{args.workload}-s{seed}.trace.json"
        doc["chrome_trace"] = str(chrome.relative_to(ROOT))
        doc["chrome_events"] = rec.write_chrome(chrome)
        doc["spans"] = len(rec.start)
        values = tracing.layer_metrics(rec, args.workload, {
            **res.counters, **counters,
            "spans_final": res.chart_spans,
            "calib_ms": stamp["calib_ms"],
            "steal_ratio": stamp["steal_ratio"],
            "trace_overhead": res.busy_s / base.busy_s,
        })
        spec_metrics = spec["per_layer"]
    else:
        values = end_to_end(res, probes)
        spec_metrics = spec["end_to_end"]

    problems = [msg for p in passes for msg in p.problems][:20]
    if not values:
        problems.append("no op succeeded")
    doc.update(
        correct=bool(values) and not any(p.failed for p in passes),
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        problems=problems,
        all_metrics={k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        metrics=select(spec_metrics, values) if values else {},
        digests=res.digests,
        finished=time.time(),
    )
    write_result(doc, args.out)
    report(doc)
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if doc["correct"] else 1


def write_result(doc: Dict[str, Any], out_dir: Optional[str]) -> None:
    directory = Path(out_dir) if out_dir else OUT / "results"
    directory.mkdir(parents=True, exist_ok=True)
    name = f"{doc['workload']}-s{doc['seed']}-t{doc['trace']}-{int(doc['started'] * 1000)}.json"
    (directory / name).write_text(json.dumps(doc, indent=1) + "\n")


def report(doc: Dict[str, Any]) -> None:
    """Human-readable summary: every metric with its unit, then problems."""
    stamp = doc["host"]
    steal = stamp["steal_ratio"]
    print(
        f"# {doc['workload']} seed={doc['seed']} scale={doc['scale']} trace={doc['trace']} "
        f"ops={doc['ops']} samples={doc['samples']} attempted={doc['attempted']} "
        f"failed={doc['failed']} nproc={stamp['nproc']} affinity={stamp['affinity']} "
        f"steal={'n/a' if steal is None else f'{steal:.3f}'} "
        f"calib={stamp['calib_before_ms']:.2f}/{stamp['calib_ms']:.2f}/"
        f"{stamp['calib_after_ms']:.2f}ms (ref {stamp['calib_ref_ms']})"
    )
    for name, m in doc["all_metrics"].items():
        mark = "" if name in doc["metrics"] else "  (report only)"
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}{mark}")
    for msg in doc["problems"]:
        print(f"  FAIL {msg}")


def setup_probe(args: argparse.Namespace) -> int:
    """Child of :func:`setup_seconds`: build the inputs, print elapsed."""
    import host
    import workloads

    scale = "smoke" if args.smoke else "full"
    wl = workloads.WORKLOADS[args.workload](args.seed, scale, OUT)
    elapsed = time.time() - float(args.setup_probe)
    print(elapsed, host.calibrate_ms())
    wl.close()
    return 0


def write_expected(args: argparse.Namespace) -> int:
    """Pin the digests of the default seeds' first ops (both scales)."""
    import workloads

    expected = load_expected()
    names = [args.workload] if args.workload else list(WORKLOAD_ORDER)
    for scale in ("full", "smoke"):
        for name in names:
            cls = workloads.WORKLOADS[name]
            wl = cls(cls.default_seed, scale, OUT)
            try:
                res = run_pass(wl, {}, count=PIN_OPS[scale][name])
            finally:
                wl.close()
            if res.failed:
                print("\n".join(res.problems), file=sys.stderr)
                return 1
            expected[wl.expected_key()] = res.digests
            print(f"pinned {len(res.digests)} digests for {wl.expected_key()}")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh subprocess; traced runs after untraced."""
    results: Dict[str, Any] = {}
    status = 0
    for name in WORKLOAD_ORDER:
        for trace_flag in ([0, 1] if args.trace else [0]):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--trace", str(trace_flag)]
            for flag, val in (("--seed", args.seed), ("--out", args.out)):
                if val is not None:
                    cmd += [flag, str(val)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            results[f"{name}/trace{trace_flag}"] = result
            if proc.returncode != 0 or result is None:
                status = 1
    summary = {
        "correct": status == 0,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "workloads": results,
    }
    print(json.dumps(summary))
    return status


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_ORDER, help="default: every workload")
    p.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float,
                   help="accepted only as the fixed run length: run_seconds of "
                        "BENCHMARK.json (1 with --smoke)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: report per-layer metrics from a traced pass")
    p.add_argument("--smoke", action="store_true", help="tiny inputs, seconds per workload")
    p.add_argument("--out", help="directory for result files (default bench/out/results)")
    p.add_argument("--write-expected", action="store_true",
                   help="re-pin the digests in bench/expected.json")
    p.add_argument("--setup-probe", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} does not hold the repro package; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.setup_probe is not None:
        return setup_probe(args)
    if args.write_expected:
        return write_expected(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
