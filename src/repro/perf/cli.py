"""CLI for the perf harness.

``python -m repro.perf hotpath [--quick] [--no-reference] [--profile] [--out PATH]``
    Run the hot-path micro-benchmarks and write ``BENCH_hotpath.json``.
    ``--profile`` embeds the cProfile top-20 cumulative entries in the
    report (and marks it ``profiled``, since wall times are then inflated).

``python -m repro.perf golden [--check | --write] [--path PATH]``
    Verify (default) or regenerate the golden schedule fingerprints.

``python -m repro.perf cache [--quick] [--out PATH]``
    Benchmark the content-addressed schedule cache (cold vs hit vs
    graph-delta warm start, Zipf-replay hit ratio) and write
    ``BENCH_cache.json``. Exits non-zero if a hit is not bit-identical
    to the cold run or the golden fingerprints drift.

``python -m repro.perf online [--quick] [--out PATH]``
    Replay Poisson/Zipf and SWF job streams through the online daemon
    with the incremental/cold differential on, and write
    ``BENCH_online.json`` (throughput, per-event latency percentiles,
    incremental-vs-cold speedup). Exits non-zero if the two arms ever
    diverge bit-wise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.perf.golden import GOLDEN_PATH, check_golden, write_golden
from repro.perf.hotpath import run_hotpath


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Scheduler hot-path benchmarks and golden checks.",
    )
    sub = parser.add_subparsers(dest="command")

    hot = sub.add_parser("hotpath", help="run micro-benchmarks, emit JSON")
    hot.add_argument(
        "--quick",
        action="store_true",
        help="reduced-scale suites (CI smoke; same shape, smaller graphs)",
    )
    hot.add_argument(
        "--no-reference",
        action="store_true",
        help="skip the naive baseline arm (faster; no speedup column)",
    )
    hot.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_hotpath.json"),
        help="output path (default: ./BENCH_hotpath.json)",
    )
    hot.add_argument(
        "--metrics",
        type=Path,
        default=None,
        help=(
            "also write an OpenMetrics exposition (per-placement time "
            "histogram) to this path"
        ),
    )
    hot.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run under cProfile and embed the top-20 cumulative entries "
            "in the report (wall times are then not comparable)"
        ),
    )

    gold = sub.add_parser("golden", help="check or refresh golden fingerprints")
    mode = gold.add_mutually_exclusive_group()
    mode.add_argument(
        "--check",
        action="store_true",
        help="recompute and diff against the stored golden file (default)",
    )
    mode.add_argument(
        "--write",
        action="store_true",
        help="regenerate the golden file (only for intentional changes)",
    )
    gold.add_argument(
        "--path", type=Path, default=GOLDEN_PATH, help="golden file location"
    )

    cache = sub.add_parser(
        "cache", help="schedule-cache hit/warm-start benchmarks, emit JSON"
    )
    cache.add_argument(
        "--quick",
        action="store_true",
        help="reduced-scale suites (CI smoke; same shape, smaller graphs)",
    )
    cache.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_cache.json"),
        help="output path (default: ./BENCH_cache.json)",
    )

    online = sub.add_parser(
        "online", help="online daemon incremental-vs-cold benchmarks, emit JSON"
    )
    online.add_argument(
        "--quick",
        action="store_true",
        help="reduced-scale replays (CI smoke; same shape, fewer jobs)",
    )
    online.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_online.json"),
        help="output path (default: ./BENCH_online.json)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "golden":
        if args.write:
            path = write_golden(args.path)
            print(f"golden fingerprints written to {path}")
            return 0
        problems = check_golden(args.path)
        if problems:
            for p in problems:
                print(f"GOLDEN DRIFT: {p}", file=sys.stderr)
            return 1
        print(f"golden check OK ({args.path})")
        return 0

    if args.command == "cache":
        from repro.perf.cachebench import run_cachebench

        doc = run_cachebench(
            scale="quick" if args.quick else "full",
            progress=lambda msg: print(msg, flush=True),
        )
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
        hit, warm, replay = doc["hit"], doc["warm"], doc["replay"]
        print(
            f"hit: cold {hit['cold_s']:.3f}s, hit {hit['hit_s'] * 1e3:.3f}ms "
            f"(disk {hit['hit_disk_s'] * 1e3:.3f}ms), "
            f"speedup {hit['hit_speedup']:.0f}x, "
            f"bit_identical={hit['bit_identical']}"
        )
        print(
            f"warm: cold {warm['cold_s']:.3f}s, warm {warm['warm_s']:.3f}s "
            f"({warm['outcome']}, delta={warm['delta']}), "
            f"beats_cold={warm['warm_beats_cold']}"
        )
        print(
            f"replay: {replay['requests']} requests over "
            f"{replay['num_graphs']} graphs, hit_ratio "
            f"{replay['hit_ratio']:.3f} "
            f"(best possible {replay['best_possible_hit_ratio']:.3f})"
        )
        print(f"wrote {args.out}")
        ok = doc["golden_identical"] and hit["bit_identical"]
        if not ok:
            for p in doc["golden_problems"]:
                print(f"GOLDEN DRIFT: {p}", file=sys.stderr)
            if not hit["bit_identical"]:
                print(
                    "CACHE DRIFT: hit schedule differs from cold run",
                    file=sys.stderr,
                )
            return 1
        return 0

    if args.command == "online":
        from repro.perf.onlinebench import run_onlinebench

        doc = run_onlinebench(
            scale="quick" if args.quick else "full",
            progress=lambda msg: print(msg, flush=True),
        )
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
        for suite in doc["suites"]:
            speedup = suite["median_speedup"]
            speedup_s = f"{speedup:.2f}x" if speedup else "n/a"
            print(
                f"{suite['name']}: {suite['placed']}/{suite['jobs']} placed, "
                f"{suite['submissions_per_sim_hour']:.0f} submissions/"
                f"sim-hour, event p95 "
                f"{suite['event_latency']['p95'] * 1e3:.3f} ms, "
                f"incremental p50 "
                f"{suite['incremental']['p50'] * 1e3:.3f} ms vs cold "
                f"{suite['cold']['p50'] * 1e3:.3f} ms "
                f"(speedup {speedup_s}), identical={suite['identical']}, "
                f"probes {suite['probes']}"
            )
        if doc["latency_caveat"]:
            print(f"caveat: {doc['latency_caveat']}")
        print(f"wrote {args.out}")
        if not doc["identical"]:
            for suite in doc["suites"]:
                for m in suite["mismatches"]:
                    print(f"ONLINE DRIFT: {suite['name']}: {m}", file=sys.stderr)
            return 1
        return 0

    # default command: hotpath
    metrics_path: Optional[Path] = getattr(args, "metrics", None)
    registry = None
    if metrics_path is not None:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
    doc = run_hotpath(
        scale="quick" if getattr(args, "quick", False) else "full",
        include_reference=not getattr(args, "no_reference", False),
        progress=lambda msg: print(msg, flush=True),
        metrics=registry,
        profile=getattr(args, "profile", False),
    )
    out: Path = getattr(args, "out", Path("BENCH_hotpath.json"))
    out.write_text(json.dumps(doc, indent=2) + "\n")
    if registry is not None:
        metrics_path.write_text(registry.render())
        print(f"wrote {metrics_path}")
    for suite in doc["suites"]:
        opt = suite["optimized"]
        line = (
            f"{suite['name']}: optimized {opt['wall_s']:.3f}s "
            f"({opt['placements_per_s']:.0f} placements/s)"
        )
        prune = suite.get("prune")
        if prune:
            line += f", prune_rate {prune['prune_rate']:.3f}"
        if "speedup" in suite:
            line += (
                f", reference {suite['reference']['wall_s']:.3f}s, "
                f"speedup {suite['speedup']:.2f}x, makespans_equal="
                f"{suite['makespans_equal']}"
            )
        print(line)
    if doc.get("profiled"):
        print("top cumulative profile entries:")
        for entry in doc["profile"][:5]:
            print(
                f"  {entry['cumtime_s']:9.3f}s  {entry['function']}"
            )
    print(f"wrote {out}")
    return 0
