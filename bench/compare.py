"""Compare benchmark results of a parent commit and a change.

Usage, from the repository root::

    python bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``bench/run.py --out DIR`` wrote.
Runs of a workload are paired by seed (in run order when a seed repeats).
Before any metric is judged, a workload is

* ``unjudged`` when a pair ran at another scale or for another time
  (``--smoke`` against a full run), or when a run reports no metrics
  (it crashed, or no op succeeded);
* ``failed`` when the change's runs fail more ops than the parent's:
  a change that breaks outputs gains nothing.

Otherwise each end-to-end metric of ``BENCHMARK.json`` is judged by the
rule of the choosing-metrics guide:

* ``gain``: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither side), and the medians differ by more than the
  parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: either side's spread (IQR over median) exceeds the
  bound, unless every change run reads better than every parent run;
* ``ok``: none of these.

One row is printed per workload. Pairs whose host calibration readings
(``host.calib_ms``) differ by more than 10% are flagged: host drift, not
code, may explain them. The exit code has bit 1 set when a metric
regressed or a workload failed, and bit 2 when a workload was unjudged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
CALIB_TOLERANCE = 0.10
MIN_PAIRS = 10
WIN_SHARE = 0.9

Run = Dict[str, Any]
Pairs = List[Tuple[Run, Run]]


def load_runs(directory: Path) -> List[Run]:
    runs = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    return sorted(
        (r for r in runs if r.get("schema") == "bench.result/v1"),
        key=lambda r: r["started"],
    )


def pair_runs(parent: List[Run], change: List[Run]) -> Pairs:
    """Pair runs by seed; the k-th parent run of a seed with the k-th change run."""
    by_seed: Dict[int, List[Run]] = {}
    for run in change:
        by_seed.setdefault(run["seed"], []).append(run)
    pairs = []
    for run in parent:
        partners = by_seed.get(run["seed"])
        if partners:
            pairs.append((run, partners.pop(0)))
    return pairs


def spread(values: List[float]) -> float:
    """IQR over median; 0 with fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def precheck(pairs: Pairs, names: List[str]) -> Optional[Tuple[str, str]]:
    """``(verdict, reason)`` when the workload's metrics must not be judged."""
    for a, b in pairs:
        for key in ("scale", "seconds"):
            if a.get(key) != b.get(key):
                return "unjudged", f"seed {a['seed']} ran with {key} {a.get(key)} vs {b.get(key)}"
    missing = [
        side for a, b in pairs for side, run in (("parent", a), ("change", b))
        if any(n not in run.get("metrics", {}) for n in names)
    ]
    failed_p = sum(a.get("failed", 0) for a, _ in pairs)
    failed_c = sum(b.get("failed", 0) for _, b in pairs)
    if failed_c > failed_p:
        return "failed", f"the change fails {failed_c} ops, the parent {failed_p}"
    if missing:
        return "unjudged", (
            f"{missing.count('parent')} parent and {missing.count('change')} change "
            "runs report no metrics"
        )
    return None


def judge(metric: Dict[str, Any], pairs: Pairs) -> Dict[str, Any]:
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p = [a["metrics"][name]["value"] for a, _ in pairs]
    c = [b["metrics"][name]["value"] for _, b in pairs]
    p_med, c_med = statistics.median(p), statistics.median(c)
    p_iqr = spread(p) * p_med
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    worse = sign * (p_med - c_med) / p_med if p_med else 0.0
    all_better = min(sign * x for x in c) > max(sign * x for x in p)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and sign * (c_med - p_med) > p_iqr:
        verdict = "gain"
    elif worse > bound:
        verdict = "regression"
    elif max(spread(p), spread(c)) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "metric": name,
        "verdict": verdict,
        "parent_median": p_med,
        "change_median": c_med,
        "delta": (c_med - p_med) / p_med if p_med else 0.0,
        "parent_spread": spread(p),
        "change_spread": spread(c),
        "bound": bound,
        "wins": wins,
    }


def judge_workload(metrics: List[Dict[str, Any]], pairs: Pairs) -> Dict[str, Any]:
    """The workload's verdict (``judged``, ``failed`` or ``unjudged``) and rows."""
    stop = precheck(pairs, [m["name"] for m in metrics])
    if stop is not None:
        return {"verdict": stop[0], "reason": stop[1], "rows": []}
    return {"verdict": "judged", "reason": "", "rows": [judge(m, pairs) for m in metrics]}


def alternating(pairs: Pairs) -> bool:
    """True when consecutive pairs (in time) swap which side ran first."""
    firsts = [a["started"] < b["started"] for a, b in sorted(pairs, key=lambda ab: min(ab[0]["started"], ab[1]["started"]))]
    return all(x != y for x, y in zip(firsts, firsts[1:]))


def calib_flags(pairs: Pairs) -> List[int]:
    flagged = []
    for a, b in pairs:
        ca, cb = a["host"]["calib_ms"], b["host"]["calib_ms"]
        if abs(ca - cb) > CALIB_TOLERANCE * min(ca, cb):
            flagged.append(a["seed"])
    return flagged


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    status = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        pairs = pair_runs(
            [r for r in parent if r["workload"] == wl and r["trace"] == 0],
            [r for r in change if r["workload"] == wl and r["trace"] == 0],
        )
        if not pairs:
            print(f"{wl:7s} no paired runs")
            continue
        head = (
            f"{wl:7s} pairs={len(pairs):2d} alternating={'yes' if alternating(pairs) else 'no '} "
            f"calib-flagged={','.join(map(str, calib_flags(pairs))) or '-'}  "
        )
        result = judge_workload(spec["end_to_end"], pairs)
        if result["verdict"] != "judged":
            status |= 1 if result["verdict"] == "failed" else 2
            print(head + f"{result['verdict'].upper()}: {result['reason']}")
            continue
        cells = []
        for r in result["rows"]:
            status |= r["verdict"] == "regression"
            cells.append(
                f"{r['metric']}={r['verdict']}({r['delta']:+.1%}, "
                f"spread {r['parent_spread']:.3f}/{r['change_spread']:.3f} "
                f"bound {r['bound']}, wins {r['wins']})"
            )
        print(head + "  ".join(cells))
    return status


if __name__ == "__main__":
    sys.exit(main())
