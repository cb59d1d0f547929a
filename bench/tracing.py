"""Span recording for the traced benchmark pass.

The benchmark measures each layer from outside: :class:`Tracing` wraps
the layers' public functions, for the duration of a ``with`` block, with
wrappers that record one span per call (name, start, end, parent span,
op id). Nothing under ``src/`` knows it is being traced.

Spans stay in memory (parallel ``array`` columns, ~44 bytes a span) and
are written at exit as Chrome-trace JSON. A span's *self time* is its
duration minus the time covered by its direct children; wrapped calls
nest strictly (one thread), so self time is never negative.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.cache.service as service_mod
import repro.online.placer as placer_mod
import repro.schedulers.locmps as locmps_mod
from repro.cache.store import ScheduleCache
from repro.graph.pseudo import ScheduleDAG
from repro.online.placer import IncrementalPlacer
from repro.redistribution import RedistributionModel
from repro.schedule.timeline import ProcessorTimeline

__all__ = ["SpanRecorder", "Tracing", "FINE_LAYERS"]

#: layers called per probe or per transfer pricing: far more spans than
#: the rest, so the Chrome trace keeps only the first FINE_LIMIT of them
FINE_LAYERS = ("timeline.", "redistribution.")
FINE_LIMIT = 50_000

_TIMELINE_METHODS = (
    "reserve", "release_times_after", "idle_sweep", "idle_with_horizon",
    "is_free",
)
_PROBE_KEYS = ("probes_considered", "probes_bound_pruned", "probes_dominance_pruned")
_LOOKUP_KEYS = ("transfer_hits", "transfer_misses", "edge_hits", "edge_misses")


class SpanRecorder:
    """In-memory span store; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        #: per-span payload recorded by a wrapper's ``after`` hook
        self.extra: Dict[int, Dict[str, Any]] = {}
        self.op_id = -1
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_ix.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += t - self.start[idx]

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> Callable[..., Any]:
        """*fn* recording a span per call.

        ``before(*args, **kwargs)`` runs just outside the span and returns
        a state; ``after(state, result, *args, **kwargs)`` returns the
        span's payload. Hooks read public stats dicts only.
        """
        nid = self.name_id(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = before(*args, **kwargs) if before is not None else None
            idx = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                rec.extra[idx] = after(state, result, *args, **kwargs)
            return result

        return wrapper

    # -- analysis ---------------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """The span table as numpy arrays (durations and self times in s).

        Copies, so the ``array`` columns stay resizable afterwards.
        """
        start = np.array(self.start, dtype=np.float64)
        dur = np.array(self.end, dtype=np.float64) - start
        return {
            "name": np.array(self.name_ix, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int64),
            "start": start,
            "dur": dur,
            "self": dur - np.array(self.child, dtype=np.float64),
        }

    def select(self, *names: str) -> np.ndarray:
        """Indices of the spans carrying any of *names*, in open order."""
        ids = [self._ids[n] for n in names if n in self._ids]
        return np.nonzero(np.isin(np.array(self.name_ix, dtype=np.int32), ids))[0]

    def write_chrome(self, path: Path) -> int:
        """Write complete ("X") events as Chrome-trace JSON; returns count.

        Every span of the coarse layers is written; spans of
        :data:`FINE_LAYERS` only up to :data:`FINE_LIMIT` (in open order).
        """
        cols = self.columns()
        t0 = cols["start"][0] if len(cols["start"]) else 0.0
        fine = {i for i, n in enumerate(self.names) if n.startswith(FINE_LAYERS)}
        written = fine_seen = 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            for i in range(len(cols["start"])):
                nid = int(cols["name"][i])
                if nid in fine:
                    fine_seen += 1
                    if fine_seen > FINE_LIMIT:
                        continue
                event = {
                    "name": self.names[nid],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (cols["start"][i] - t0) * 1e6,
                    "dur": cols["dur"][i] * 1e6,
                    "args": {
                        "op": int(cols["op"][i]),
                        "parent": int(self.parent[i]),
                        "span": i,
                    },
                }
                fh.write(("," if written else "") + json.dumps(event) + "\n")
                written += 1
            fh.write("]}\n")
        return written


# -- layer hooks -------------------------------------------------------------------


def _counters(stats: Dict[str, int], keys: Tuple[str, ...]) -> Tuple[int, ...]:
    return tuple(stats[k] for k in keys)


def _run_before(sched: Any, graph: Any, cluster: Any) -> Tuple[Tuple[int, ...], ...]:
    memo = sched.memo_stats
    return (memo["hits"], memo["misses"]), _counters(sched.cost_cache_stats, _LOOKUP_KEYS)


def _run_after(state: Any, result: Any, sched: Any, graph: Any, cluster: Any) -> Dict[str, Any]:
    (hits0, misses0), lookups0 = state
    lookups = _counters(sched.cost_cache_stats, _LOOKUP_KEYS)
    return {
        "memo_hits": sched.memo_stats["hits"] - hits0,
        "memo_misses": sched.memo_stats["misses"] - misses0,
        "memo_peak": sched.memo_stats["peak_size"],
        **{k: b - a for k, a, b in zip(_LOOKUP_KEYS, lookups0, lookups)},
    }


def _pass_before(*args: Any, cost_cache: Any, **kwargs: Any) -> Any:
    # both callers pass their cost cache by keyword
    stats = cost_cache.stats
    return stats, _counters(stats, _PROBE_KEYS), _counters(stats, _LOOKUP_KEYS)


def _pass_after(state: Any, result: Any, *args: Any, **kwargs: Any) -> Dict[str, Any]:
    stats, probes0, lookups0 = state
    probes = _counters(stats, _PROBE_KEYS)
    out: Dict[str, Any] = {k: b - a for k, a, b in zip(_PROBE_KEYS, probes0, probes)}
    if isinstance(result, list):  # splice_schedule: the placed tasks
        out["placements"] = len(result)
        # splices price through the daemon's long-lived cache, which no
        # LocMpsScheduler.run span accounts for
        lookups = _counters(stats, _LOOKUP_KEYS)
        out.update({k: b - a for k, a, b in zip(_LOOKUP_KEYS, lookups0, lookups)})
    else:  # locbs_schedule: a SchedulingResult
        out["placements"] = len(result.schedule)
    return out


class Tracing:
    """Installs every layer wrapper for a ``with`` block, then restores.

    :meth:`suspended` lifts the wrappers for a nested block, so the
    benchmark's own correctness checks (which call the same library
    code) add no spans.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracing":
        rec = self.rec
        for owner, attr, name, before, after in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(name, original, before, after))
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    @contextmanager
    def suspended(self) -> Iterator[None]:
        self.__exit__()
        try:
            yield
        finally:
            self.__enter__()


def _targets() -> List[Tuple[Any, str, str, Any, Any]]:
    """``(owner, attribute, span name, before hook, after hook)`` per layer."""
    targets: List[Tuple[Any, str, str, Any, Any]] = [
        (locmps_mod, "locbs_schedule", "locbs.schedule", _pass_before, _pass_after),
        (placer_mod, "splice_schedule", "locbs.splice", _pass_before, _pass_after),
        (locmps_mod.LocMpsScheduler, "run", "locmps.run", _run_before, _run_after),
        (RedistributionModel, "transfer_time", "redistribution.transfer_time", None, None),
        (ScheduleDAG, "critical_path", "sdag.critical_path", None, None),
        (ScheduleDAG, "path_costs", "sdag.path_costs", None, None),
        (IncrementalPlacer, "place", "online.place", None, None),
        (ScheduleCache, "lookup", "cache.lookup", None, None),
        (ScheduleCache, "store", "cache.store", None, None),
        (ScheduleCache, "nearest", "cache.nearest", None, None),
        (service_mod, "request_fingerprint", "cache.fingerprint", None, None),
    ]
    targets += [
        (ProcessorTimeline, m, f"timeline.{m}", None, None) for m in _TIMELINE_METHODS
    ]
    return targets


# -- per-layer metrics ---------------------------------------------------------------


def _pct(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile (a measured value); 0 for no values."""
    if not len(values):
        return 0.0
    ordered = np.sort(values)
    rank = int(np.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(len(ordered) - 1, max(rank - 1, 0))])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec: SpanRecorder, workload: str, extras: Dict[str, float]
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``{name: (value, unit)}``.

    Counts and times come from the spans and their payloads; *extras*
    carries what the benchmark read off public objects after the pass
    (chart size, daemon report, cache stats, host stamp, overhead).
    """
    cols = rec.columns()
    dur, self_t = cols["dur"], cols["self"]

    spans = rec.select

    def payload(idx: np.ndarray, key: str) -> float:
        return float(sum(rec.extra.get(int(i), {}).get(key, 0) for i in idx))

    runs = spans("locmps.run")
    passes = spans("locbs.schedule", "locbs.splice")
    timeline = spans(*[n for n in rec.names if n.startswith("timeline.")])
    redist = spans("redistribution.transfer_time")
    sdag = spans("sdag.critical_path", "sdag.path_costs")
    places = spans("online.place")
    lookups = spans("cache.lookup")
    stores = spans("cache.store")
    nearest = spans("cache.nearest")

    memo_hits = payload(runs, "memo_hits")
    steps = memo_hits + payload(runs, "memo_misses")
    placements = payload(passes, "placements")
    considered = payload(passes, "probes_considered")
    pruned = payload(passes, "probes_bound_pruned") + payload(passes, "probes_dominance_pruned")
    all_lookups = np.concatenate([runs, passes])
    t_hits = payload(all_lookups, "transfer_hits")
    t_total = t_hits + payload(all_lookups, "transfer_misses")
    e_hits = payload(all_lookups, "edge_hits")
    e_total = e_hits + payload(all_lookups, "edge_misses")
    locbs_time = float(dur[passes].sum())
    online = workload == "online"

    # No transfer_limit is set, so a transfer memo never clears: its size
    # is its miss count. One memo per LocMpsScheduler.run, plus one per
    # daemon (op) shared by that daemon's splices.
    entries = [rec.extra.get(int(i), {}).get("transfer_misses", 0) for i in runs]
    splices = spans("locbs.splice")
    drifts = []
    for op in np.unique(cols["op"][np.concatenate([splices, places])]):
        entries.append(payload(splices[cols["op"][splices] == op], "transfer_misses"))
        lat = dur[places[cols["op"][places] == op]]
        q = len(lat) // 4
        if q:
            drifts.append(_ratio(float(np.median(lat[-q:])), float(np.median(lat[:q]))))

    out: Dict[str, Tuple[float, str]] = {
        "locmps.runs": (float(len(runs)), "count"),
        "locmps.steps": (steps, "count"),
        "locmps.memo_hit_ratio": (_ratio(memo_hits, steps), "ratio"),
        "locmps.memo_peak": (
            float(max((rec.extra.get(int(i), {}).get("memo_peak", 0) for i in runs), default=0)),
            "count",
        ),
        "locmps.self_s": (float(self_t[runs].sum()), "s"),
        "locbs.passes": (float(len(passes)), "count"),
        "locbs.time_s": (locbs_time, "s"),
        "locbs.pass_p50_ms": (_pct(dur[passes], 50) * 1e3, "ms"),
        "locbs.pass_p99_ms": (_pct(dur[passes], 99) * 1e3, "ms"),
        "locbs.placements": (placements, "count"),
        "locbs.placements_per_s": (_ratio(placements, locbs_time), "1/s"),
        "locbs.probes": (considered, "count"),
        "locbs.probes_per_placement": (_ratio(considered, placements), "ratio"),
        "locbs.prune_ratio": (_ratio(pruned, considered + pruned), "ratio"),
        "locbs.self_s": (float(self_t[passes].sum()), "s"),
        "timeline.calls": (float(len(timeline)), "count"),
        "timeline.time_s": (float(dur[timeline].sum()), "s"),
        "timeline.reserve_calls": (float(len(spans("timeline.reserve"))), "count"),
        "timeline.spans_final": (extras.get("spans_final", 0.0), "count"),
        "costcache.transfer_lookups": (t_total, "count"),
        "costcache.transfer_hit_ratio": (_ratio(t_hits, t_total), "ratio"),
        "costcache.edge_hit_ratio": (_ratio(e_hits, e_total), "ratio"),
        "costcache.transfer_entries": (float(max(entries, default=0)), "count"),
        "redistribution.calls": (float(len(redist)), "count"),
        "redistribution.time_s": (float(dur[redist].sum()), "s"),
        "sdag.calls": (float(len(sdag)), "count"),
        "sdag.time_s": (float(dur[sdag].sum()), "s"),
        "online.place_calls": (float(len(places)), "count"),
        "online.place_p50_ms": (_pct(dur[places], 50) * 1e3, "ms"),
        "online.place_p95_ms": (_pct(dur[places], 95) * 1e3, "ms"),
        "online.place_drift": (float(np.median(drifts)) if drifts else 0.0, "ratio"),
        "online.alloc_calls": (float(len(runs)) if online else 0.0, "count"),
        "online.alloc_s": (float(dur[runs].sum()) if online else 0.0, "s"),
        "online.deferred": (extras.get("deferred", 0.0), "count"),
        "online.rejected": (extras.get("rejected", 0.0), "count"),
        "cache.lookup_calls": (float(len(lookups)), "count"),
        "cache.lookup_p50_ms": (_pct(dur[lookups], 50) * 1e3, "ms"),
        "cache.memory_hits": (extras.get("memory_hits", 0.0), "count"),
        "cache.disk_hits": (extras.get("disk_hits", 0.0), "count"),
        "cache.hit_ratio": (_ratio(extras.get("hits", 0.0), len(lookups)), "ratio"),
        "cache.store_calls": (float(len(stores)), "count"),
        "cache.store_p50_ms": (_pct(dur[stores], 50) * 1e3, "ms"),
        "cache.evictions": (extras.get("evictions", 0.0), "count"),
        "cache.disk_entries": (extras.get("disk_entries", 0.0), "count"),
        "cache.disk_bytes": (extras.get("disk_bytes", 0.0), "B"),
        "cache.nearest_calls": (float(len(nearest)), "count"),
        "cache.nearest_s": (float(dur[nearest].sum()), "s"),
        "cache.fingerprint_s": (float(dur[spans("cache.fingerprint")].sum()), "s"),
        "cache.warm": (extras.get("warm", 0.0), "count"),
        "cache.cold": (extras.get("cold", 0.0), "count"),
        "host.calib_ms": (extras["calib_ms"], "ms"),
        "host.steal_ratio": (extras.get("steal_ratio") or 0.0, "ratio"),
        "bench.trace_overhead": (extras["trace_overhead"], "ratio"),
    }
    return out
