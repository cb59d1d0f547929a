"""Typed trace events emitted by the schedulers and the replay engine.

Every event is a name, a wall-clock timestamp (``time.perf_counter``
seconds), an optional duration (for span events), and a flat payload of
JSON-serializable fields. The well-known names below are the schema the
report CLI and the Chrome-trace exporter understand; emitting additional
ad-hoc names is allowed (they still round-trip and show up in per-type
counts), so instrumentation can grow without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

__all__ = ["TraceEvent", "EVENT_TYPES", "SIM_EVENT_TYPES"]

#: LoC-MPS outer allocation loop (Algorithm 1)
OUTER_ITERATION = "outer_iteration"
LOOKAHEAD_STEP = "lookahead_step"
CANDIDATE_SELECTED = "candidate_selected"
MEMO_HIT = "memo_hit"
MEMO_MISS = "memo_miss"
MEMO_EVICTED = "memo_evicted"

#: LoCBS hole scan and placement (Algorithm 2)
TASK_PLACED = "task_placed"
BACKFILL_HIT = "backfill_hit"
LOCALITY_HIT = "locality_hit"
LOCALITY_MISS = "locality_miss"
PSEUDO_EDGE_ADDED = "pseudo_edge_added"
REDISTRIBUTION_COSTED = "redistribution_costed"
#: full decision provenance (emitted only when ``explain`` is on; the
#: payload is a serialized :class:`repro.schedulers.provenance.PlacementDecision`)
PLACEMENT_DECISION = "placement_decision"
#: per-call probe-ladder deltas (``considered``, ``bound_pruned``) — how
#: many candidate start times the hole scan probed, and how many the
#: ``tau + et`` break closed without probing
PRUNE_STATS = "prune_stats"
#: per-pass count of leading placements copied from the pass's base
#: (``count``; 0 for a cold pass) instead of hole-scanned
PREFIX_REUSED = "prefix_reused"

#: replay engine (simulated-time spans, not wall-clock)
SIM_TASK = "sim_task"
SIM_TRANSFER = "sim_transfer"

#: experiment harness
EXPERIMENT_CELL = "experiment_cell"

#: content-addressed schedule cache (:mod:`repro.cache`)
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
CACHE_STORE = "cache_store"
CACHE_EVICTED = "cache_evicted"
CACHE_WARM_START = "cache_warm_start"

#: online scheduler daemon (:mod:`repro.online`) — per-event wall-clock
#: latency spans (``kind``, ``latency_s``, ``queue_depth``) and job
#: lifecycle markers (``job``, ``sim_time``)
ONLINE_EVENT = "online_event"
JOB_SUBMITTED = "job_submitted"
JOB_PLACED = "job_placed"
JOB_FINISHED = "job_finished"
JOB_REJECTED = "job_rejected"

#: the documented event schema (ad-hoc names beyond these are permitted)
EVENT_TYPES = frozenset(
    {
        OUTER_ITERATION,
        LOOKAHEAD_STEP,
        CANDIDATE_SELECTED,
        MEMO_HIT,
        MEMO_MISS,
        MEMO_EVICTED,
        TASK_PLACED,
        BACKFILL_HIT,
        LOCALITY_HIT,
        LOCALITY_MISS,
        PSEUDO_EDGE_ADDED,
        REDISTRIBUTION_COSTED,
        PLACEMENT_DECISION,
        PRUNE_STATS,
        PREFIX_REUSED,
        SIM_TASK,
        SIM_TRANSFER,
        EXPERIMENT_CELL,
        CACHE_HIT,
        CACHE_MISS,
        CACHE_STORE,
        CACHE_EVICTED,
        CACHE_WARM_START,
        ONLINE_EVENT,
        JOB_SUBMITTED,
        JOB_PLACED,
        JOB_FINISHED,
        JOB_REJECTED,
    }
)

#: events whose ``start``/``finish`` fields are *simulated* time, rendered
#: on their own Chrome-trace process (the time base differs from wall-clock)
SIM_EVENT_TYPES = frozenset({SIM_TASK, SIM_TRANSFER})


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    ``ts`` is the emission wall-clock timestamp (``time.perf_counter``
    seconds); ``dur`` is nonzero only for span events (the span *started*
    at ``ts`` and lasted ``dur`` seconds). Simulated-time events
    (:data:`SIM_EVENT_TYPES`) carry their timing in ``fields`` instead.
    """

    name: str
    ts: float
    fields: Mapping[str, Any] = field(default_factory=dict)
    dur: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "ts": self.ts}
        if self.dur:
            out["dur"] = self.dur
        if self.fields:
            out["fields"] = dict(self.fields)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        return cls(
            name=data["name"],
            ts=float(data["ts"]),
            fields=dict(data.get("fields", {})),
            dur=float(data.get("dur", 0.0)),
        )
