"""Decision provenance: *why* LoCBS placed each task where it did.

A schedule says *that* task ``t`` runs on processors ``{3, 7}`` at time
``12.4``; provenance says *why*: which candidate holes the Algorithm 2
scan actually probed, how each scored on locality and redistribution
cost, which one won, and by how much the runners-up lost. The records
feed three consumers:

* the ``--explain`` flag of the experiments CLI (and
  ``LocMpsScheduler(explain=True)``), which emits one
  ``placement_decision`` trace event per placed task of the *committed*
  schedule;
* the regret list (:func:`rank_regrets`): the placements whose
  second-best alternative finished closest to the winner — exactly the
  decisions where a slightly different cost model, bandwidth, or
  tie-break would flip the schedule, so the first ones to inspect when a
  plan underperforms;
* the HTML dashboard (``python -m repro.obs dashboard``), which renders
  the per-task drill-down from the trace JSONL.

Recording observes the production hole scan itself: with a recorder
attached, LoCBS hands the scan a per-probe sink and turns off its early
break, and every probe the scan makes reaches the record. Recording is
strictly opt-in: without a recorder the scan carries only a
``sink is not None`` check per probe, so ``explain=False`` (the default)
leaves schedules and wall-clock untouched — the golden fingerprint suite
enforces the former.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "CandidateProbe",
    "PlacementDecision",
    "ProvenanceRecorder",
    "rank_regrets",
]

#: probe outcomes (the ``outcome`` field of :class:`CandidateProbe`)
WON = "won"
LOST = "lost"
TOO_FEW_FREE = "too_few_free"
HOLE_TOO_SHORT = "hole_too_short"


def _num(x: float) -> Optional[float]:
    """JSON-safe float: non-finite values map to ``None`` (and back)."""
    return x if math.isfinite(x) else None


def _denum(x: Optional[float]) -> float:
    return float(x) if x is not None else math.inf


@dataclass(frozen=True)
class CandidateProbe:
    """One probed hole of the Algorithm 2 scan for a single task.

    ``tau`` is the candidate start instant (the data-ready time or a
    busy-interval release); ``processors`` the locality-ranked subset
    chosen inside that hole (empty when the hole never yielded one);
    ``start``/``exec_start``/``finish`` the trial timing of the subset;
    ``resident_bytes`` the bytes of the task's input data already living
    on the subset; ``comm_time`` the summed inbound redistribution time
    the trial would pay. ``outcome`` is one of ``"won"``, ``"lost"``,
    ``"too_few_free"``, ``"hole_too_short"``; ``margin`` is how much
    later than the winner this candidate would have finished (0 for the
    winner, ``inf`` for infeasible probes).
    """

    tau: float
    processors: Tuple[int, ...]
    start: float
    exec_start: float
    finish: float
    resident_bytes: float
    comm_time: float
    outcome: str
    margin: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tau": self.tau,
            "processors": list(self.processors),
            "start": _num(self.start),
            "exec_start": _num(self.exec_start),
            "finish": _num(self.finish),
            "resident_bytes": self.resident_bytes,
            "comm_time": self.comm_time,
            "outcome": self.outcome,
            "margin": _num(self.margin),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CandidateProbe":
        return cls(
            tau=float(data["tau"]),
            processors=tuple(int(p) for p in data["processors"]),
            start=_denum(data["start"]),
            exec_start=_denum(data["exec_start"]),
            finish=_denum(data["finish"]),
            resident_bytes=float(data["resident_bytes"]),
            comm_time=float(data["comm_time"]),
            outcome=str(data["outcome"]),
            margin=_denum(data["margin"]),
        )


@dataclass
class PlacementDecision:
    """The full decision record of one placed task.

    ``candidates`` holds every hole the scan examined, in probe order;
    ``winner`` indexes the probe that became the placement. ``pruned``
    counts the candidates that fail the production scan's early-exit test
    ``tau + et >= best_finish``: the unrecorded scan stops at the first
    such candidate, but the explaining scan probes them all anyway — the
    test proves they cannot beat the winner, so probing only adds the
    losers' true margins, never changes the placement.
    """

    task: str
    width: int
    ready_time: float
    candidates: List[CandidateProbe] = field(default_factory=list)
    winner: int = -1
    pruned: int = 0
    #: run label (graph/P/scheme) stamped by the scheduler for grouping
    run: str = ""

    @property
    def placement(self) -> CandidateProbe:
        """The winning probe (== the committed placement)."""
        return self.candidates[self.winner]

    @property
    def runner_up(self) -> Optional[CandidateProbe]:
        """The best *losing* feasible probe, if any alternative existed."""
        losers = [c for c in self.candidates if c.outcome == LOST]
        if not losers:
            return None
        return min(losers, key=lambda c: (c.margin, c.tau))

    @property
    def regret(self) -> float:
        """How close the decision was: the runner-up's finish margin.

        ``inf`` when no feasible alternative existed (the decision was
        forced); small positive values mark the near-ties worth
        inspecting first when a schedule underperforms.
        """
        ru = self.runner_up
        return ru.margin if ru is not None else float("inf")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "task": self.task,
            "width": self.width,
            "ready_time": self.ready_time,
            "winner": self.winner,
            "pruned": self.pruned,
            "candidates": [c.to_dict() for c in self.candidates],
        }
        if self.run:
            out["run"] = self.run
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlacementDecision":
        return cls(
            task=str(data["task"]),
            width=int(data["width"]),
            ready_time=float(data["ready_time"]),
            candidates=[
                CandidateProbe.from_dict(c) for c in data.get("candidates", ())
            ],
            winner=int(data["winner"]),
            pruned=int(data.get("pruned", 0)),
            run=str(data.get("run", "")),
        )


class ProvenanceRecorder:
    """Collects one :class:`PlacementDecision` per placed task.

    Pass an instance to :func:`repro.schedulers.locbs.locbs_schedule`
    (or let ``LocMpsScheduler(explain=True)`` do it) and read
    :attr:`decisions` afterwards. ``label`` stamps every decision's
    ``run`` field so traces holding several explained runs (an
    experiment sweep) stay separable.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.decisions: List[PlacementDecision] = []
        self._by_task: Dict[str, PlacementDecision] = {}

    def record(self, decision: PlacementDecision) -> None:
        decision.run = decision.run or self.label
        self.decisions.append(decision)
        self._by_task[decision.task] = decision

    def decision_for(self, task: str) -> Optional[PlacementDecision]:
        """The recorded decision of *task* (``None`` if never placed)."""
        return self._by_task.get(task)

    def regret_list(self, k: int = 10) -> List[PlacementDecision]:
        """The *k* closest decisions (see :func:`rank_regrets`)."""
        return rank_regrets(self.decisions, k)

    def __len__(self) -> int:
        return len(self.decisions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProvenanceRecorder(label={self.label!r}, "
            f"decisions={len(self.decisions)})"
        )


def rank_regrets(
    decisions: Sequence[PlacementDecision], k: int = 10
) -> List[PlacementDecision]:
    """The top-*k* decisions whose second-best alternative was closest.

    Forced decisions (no feasible alternative: ``regret == inf``) are
    excluded — there was nothing to second-guess. Ties order by task
    name for determinism.
    """
    contested = [d for d in decisions if d.regret != float("inf")]
    contested.sort(key=lambda d: (d.regret, d.task))
    return contested[: max(0, k)]
