"""Scheduling context: pinned machine state and external data inputs.

The paper lists on-line scheduling in a run-time framework as future work.
This module provides the plumbing that makes it possible: a
:class:`SchedulingContext` describes the state of a cluster *mid-execution*
— processors busy until some release time, and data produced by
already-finished tasks resident on concrete processor sets — so that LoCBS
(and therefore LoC-MPS) can schedule the *remaining* subgraph consistently
with work that has already happened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import ScheduleError

__all__ = ["ExternalInput", "SchedulingContext"]


def _check_time(what: str, value: float) -> None:
    """Raise :class:`ScheduleError` unless *value* is finite and >= 0."""
    if not math.isfinite(value) or value < 0:
        raise ScheduleError(
            f"{what} {value} is not a finite, non-negative number"
        )


@dataclass(frozen=True)
class ExternalInput:
    """Data an already-finished producer left behind for a remaining task.

    Attributes
    ----------
    ready_time:
        Absolute time at which the data exists (the producer's realized
        finish time).
    processors:
        The ordered processor set holding the data block-cyclically.
    volume:
        Bytes to redistribute to the consumer's processor set.
    label:
        Identifier of the producer (for diagnostics only).
    """

    ready_time: float
    processors: Tuple[int, ...]
    volume: float
    label: str = "external"

    def __post_init__(self) -> None:
        if not self.processors:
            raise ScheduleError("external input needs a non-empty processor set")
        _check_time("external volume", self.volume)
        _check_time("ready time", self.ready_time)


@dataclass
class SchedulingContext:
    """Machine + data state a scheduler must respect.

    ``processor_ready`` maps a processor to the absolute time it becomes
    free (processors absent from the mapping are free at 0).
    ``external_inputs`` maps a remaining task to the inputs produced by
    tasks that are no longer part of the graph being scheduled.
    ``release_floor`` is an absolute lower bound on every task's start —
    the submission time of a job arriving into a live chart (the online
    daemon's incremental splice); tasks with parents finishing later are
    unaffected, but root tasks cannot be backfilled into holes that
    predate the job's arrival.
    """

    processor_ready: Dict[int, float] = field(default_factory=dict)
    external_inputs: Dict[str, List[ExternalInput]] = field(default_factory=dict)
    release_floor: float = 0.0

    def __post_init__(self) -> None:
        _check_time("release floor", self.release_floor)
        for proc, ready in self.processor_ready.items():
            _check_time(f"processor {proc} ready time", ready)

    def inputs_for(self, task: str) -> Sequence[ExternalInput]:
        return self.external_inputs.get(task, ())

    def ready_time(self, processor: int) -> float:
        return self.processor_ready.get(processor, 0.0)
