"""Schedule data types: task placements and the complete schedule object."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.cluster import Cluster
from repro.exceptions import ScheduleError

__all__ = ["PlacedTask", "Schedule"]


@dataclass(frozen=True)
class PlacedTask:
    """One task's rectangle in the 2-D (time x processors) chart.

    Attributes
    ----------
    name:
        Task name.
    start:
        When the task begins occupying its processors. In no-overlap mode
        this includes the inbound redistribution; with overlap it equals
        ``exec_start``.
    exec_start:
        When computation proper begins (``start + comm`` in no-overlap mode).
    finish:
        ``exec_start + et(t, np(t))``.
    processors:
        The concrete processor set, ordered (the order defines the task's
        block-cyclic output layout).
    """

    name: str
    start: float
    exec_start: float
    finish: float
    processors: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.processors:
            raise ScheduleError(f"task {self.name!r} placed on empty processor set")
        if len(set(self.processors)) != len(self.processors):
            raise ScheduleError(
                f"task {self.name!r} placed on duplicated processors "
                f"{self.processors!r}"
            )
        if not (self.start <= self.exec_start <= self.finish):
            raise ScheduleError(
                f"task {self.name!r} has inconsistent times: "
                f"start={self.start}, exec_start={self.exec_start}, "
                f"finish={self.finish}"
            )

    @property
    def width(self) -> int:
        """Number of processors allocated."""
        return len(self.processors)

    @property
    def duration(self) -> float:
        """Total occupancy duration (comm + comp in no-overlap mode)."""
        return self.finish - self.start

    @property
    def exec_duration(self) -> float:
        """Computation-only duration."""
        return self.finish - self.exec_start


class Schedule:
    """A complete mapping of tasks to processor sets and time intervals."""

    def __init__(self, cluster: Cluster, *, scheduler: str = "") -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self._placements: Dict[str, PlacedTask] = {}
        #: frozen machine membership (the cluster's processor set never
        #: changes, and place() runs once per inner placement of the slot
        #: search, so the set is not rebuilt per call)
        self._valid_procs = frozenset(cluster.processors)
        #: actual per-edge redistribution time, filled by the scheduler
        self.edge_comm_times: Dict[Tuple[str, str], float] = {}
        #: wall-clock seconds the scheduler spent computing this schedule
        self.scheduling_time: float = 0.0

    # -- construction -----------------------------------------------------------

    def place(self, placement: PlacedTask) -> None:
        """Record a placement; duplicate tasks or foreign processors raise."""
        if placement.name in self._placements:
            raise ScheduleError(f"task {placement.name!r} placed twice")
        bad = set(placement.processors) - self._valid_procs
        if bad:
            raise ScheduleError(
                f"task {placement.name!r} uses unknown processors {sorted(bad)!r}"
            )
        self._placements[placement.name] = placement

    # -- queries ----------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._placements

    def __len__(self) -> int:
        return len(self._placements)

    def __iter__(self) -> Iterator[PlacedTask]:
        return iter(self._placements.values())

    def __reversed__(self) -> Iterator[PlacedTask]:
        return reversed(self._placements.values())

    def __getitem__(self, name: str) -> PlacedTask:
        try:
            return self._placements[name]
        except KeyError:
            raise ScheduleError(f"task {name!r} not in schedule") from None

    def get(self, name: str) -> Optional[PlacedTask]:
        return self._placements.get(name)

    @property
    def placements(self) -> Mapping[str, PlacedTask]:
        """Read-only name -> placement mapping."""
        return dict(self._placements)

    @property
    def makespan(self) -> float:
        """Finish time of the last task (0 for an empty schedule)."""
        if not self._placements:
            return 0.0
        return max(p.finish for p in self._placements.values())

    def allocation(self) -> Dict[str, int]:
        """The processor *count* per task implied by the placements."""
        return {name: p.width for name, p in self._placements.items()}

    def finish_time(self, name: str) -> float:
        return self[name].finish

    def start_time(self, name: str) -> float:
        return self[name].start

    def processors_of(self, name: str) -> Tuple[int, ...]:
        return self[name].processors

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(scheduler={self.scheduler!r}, tasks={len(self)}, "
            f"makespan={self.makespan:g})"
        )
