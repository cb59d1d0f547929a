"""Scheduler interface and shared helpers."""

from __future__ import annotations

import abc
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster import Cluster
from repro.exceptions import AllocationError
from repro.graph import TaskGraph
from repro.graph.pseudo import ScheduleDAG
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.redistribution import estimate_edge_cost
from repro.schedule import Schedule

__all__ = ["Scheduler", "SchedulingResult", "clamp_allocation", "edge_cost_map"]

#: a critical path's vertices, its ``Tcomp`` and ``Tcomm``, and its real
#: edges with their weights
CpSummary = Tuple[List[str], float, float, List[Tuple[str, str, float]]]


class SchedulingResult:
    """What a scheduler returns: the schedule and the schedule-DAG ``G'``.

    Most schedulers pass a ready-built ``sdag``. A LoCBS pass passes
    ``graph`` and ``pseudo_edges`` instead — its ``(blocker, task)``
    pairs in the schedule's pop order — and ``G'`` is built from them on
    the first read of :attr:`sdag`: vertex weights are the placements'
    computation times, edge weights the schedule's transfer times. Many
    look-ahead passes are never analysed, so they never pay for the
    build. LoC-MPS itself never reads :attr:`sdag` from such a pass: it
    sweeps the pass's pop order for the same critical path (see
    :mod:`repro.schedulers.locmps`), so only direct readers build ``G'``.

    ``placements_reused`` counts the leading placements a LoCBS pass copied
    from its ``base`` pass instead of scanning for them (0 for cold passes).
    """

    def __init__(
        self,
        schedule: Schedule,
        sdag: Optional[ScheduleDAG] = None,
        placements_reused: int = 0,
        *,
        graph: Optional[TaskGraph] = None,
        pseudo_edges: Sequence[Tuple[str, str]] = (),
    ) -> None:
        if sdag is None and graph is None:
            raise TypeError("SchedulingResult needs an sdag or a graph")
        self.schedule = schedule
        self.placements_reused = placements_reused
        #: the application graph ``G`` the schedule covers
        self.graph: TaskGraph = graph if graph is not None else sdag.base
        #: ``(blocker, task)`` pseudo-edge pairs in pop order (LoCBS passes)
        self.pseudo_edges = pseudo_edges
        self._sdag = sdag
        #: LoC-MPS's ``(path, Tcomp, Tcomm, real edges on path)`` of
        #: ``G'``'s critical path, filled on its first read
        self._cp_summary: Optional[CpSummary] = None

    @property
    def sdag(self) -> ScheduleDAG:
        """``G'``, built on first access when the result was given none."""
        if self._sdag is None:
            schedule = self.schedule
            self._sdag = ScheduleDAG(
                self.graph,
                {p.name: p.exec_duration for p in schedule},
                schedule.edge_comm_times,
            )
            self._sdag.add_pseudo_edges(
                self.pseudo_edges, [p.name for p in schedule]
            )
        return self._sdag

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SchedulingResult(schedule={self.schedule!r}, "
            f"placements_reused={self.placements_reused})"
        )


class Scheduler(abc.ABC):
    """Common interface of all allocation-and-scheduling algorithms."""

    #: short identifier used by the registry and experiment reports
    name: str = "scheduler"

    #: observability sink — assign a recording :class:`repro.obs.Tracer`
    #: (or pass ``tracer=`` where the scheduler supports it) to capture
    #: structured events; the shared no-op default records nothing
    tracer: Tracer = NULL_TRACER

    @abc.abstractmethod
    def run(self, graph: TaskGraph, cluster: Cluster) -> SchedulingResult:
        """Allocate and schedule *graph* on *cluster*."""

    def schedule(self, graph: TaskGraph, cluster: Cluster) -> Schedule:
        """Run the algorithm and return the schedule, timing the call.

        The wall-clock scheduling time is stored on the returned schedule
        (``Schedule.scheduling_time``) — the quantity plotted by the paper's
        Figs 6(b) and 10.
        """
        graph.validate()
        t0 = time.perf_counter()
        result = self.run(graph, cluster)
        result.schedule.scheduling_time = time.perf_counter() - t0
        result.schedule.scheduler = self.name
        return result.schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def whole_width(task: str, width: Any) -> int:
    """*width* as an ``int``, or :class:`AllocationError` if it is not whole."""
    try:
        whole = int(width)
    except (TypeError, ValueError, OverflowError):  # NaN, inf, non-numbers
        whole = None
    if whole is None or whole != width:  # 1.5 is not truncated to 1
        raise AllocationError(f"allocation for {task!r} is {width!r}, not whole")
    return whole


def clamp_allocation(
    graph: TaskGraph, cluster: Cluster, allocation: Mapping[str, int]
) -> Dict[str, int]:
    """Validate and normalize an allocation against graph and cluster."""
    out: Dict[str, int] = {}
    for t in graph.tasks():
        np_t = allocation.get(t)
        if np_t is None:
            raise AllocationError(f"allocation missing task {t!r}")
        np_t = whole_width(t, np_t)
        if not (1 <= np_t <= cluster.num_processors):
            raise AllocationError(
                f"allocation for {t!r} is {np_t}, outside "
                f"[1, {cluster.num_processors}]"
            )
        out[t] = np_t
    return out


def edge_cost_map(
    graph: TaskGraph,
    cluster: Cluster,
    allocation: Mapping[str, int],
    *,
    comm_blind: bool = False,
) -> Dict[Tuple[str, str], float]:
    """Allocation-time edge-cost estimates ``D / (min(np_u, np_v) * bw)``.

    ``comm_blind=True`` (the iCASLB assumption) forces every cost to zero.
    """
    costs: Dict[Tuple[str, str], float] = {}
    for u, v in graph.edges():
        if comm_blind:
            costs[(u, v)] = 0.0
        else:
            costs[(u, v)] = estimate_edge_cost(
                allocation[u], allocation[v], graph.data_volume(u, v), cluster.bandwidth
            )
    return costs
