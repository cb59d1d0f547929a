"""Job records for the online daemon, and per-job task namespacing.

Every submitted job carries its own :class:`~repro.graph.TaskGraph` whose
task names are prefixed ``"<job id>/"``: the job's placements carry those
names, so many instances of the same application template can be told
apart on one machine (and audited per job against their own graph).

The *un*-namespaced template graph is kept alongside, and is what the
daemon allocates and splices. Allocation is decided once per template
object (or, when the daemon is given a
:class:`~repro.cache.service.CachedScheduleService`, served by the
content-addressed schedule cache) instead of a cold allocation walk per
arrival. The splice then runs on the shared template under those widths
and prefixes the placement names: the chart's splice spans are unowned,
so it never keys by a task name, and the cost cache's graph memo and the
placer's pop order are built once per template. A job with a preset
allocation (a rigid SWF job is its own template) is spliced from its own
graph, whose state the daemon releases when the job finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import ScheduleError
from repro.graph import TaskGraph
from repro.schedule import PlacedTask

__all__ = ["Job", "namespace_graph"]


def namespace_graph(template: TaskGraph, job_id: str) -> TaskGraph:
    """A copy of *template* with every task renamed ``"<job_id>/<task>"``."""
    if "/" in job_id:
        raise ScheduleError(f"job id {job_id!r} must not contain '/'")
    out = TaskGraph(f"{job_id}/{template.name}")
    for t in template.tasks():
        task = template.task(t)
        out.add_task(f"{job_id}/{t}", task.profile, **task.attrs)
    for u, v in template.edges():
        out.add_edge(f"{job_id}/{u}", f"{job_id}/{v}", template.data_volume(u, v))
    return out


@dataclass
class Job:
    """One job moving through the daemon: submitted → placed → finished.

    ``allocation`` maps *namespaced* task names to processor widths. It
    may be preset (rigid SWF jobs arrive with their width) or left
    ``None`` for the daemon's allocator to decide at submit time. In the
    second case the daemon also records the template's widths in
    ``template_widths`` and splices the job from ``template_graph``; a
    preset job is spliced from ``graph``.
    """

    job_id: str
    template: str
    graph: TaskGraph  #: namespaced per-job graph (lives on the chart)
    template_graph: TaskGraph  #: shared un-namespaced graph (allocation key)
    arrival: float
    allocation: Optional[Dict[str, int]] = None
    #: runtime state, filled in by the daemon
    placements: List[PlacedTask] = field(default_factory=list)
    placed_at: Optional[float] = None  #: sim time the splice happened
    start: Optional[float] = None  #: earliest placed start
    finish: Optional[float] = None  #: latest placed finish
    #: widths by template task name, when the daemon's per-template
    #: allocation decided them (the job then splices its template)
    template_widths: Optional[Dict[str, int]] = None

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ScheduleError(
                f"job {self.job_id!r} has negative arrival {self.arrival}"
            )

    @property
    def width(self) -> int:
        """Widest task width (admission's notion of the job's size)."""
        if self.allocation:
            return max(self.allocation.values())
        return 1

    def record_placements(self, placements: List[PlacedTask]) -> None:
        self.placements = placements
        self.start = min(p.start for p in placements)
        self.finish = max(p.finish for p in placements)
