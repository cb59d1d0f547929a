"""Job records for the online daemon.

A job is a ``(template graph, prefix, widths)`` triple. The template is
the application's shared, un-namespaced :class:`~repro.graph.TaskGraph`;
every job of one template splices from that one graph object, so its
graph analysis and pop order are made once per template. The job's
placements carry the names ``"<job id>/<task>"`` (the *prefix* is the job
id and a ``'/'``), which tells many instances of one template apart on
the machine; the daemon's audit strips the prefix and checks each job
against its template.

``widths`` maps template task names to processor widths. A rigid SWF job
arrives with them (it is its own one-task template); otherwise the
daemon's allocator decides them once per template (or, when the daemon
is given a :class:`~repro.cache.service.CachedScheduleService`, the
content-addressed schedule cache serves them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import ScheduleError
from repro.graph import TaskGraph
from repro.schedule import PlacedTask

__all__ = ["Job"]


@dataclass
class Job:
    """One job moving through the daemon: submitted → placed → finished.

    ``widths`` is keyed by template task name. It may be preset (rigid
    SWF jobs arrive with their width) or left ``None`` for the daemon to
    fill in at submit time. The job's id must not contain ``'/'`` (it
    names the placements ``"<job id>/<task>"``) and its arrival must be
    finite and non-negative; :class:`ScheduleError` otherwise.
    """

    job_id: str
    template: str
    template_graph: TaskGraph  #: shared un-namespaced graph (allocation key)
    arrival: float
    widths: Optional[Dict[str, int]] = None
    #: runtime state, filled in by the daemon
    placements: List[PlacedTask] = field(default_factory=list)
    placed_at: Optional[float] = None  #: sim time the splice happened
    start: Optional[float] = None  #: earliest placed start
    finish: Optional[float] = None  #: latest placed finish

    def __post_init__(self) -> None:
        if "/" in self.job_id:
            raise ScheduleError(f"job id {self.job_id!r} must not contain '/'")
        if not (math.isfinite(self.arrival) and self.arrival >= 0):
            raise ScheduleError(
                f"job {self.job_id!r} has arrival {self.arrival}, not a "
                f"finite non-negative time"
            )

    @property
    def width(self) -> int:
        """Widest task width (admission's notion of the job's size)."""
        return max((self.widths or {}).values(), default=1)

    def record_placements(self, placements: List[PlacedTask]) -> None:
        self.placements = placements
        self.start = min(p.start for p in placements)
        self.finish = max(p.finish for p in placements)
