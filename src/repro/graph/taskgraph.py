"""The application model: a weighted DAG of malleable parallel tasks.

Vertices carry an :class:`~repro.speedup.ExecutionProfile` (execution time as
a function of processor count); edges carry the volume of data, in bytes,
that the producer must redistribute to the consumer. This matches the
macro-dataflow model of the paper's Section II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

import networkx as nx

from repro.exceptions import (
    CycleError,
    EdgeVolumeError,
    GraphError,
    UnknownTaskError,
)
from repro.speedup import ExecutionProfile
from repro.utils.validation import check_non_negative

__all__ = ["Task", "TaskGraph"]


@dataclass(frozen=True)
class Task:
    """One malleable parallel task.

    Frozen: a graph's :attr:`~TaskGraph.revision` counts only added tasks
    and edges, so caches keyed by it (``CostCache.graph_invariants``) rely
    on a task's profile never being reassigned.

    Attributes
    ----------
    name:
        Unique vertex identifier.
    profile:
        Execution-time profile ``et(p)``.
    attrs:
        Free-form metadata (workload generators attach e.g. ``kind``).
    """

    name: str
    profile: ExecutionProfile
    attrs: Dict[str, Any] = field(default_factory=dict)

    def time(self, p: int) -> float:
        """Execution time on *p* processors."""
        return self.profile.time(p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.name!r}, et(1)={self.profile.sequential_time:g})"


class TaskGraph:
    """A directed acyclic graph of malleable tasks with data-volume edges.

    The class wraps a :class:`networkx.DiGraph` but exposes a deliberately
    narrow, validated API; schedulers never touch the underlying graph
    directly except through :meth:`nx_graph`.
    """

    def __init__(self, name: str = "taskgraph") -> None:
        self.name = name
        self._g: nx.DiGraph = nx.DiGraph()
        self._tasks: Dict[str, Task] = {}
        self._revision = 0

    # -- construction ----------------------------------------------------------

    def add_task(
        self,
        name: str,
        profile: ExecutionProfile,
        **attrs: Any,
    ) -> Task:
        """Add a task; raises :class:`GraphError` on duplicate names."""
        if name in self._tasks:
            raise GraphError(f"duplicate task name: {name!r}")
        if not isinstance(profile, ExecutionProfile):
            raise GraphError(
                f"profile for {name!r} must be an ExecutionProfile, "
                f"got {type(profile).__name__}"
            )
        task = Task(name=name, profile=profile, attrs=dict(attrs))
        self._tasks[name] = task
        self._g.add_node(name)
        self._revision += 1
        return task

    def add_edge(self, src: str, dst: str, data_volume: float = 0.0) -> None:
        """Add a dependence edge with *data_volume* bytes to redistribute.

        Adding an edge that would close a directed cycle raises
        :class:`CycleError` immediately, keeping the graph a DAG at all times.
        A NaN, infinite or negative *data_volume* raises
        :class:`EdgeVolumeError`.
        """
        self._require(src)
        self._require(dst)
        if src == dst:
            raise CycleError(f"self-loop on task {src!r}")
        try:
            check_non_negative(data_volume, "data_volume")
        except ValueError as err:
            raise EdgeVolumeError(f"edge {src!r} -> {dst!r}: {err}") from None
        if self._g.has_edge(src, dst):
            raise GraphError(f"duplicate edge {src!r} -> {dst!r}")
        # Cheap cycle guard: a new edge u->v creates a cycle iff v reaches u.
        if nx.has_path(self._g, dst, src):
            raise CycleError(f"edge {src!r} -> {dst!r} would create a cycle")
        self._g.add_edge(src, dst, data_volume=float(data_volume))
        self._revision += 1

    # -- queries ---------------------------------------------------------------

    def _require(self, name: str) -> Task:
        task = self._tasks.get(name)
        if task is None:
            raise UnknownTaskError(f"unknown task: {name!r}")
        return task

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tasks)

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    @property
    def num_edges(self) -> int:
        return self._g.number_of_edges()

    @property
    def revision(self) -> int:
        """Count of successful :meth:`add_task` and :meth:`add_edge` calls.

        The graph is append-only, so the pair ``(graph, revision)`` names
        one state of it; memos keyed by it are checked in O(1) (counting
        edges walks every node through networkx).
        """
        return self._revision

    def task(self, name: str) -> Task:
        """The :class:`Task` object for *name* (raises if unknown)."""
        return self._require(name)

    def tasks(self) -> List[str]:
        """All task names (insertion order)."""
        return list(self._tasks)

    def edges(self) -> List[Tuple[str, str]]:
        """All ``(src, dst)`` edges."""
        return list(self._g.edges())

    def data_volume(self, src: str, dst: str) -> float:
        """Bytes to redistribute along edge ``src -> dst``."""
        try:
            return self._g.edges[src, dst]["data_volume"]
        except KeyError:
            raise GraphError(f"no edge {src!r} -> {dst!r}") from None

    def predecessors(self, name: str) -> List[str]:
        self._require(name)
        return list(self._g.predecessors(name))

    def successors(self, name: str) -> List[str]:
        self._require(name)
        return list(self._g.successors(name))

    def sources(self) -> List[str]:
        """Tasks with no predecessors."""
        return [t for t in self._tasks if self._g.in_degree(t) == 0]

    def sinks(self) -> List[str]:
        """Tasks with no successors."""
        return [t for t in self._tasks if self._g.out_degree(t) == 0]

    def et(self, name: str, p: int) -> float:
        """Execution time of task *name* on *p* processors."""
        return self._require(name).time(p)

    def sequential_time(self, name: str) -> float:
        """``et(t, 1)``."""
        return self._require(name).profile.sequential_time

    def total_sequential_work(self) -> float:
        """Sum of ``et(t, 1)`` over all tasks."""
        return sum(t.profile.sequential_time for t in self._tasks.values())

    def topological_order(self) -> List[str]:
        """A deterministic topological ordering (lexicographic tie-break)."""
        return list(nx.lexicographical_topological_sort(self._g))

    def nx_graph(self) -> nx.DiGraph:
        """The underlying :class:`networkx.DiGraph` (treat as read-only)."""
        return self._g

    # -- transforms --------------------------------------------------------------

    def copy(self) -> "TaskGraph":
        """A structural copy sharing :class:`Task` profile objects."""
        out = TaskGraph(self.name)
        for name, task in self._tasks.items():
            out.add_task(name, task.profile, **task.attrs)
        for u, v in self._g.edges():
            out.add_edge(u, v, self._g.edges[u, v]["data_volume"])
        return out

    def validate(self) -> None:
        """Raise :class:`GraphError`/:class:`CycleError` on inconsistency.

        ``add_edge`` maintains acyclicity incrementally; this re-checks the
        full invariant set for graphs mutated through :meth:`nx_graph`.
        """
        if not nx.is_directed_acyclic_graph(self._g):
            raise CycleError(f"graph {self.name!r} contains a cycle")
        if set(self._g.nodes) != set(self._tasks):
            raise GraphError(f"graph {self.name!r} node set out of sync")
        for u, v, data in self._g.edges(data=True):
            vol = data.get("data_volume")
            if vol is None or vol < 0:
                raise GraphError(f"edge {u!r} -> {v!r} has invalid data volume {vol!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph({self.name!r}, tasks={self.num_tasks}, "
            f"edges={self.num_edges})"
        )
