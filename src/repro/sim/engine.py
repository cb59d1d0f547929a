"""Replay engine: execute a planned schedule under a (noisy) cost model.

The engine treats the planned schedule as a *dispatch plan*: each task keeps
its processor set, and each processor executes its tasks in the planned
order. Actual start times are then determined dynamically:

* a task may begin its inbound redistribution only after every predecessor
  has finished and after every earlier task in its processors' dispatch
  order has released them;
* transfer times follow the block-cyclic model — the planner's
  aggregate-bandwidth rule by default, or the stricter per-node single-port
  rule with ``use_single_port=True`` — scaled by the noise model's bandwidth
  factor;
* execution times are the profiled ``et(t, np(t))`` scaled per-task by the
  noise model's duration factor.

With :class:`~repro.sim.noise.NoNoise` and the default aggregate-bandwidth
rule, replaying a valid schedule reproduces timings no worse than the plan
(the replay only ever *compacts* waits) — a property the test suite checks.
With noise and the single-port rule, the replay is the library's substitute
for the paper's Fig 11 real-cluster execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cluster import Cluster
from repro.exceptions import SimulationError
from repro.graph import TaskGraph
from repro.obs.registry import SIM_BUCKETS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.redistribution import RedistributionModel
from repro.schedule import Schedule
from repro.sim.events import Event, EventKind
from repro.sim.noise import NoiseModel, NoNoise
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "SimulatedTask",
    "SimulationReport",
    "ExecutionEngine",
    "verify_exclusive",
    "verify_realized",
]


def verify_realized(
    graph: TaskGraph, done: Dict[str, "SimulatedTask"], *, tol: float = 1e-6
) -> None:
    """Raise if a realized execution of *graph* violates its semantics.

    Checks completeness (every task ran), precedence (no consumer's
    ``exec_start`` precedes a producer's ``finish`` beyond *tol*) and
    processor exclusivity over the realized ``(start, finish)`` windows.
    Duck-typed over the values of *done*: anything with ``exec_start`` /
    ``finish`` / ``start`` / ``processors`` attributes qualifies, so both
    :class:`SimulatedTask` and :class:`~repro.schedule.PlacedTask` (where
    ``exec_start`` exists) can be verified — the online daemon audits its
    live chart with the same oracle the rescheduler uses.
    """
    if set(done) != set(graph.tasks()):
        missing = set(graph.tasks()) - set(done)
        raise SimulationError(f"tasks never executed: {sorted(missing)!r}")
    for u, v in graph.edges():
        if done[v].exec_start < done[u].finish - tol:
            raise SimulationError(
                f"precedence violated: {v!r} started at "
                f"{done[v].exec_start:g} before {u!r} finished at "
                f"{done[u].finish:g}"
            )
    verify_exclusive(done.values(), tol=tol)


def verify_exclusive(tasks: Iterable, *, tol: float = 1e-6) -> None:
    """Raise if two of *tasks* overlap on a processor beyond *tol*
    (duck-typed like :func:`verify_realized`)."""
    by_proc: Dict[int, List[Tuple[float, float, str]]] = {}
    for sim in tasks:
        for p in sim.processors:
            by_proc.setdefault(p, []).append((sim.start, sim.finish, sim.name))
    for p, windows in by_proc.items():
        windows.sort()
        for (s1, e1, n1), (s2, e2, n2) in zip(windows, windows[1:]):
            if s2 < e1 - tol:
                raise SimulationError(
                    f"processor {p} oversubscribed: {n1!r} and {n2!r} overlap"
                )


@dataclass(frozen=True)
class SimulatedTask:
    """Realized timing of one task in a simulated execution."""

    name: str
    start: float  # when the processors were acquired (comm start, no-overlap)
    exec_start: float
    finish: float
    processors: Tuple[int, ...]


@dataclass
class SimulationReport:
    """Outcome of replaying one schedule."""

    scheduler: str
    makespan: float
    tasks: Dict[str, SimulatedTask]
    events: List[Event] = field(default_factory=list)
    planned_makespan: float = 0.0

    @property
    def slowdown(self) -> float:
        """Achieved over planned makespan (1.0 = exact replay)."""
        if self.planned_makespan <= 0:
            return float("nan")
        return self.makespan / self.planned_makespan


class ExecutionEngine:
    """Replays schedules on a cluster, optionally with stochastic noise."""

    def __init__(
        self,
        graph: TaskGraph,
        cluster: Cluster,
        *,
        noise: Optional[NoiseModel] = None,
        seed: SeedLike = None,
        use_single_port: bool = False,
        use_phased: bool = False,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.graph = graph
        self.cluster = cluster
        self.noise = noise or NoNoise()
        self.rng = as_generator(seed)
        self.model = RedistributionModel(cluster)
        self.use_single_port = use_single_port
        #: highest-fidelity transfer rule: explicit conflict-free message
        #: phases (dominates ``use_single_port`` when both are set)
        self.use_phased = use_phased
        #: observability sink: each realized task becomes a ``sim_task``
        #: span (simulated time base), each transfer a ``sim_transfer``
        self.tracer = tracer or NULL_TRACER
        #: metrics sink: realized task and transfer durations land in the
        #: ``sim_task_seconds`` / ``sim_transfer_seconds`` histograms
        #: (simulated time base, same names :func:`registry_from_events`
        #: derives from a trace)
        self.metrics = metrics

    # -- timing helpers ------------------------------------------------------------

    def _transfer_time(
        self, src: Tuple[int, ...], dst: Tuple[int, ...], volume: float
    ) -> float:
        if self.use_phased:
            base = self.model.phased_time(src, dst, volume)
        elif self.use_single_port:
            base = self.model.single_port_time(src, dst, volume)
        else:
            base = self.model.transfer_time(src, dst, volume)
        if base == 0.0:
            return 0.0
        return base / self.noise.bandwidth_factor(self.rng)

    # -- replay ---------------------------------------------------------------------

    def execute(self, schedule: Schedule, *, record_events: bool = True) -> SimulationReport:
        """Replay *schedule*; returns the realized timings and makespan."""
        missing = [t for t in self.graph.tasks() if t not in schedule]
        if missing:
            raise SimulationError(f"schedule missing tasks: {missing!r}")

        # Dispatch order per processor, from the plan.
        proc_queue: Dict[int, List[str]] = {p: [] for p in self.cluster.processors}
        for placed in sorted(schedule, key=lambda p: (p.start, p.name)):
            for p in placed.processors:
                proc_queue[p].append(placed.name)

        # A task is dispatchable once it is at the head of each of its
        # processors' queues and all graph predecessors are done.
        position: Dict[str, Dict[int, int]] = {}
        for p, names in proc_queue.items():
            for i, name in enumerate(names):
                position.setdefault(name, {})[p] = i
        head: Dict[int, int] = {p: 0 for p in self.cluster.processors}

        done: Dict[str, SimulatedTask] = {}
        proc_free_at: Dict[int, float] = {p: 0.0 for p in self.cluster.processors}
        events: List[Event] = []
        pending = set(self.graph.tasks())

        # Duration factors drawn once per task, in deterministic name order.
        duration_factor = {
            t: self.noise.duration_factor(self.rng)
            for t in sorted(self.graph.tasks())
        }

        while pending:
            progressed = False
            # Deterministic sweep: tasks in planned start order.
            for placed in sorted(schedule, key=lambda p: (p.start, p.name)):
                name = placed.name
                if name not in pending:
                    continue
                if any(u not in done for u in self.graph.predecessors(name)):
                    continue
                if any(
                    head[p] != position[name][p] for p in placed.processors
                ):
                    continue

                procs = placed.processors
                machine_ready = max(proc_free_at[p] for p in procs)
                comm_total = 0.0
                data_ready = 0.0
                parent_finish = 0.0
                xfers: List[Tuple[str, float]] = []
                for u in self.graph.predecessors(name):
                    xfer = self._transfer_time(
                        done[u].processors, procs, self.graph.data_volume(u, name)
                    )
                    xfers.append((u, xfer))
                    comm_total += xfer
                    data_ready = max(data_ready, done[u].finish + xfer)
                    parent_finish = max(parent_finish, done[u].finish)

                et = self.graph.et(name, len(procs)) * duration_factor[name]
                if self.cluster.overlap:
                    exec_start = max(machine_ready, data_ready)
                    start = exec_start
                else:
                    start = max(machine_ready, parent_finish)
                    exec_start = start + comm_total
                finish = exec_start + et

                sim = SimulatedTask(
                    name=name, start=start, exec_start=exec_start,
                    finish=finish, processors=procs,
                )
                done[name] = sim
                pending.discard(name)
                progressed = True
                for p in procs:
                    proc_free_at[p] = finish
                    head[p] += 1
                if record_events:
                    for u, xfer in xfers:
                        if xfer > 0:
                            events.append(
                                Event(done[u].finish, EventKind.TRANSFER_START,
                                      edge=(u, name))
                            )
                            events.append(
                                Event(done[u].finish + xfer,
                                      EventKind.TRANSFER_END, edge=(u, name))
                            )
                    events.append(Event(exec_start, EventKind.TASK_START, task=name))
                    events.append(Event(finish, EventKind.TASK_END, task=name))
                if self.tracer.enabled:
                    self.tracer.event(
                        "sim_task",
                        task=name,
                        start=start,
                        exec_start=exec_start,
                        finish=finish,
                        processors=list(procs),
                    )
                    for u, xfer in xfers:
                        if xfer > 0:
                            self.tracer.event(
                                "sim_transfer",
                                edge=[u, name],
                                start=done[u].finish,
                                finish=done[u].finish + xfer,
                                processors=list(procs),
                            )
                if self.metrics is not None:
                    self.metrics.observe(
                        "sim_task_seconds", finish - start,
                        buckets=SIM_BUCKETS,
                        help="simulated task durations (incl. inbound comm)",
                    )
                    for _u, xfer in xfers:
                        if xfer > 0:
                            self.metrics.observe(
                                "sim_transfer_seconds", xfer,
                                buckets=SIM_BUCKETS,
                                help="simulated redistribution durations",
                            )
            if not progressed:
                raise SimulationError(
                    f"deadlock replaying schedule: {sorted(pending)!r} cannot "
                    f"be dispatched (plan order conflicts with precedence?)"
                )

        events.sort(key=lambda e: (e.time, e.kind.value))
        makespan = max(t.finish for t in done.values()) if done else 0.0
        return SimulationReport(
            scheduler=schedule.scheduler,
            makespan=makespan,
            tasks=done,
            events=events,
            planned_makespan=schedule.makespan,
        )
