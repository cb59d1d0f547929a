"""The five benchmark workloads and their correctness checks.

Each workload builds its inputs from ``--seed`` in ``__init__`` (the
set-up the benchmark times as ``setup_s``) and then hands out *ops*: an
untimed preparation, a timed ``run`` and an untimed ``check``. The
benchmark repeats ops until its time budget is spent; op ``i`` always
gets the same input for the same seed.

Why each workload exists is recorded on the class (``why``) and in
``bench/README.md``.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.cache import CachedScheduleService, ScheduleCache
from repro.cluster import MYRINET_2GBPS, Cluster
from repro.graph import TaskGraph
from repro.online.admission import AdmissionPolicy
from repro.online.arrivals import poisson_zipf_stream
from repro.online.daemon import OnlineSchedulerDaemon
from repro.perf.cachebench import perturb_graph
from repro.perf.golden import schedule_digest
from repro.perf.hotpath import deep_dag, wide_dag
from repro.schedule import Schedule
from repro.schedule.validation import validate_schedule
from repro.schedulers.locbs import LocbsOptions, locbs_schedule
from repro.schedulers.locmps import LocMpsScheduler
from repro.utils.rng import as_generator
from repro.workloads.strassen import strassen_graph
from repro.workloads.tce import ccsd_t1_graph

__all__ = ["WORKLOADS", "Checked", "Op", "Workload"]


@dataclass
class Checked:
    """What one op's check found."""

    #: op latencies in seconds (one per schedule call, job or request)
    samples: List[float]
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: digest per input key, for ``bench/expected.json``
    digests: Dict[str, str] = field(default_factory=dict)
    #: busy spans on the largest chart the op produced
    chart_spans: int = 0
    #: public counters read off the outputs, summed over a run
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    run: Callable[[], Any]
    #: ``check(output, wall_s, pinned)``, called only when ``run`` returned
    check: Callable[[Any, float, Dict[str, str]], Checked]
    #: ops the run attempts (all reported failed when ``run`` raises, e.g.
    #: when the daemon's verify audit fails)
    attempted: int = 1


def _seq(seed: int, i: int) -> np.random.SeedSequence:
    """Seed of input *i* of a stream: independent of how many came before."""
    return np.random.SeedSequence([seed, i])


def _chart_spans(placements: Any) -> int:
    """Busy spans a set of placements leaves on the chart (one per processor)."""
    return sum(len(p.processors) for p in placements if p.finish > p.start)


def check_schedule(
    key: str,
    graph: TaskGraph,
    schedule: Schedule,
    cluster: Cluster,
    backfill: bool,
    pinned: Dict[str, str],
    out: Checked,
) -> None:
    """Validate one LoC-MPS schedule and compare its digest.

    The digest must equal the pinned one when ``bench/expected.json`` has
    it; always, it must equal the digest of a fresh LoCBS pass over the
    schedule's own allocation (LoCBS is deterministic per allocation, so
    a mismatch means the look-ahead memo or cost cache went stale).
    """
    digest = schedule_digest(schedule)
    out.digests[key] = digest
    problems = validate_schedule(schedule, graph, collect=True)
    replay = locbs_schedule(
        graph, cluster, schedule.allocation(), LocbsOptions(backfill=backfill)
    )
    if schedule_digest(replay.schedule) != digest:
        problems.append("schedule differs from a LoCBS replay of its allocation")
    if key in pinned and pinned[key] != digest:
        problems.append(f"digest {digest[:12]} != pinned {pinned[key][:12]}")
    if problems:
        out.failed += 1
        out.problems += [f"{key}: {p}" for p in problems]
    out.chart_spans = max(out.chart_spans, _chart_spans(schedule))


def _myrinet(procs: int) -> Cluster:
    return Cluster(num_processors=procs, bandwidth=MYRINET_2GBPS, name=f"myrinet-{procs}")


class Workload:
    """Inputs of one workload, built from a seed, and its ops."""

    name = ""
    why = ""
    default_seed = 0
    SIZES: Dict[str, Dict[str, Any]] = {}

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.size = self.SIZES[scale]

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def new_pass(self) -> None:
        """Reset mutable state, so that a second pass replays the same ops."""

    def close(self) -> None:
        """Remove whatever the workload wrote."""

    def layer_counters(self) -> Dict[str, float]:
        """Public counters of long-lived objects, read after a traced pass."""
        return {}

    def expected_key(self) -> str:
        """Key of this input's pinned digests in ``bench/expected.json``."""
        return f"{self.name}/{self.scale}/{self.seed}"


# -- wide / deep: streams of synthetic graphs ------------------------------------


class _GraphStream(Workload):
    """One LoC-MPS ``schedule`` call per op, on graph *i* of the stream."""

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.cluster = _myrinet(self.size["procs"])
        self._first = self.graph(0)

    def graph(self, i: int) -> TaskGraph:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        graph = self._first if i == 0 else self.graph(i)
        scheduler = LocMpsScheduler(look_ahead_depth=self.size["look_ahead"])

        def check(schedule: Any, wall: float, pinned: Dict[str, str]) -> Checked:
            out = Checked(samples=[wall], attempted=1)
            check_schedule(str(i), graph, schedule, self.cluster, True, pinned, out)
            return out

        return Op(run=lambda: scheduler.schedule(graph, self.cluster), check=check)


class Wide(_GraphStream):
    name = "wide"
    why = (
        "fork-join DAGs far wider than the machine: LoCBS placement and the "
        "hole-probe ladder do most of the work (default seed 11)"
    )
    default_seed = 11
    SIZES = {
        "full": {"tasks": 16, "procs": 8, "look_ahead": 2},
        "smoke": {"tasks": 8, "procs": 4, "look_ahead": 2},
    }

    def graph(self, i: int) -> TaskGraph:
        return wide_dag(self.size["tasks"], seed=_seq(self.seed, i), name=f"wide-{i}")


class Deep(_GraphStream):
    name = "deep"
    why = (
        "layered DAGs with long critical paths: many short look-ahead steps, "
        "and over a third of transfer pricings miss the cost cache (default seed 12)"
    )
    default_seed = 12
    SIZES = {
        "full": {"depth": 4, "width": 3, "procs": 12, "look_ahead": 2},
        "smoke": {"depth": 3, "width": 2, "procs": 4, "look_ahead": 2},
    }

    def graph(self, i: int) -> TaskGraph:
        return deep_dag(
            self.size["depth"], self.size["width"], seed=_seq(self.seed, i),
            name=f"deep-{i}",
        )


# -- apps: the paper's application DAGs -------------------------------------------


class Apps(Workload):
    """One op = the four schedule calls of a round, timed together."""

    name = "apps"
    why = (
        "the paper's Strassen and CCSD T1 DAGs with and without backfill, at its "
        "look-ahead depth 20: many short passes, so per-pass fixed costs dominate (seed-independent)"
    )
    SIZES = {
        # look-ahead 20 is LocMpsScheduler's default and the paper's. A
        # CCSD call alone takes ~1,100 allocation steps (1.6 s) at P=4 and
        # ~780 at P=3, where a round of four calls takes ~1.9 s. P=2 would
        # halve that, but there the no-backfill Strassen schedule depends
        # on PYTHONHASHSEED (two makespans 1 ulp apart), so no digest holds
        "full": {"strassen_n": 1024, "o": 8, "v": 24, "procs": 3, "look_ahead": 20},
        "smoke": {"strassen_n": 256, "o": 4, "v": 10, "procs": 4, "look_ahead": 2},
    }

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.cluster = _myrinet(self.size["procs"])
        graphs = [
            strassen_graph(self.size["strassen_n"]),
            ccsd_t1_graph(o=self.size["o"], v=self.size["v"]),
        ]
        self.cases = [
            (f"{g.name}/{'backfill' if bf else 'nobackfill'}", g, bf)
            for g in graphs
            for bf in (True, False)
        ]

    def expected_key(self) -> str:
        return f"apps/{self.scale}"

    def op(self, i: int) -> Op:
        schedulers = [
            LocMpsScheduler(look_ahead_depth=self.size["look_ahead"], backfill=bf)
            for _, _, bf in self.cases
        ]

        def run() -> List[Schedule]:
            return [
                s.schedule(g, self.cluster) for s, (_, g, _) in zip(schedulers, self.cases)
            ]

        def check(schedules: Any, wall: float, pinned: Dict[str, str]) -> Checked:
            out = Checked(samples=[wall], attempted=len(self.cases))
            for schedule, (key, g, bf) in zip(schedules, self.cases):
                check_schedule(key, g, schedule, self.cluster, bf, pinned, out)
            return out

        return Op(run=run, check=check, attempted=len(self.cases))


# -- online: the daemon over Poisson/Zipf job streams --------------------------------


class Online(Workload):
    """One op = one daemon run over a fresh stream; samples = submit latencies."""

    name = "online"
    why = (
        "Poisson/Zipf job streams into the online daemon: hole scans on one "
        "long-lived chart interleaved with reserves (default seed 2006)"
    )
    default_seed = 2006
    SIZES = {
        "full": {"jobs": 1000, "procs": 32, "rate": 0.06},
        "smoke": {"jobs": 30, "procs": 8, "rate": 0.06},
    }

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.cluster = Cluster(self.size["procs"], bandwidth=1e8)
        self._first: Optional[list] = self.jobs(0)
        self.new_pass()

    def new_pass(self) -> None:
        #: widths per template name, kept across the streams of a pass
        self.widths: Dict[str, Dict[str, int]] = {}

    def allocate(self, template: TaskGraph, cluster: Cluster) -> Dict[str, int]:
        """The daemon's default allocation (LoC-MPS), once per template.

        A long-lived daemon decides each template's widths once; here
        every stream gets a fresh daemon and chart, so the widths are
        kept outside it. Only the first stream of a run pays for them,
        and the timed work is the daemon's event loop.
        """
        widths = self.widths.get(template.name)
        if widths is None:
            widths = LocMpsScheduler().schedule(template, cluster).allocation()
            self.widths[template.name] = widths
        return widths

    def jobs(self, i: int) -> list:
        return poisson_zipf_stream(
            n_jobs=self.size["jobs"], rate=self.size["rate"], seed=_seq(self.seed, i)
        )

    def op(self, i: int) -> Op:
        # the daemon writes placements into the jobs, so a stream is used
        # once; the one built during set-up serves the first op only
        jobs = self._first if i == 0 and self._first is not None else self.jobs(i)
        self._first = None
        daemon = OnlineSchedulerDaemon(
            self.cluster,
            admission=AdmissionPolicy(max_backlog=4000.0),
            allocator=self.allocate,
            differential=False,
            verify=True,
        )

        def check(report: Any, wall: float, pinned: Dict[str, str]) -> Checked:
            out = Checked(
                samples=list(report.event_latencies.get("JOB_SUBMIT", [])),
                attempted=len(jobs),
            )
            unplaced = [j.job_id for j in jobs if not j.placements]
            out.failed = len(unplaced)
            if unplaced:
                out.problems.append(f"stream {i}: {len(unplaced)} jobs not placed")
            if sum(out.samples) > wall:
                # the daemon's own latency accounting must fit in the wall
                # time the benchmark measured around daemon.run
                out.failed = len(jobs)
                out.problems.append(f"stream {i}: submit latencies exceed the run's wall time")
            placements = [p for j in jobs for p in j.placements]
            digest = schedule_digest(placements)
            out.digests[str(i)] = digest
            if str(i) in pinned and pinned[str(i)] != digest:
                out.failed = len(jobs)
                out.problems.append(f"stream {i}: digest {digest[:12]} != pinned")
            out.chart_spans = _chart_spans(placements)
            out.counters = {"deferred": report.deferred, "rejected": report.rejected}
            return out

        return Op(run=lambda: daemon.run(jobs), check=check, attempted=len(jobs))


# -- cache: Zipf requests through the cached scheduling service ----------------------


class Cache(Workload):
    """One op = one ``CachedScheduleService.schedule`` request."""

    name = "cache"
    why = (
        "Zipf request streams over a fixed pool of graphs and perturbed neighbours "
        "through the two-tier schedule cache: hits, disk promotions, warm starts (default seed 2006)"
    )
    default_seed = 2006
    SIZES = {
        # capacity 8 keeps two thirds of the hits in memory, so the median
        # request is a memory hit and the tail a disk promotion
        "full": {"graphs": 8, "tasks": 16, "procs": 8, "look_ahead": 4, "capacity": 8},
        "smoke": {"graphs": 3, "tasks": 8, "procs": 4, "look_ahead": 2, "capacity": 2},
    }
    #: requests drawn up front; ops past the end wrap around
    REQUESTS = 200_000

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.cluster = _myrinet(self.size["procs"])
        # The pool is the same for every seed, which draws only the request
        # stream: with a pool per seed, most of the spread of request
        # latency between runs came from the seed (two runs of one seed
        # correlated 0.9).
        self.pool: List[TaskGraph] = []
        for i in range(self.size["graphs"]):
            g = wide_dag(self.size["tasks"], seed=_seq(self.default_seed, i), name=f"cache-{i}")
            self.pool += [g, perturb_graph(g, count=2)]
        rng = as_generator(seed)
        self.requests = (rng.zipf(1.3, self.REQUESTS) - 1) % len(self.pool)
        workdir.mkdir(parents=True, exist_ok=True)
        self._workdir = Path(tempfile.mkdtemp(prefix="cache-work-", dir=workdir))
        self._passes = 0
        self.new_pass()

    def new_pass(self) -> None:
        """A cold cache over an empty directory, so every pass is a replay."""
        cache_dir = self._workdir / f"pass{self._passes}"
        self._passes += 1
        self.cache = ScheduleCache(capacity=self.size["capacity"], cache_dir=cache_dir)
        self.service = CachedScheduleService(
            self.cache, scheme="locmps",
            scheduler_options={"look_ahead_depth": self.size["look_ahead"]},
        )
        #: fingerprint -> digest of the schedule it was first served with
        self.served: Dict[str, str] = {}

    def close(self) -> None:
        shutil.rmtree(self._workdir, ignore_errors=True)

    def layer_counters(self) -> Dict[str, float]:
        stats = self.cache.stats
        cache_dir = self.cache.cache_dir
        return {
            "hits": stats["hits"],
            "memory_hits": stats["memory_hits"],
            "disk_hits": stats["disk_hits"],
            "evictions": stats["evictions"],
            "disk_entries": self.cache.disk_size(),
            "disk_bytes": sum(p.stat().st_size for p in cache_dir.glob("*.json")),
            "warm": self.service.stats["warm"],
            "cold": self.service.stats["cold"],
        }

    def op(self, i: int) -> Op:
        index = int(self.requests[i % self.REQUESTS])
        graph = self.pool[index]

        def check(res: Any, wall: float, pinned: Dict[str, str]) -> Checked:
            out = Checked(samples=[wall], attempted=1)
            digest = schedule_digest(res.schedule)
            first = self.served.setdefault(res.fingerprint, digest)
            problems: List[str] = []
            if res.outcome == "hit":
                if first != digest:
                    problems.append("hit differs from the first-served schedule")
            else:
                out.digests[str(index)] = digest
                out.chart_spans = _chart_spans(res.schedule)
                problems += validate_schedule(res.schedule, graph, collect=True)
                if str(index) in pinned and pinned[str(index)] != digest:
                    problems.append(f"digest {digest[:12]} != pinned")
            if problems:
                out.failed = 1
                out.problems += [f"request {i} (graph {index}): {p}" for p in problems]
            return out

        return Op(run=lambda: self.service.schedule(graph, self.cluster), check=check)


WORKLOADS: Dict[str, type] = {w.name: w for w in (Wide, Deep, Apps, Online, Cache)}
