"""Standard Workload Format (SWF) trace ingestion.

SWF is the archival format of the Parallel Workloads Archive: one job per
line, 18 whitespace-separated fields, ``;`` comment lines. The importer
reads the four fields the daemon needs —

========  =====================================
field  1  job number
field  2  submit time (seconds)
field  4  run time (seconds)
field  5  number of allocated processors
field  8  requested number of processors
========  =====================================

— preferring the *requested* processor count when positive (the
allocated count reflects the original system's scheduler, not the job),
and skips unusable records (non-positive run time or width, e.g. the
``-1`` markers for cancelled jobs).

Each SWF job is **rigid**: it ran at one width ``w`` with runtime ``r``.
:func:`jobs_from_swf` models it as its own one-task template ``"work"``
whose profile is a two-point table ``{1: r*w, w: r}`` (work-conserving
linear scaling down to one processor; the table's step-wise rule pins
every width in ``[w, P]`` to runtime ``r``), with its widths preset to
``{"work": w}`` — the daemon's allocator is bypassed and the trace
replays at its recorded widths, clamped to the target machine. The
placement is named ``"swf<id>/work"``.

:func:`synthetic_swf_text` renders a deterministic heavy-tailed trace in
the same format, for replays and tests that need no archive file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Union

from repro.cluster import Cluster
from repro.exceptions import ScheduleError, WorkloadError
from repro.graph import TaskGraph
from repro.online.jobs import Job
from repro.speedup import ExecutionProfile
from repro.utils.rng import as_generator

__all__ = ["SwfJob", "parse_swf", "jobs_from_swf", "synthetic_swf_text"]


@dataclass(frozen=True)
class SwfJob:
    """One usable SWF record."""

    job_id: str
    submit: float
    run_time: float
    processors: int


def parse_swf(source: Union[str, Iterable[str]]) -> List[SwfJob]:
    """Parse SWF text (or an iterable of lines) into usable job records.

    Comment (``;``) and blank lines are skipped, as are records whose run
    time or processor count is not positive. Jobs are returned in file
    order; submit times are taken as-is (SWF traces are already offset to
    start near 0).
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source
    out: List[SwfJob] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        fields = line.split()
        if len(fields) < 8:
            raise ScheduleError(
                f"SWF line {lineno}: expected >= 8 fields, got {len(fields)}"
            )
        try:
            job_id = fields[0]
            submit = float(fields[1])
            run_time = float(fields[3])
            # int() raises ValueError on nan and OverflowError on inf
            allocated = int(float(fields[4]))
            requested = int(float(fields[7]))
        except (ValueError, OverflowError) as exc:
            raise ScheduleError(f"SWF line {lineno}: unparsable field") from exc
        if not (math.isfinite(submit) and math.isfinite(run_time)):
            raise ScheduleError(f"SWF line {lineno}: non-finite field")
        procs = requested if requested > 0 else allocated
        if run_time <= 0 or procs <= 0:
            continue
        if submit < 0:
            submit = 0.0
        out.append(
            SwfJob(
                job_id=job_id, submit=submit, run_time=run_time, processors=procs
            )
        )
    return out


def jobs_from_swf(
    source: Union[str, Iterable[str]],
    cluster: Cluster,
    *,
    max_jobs: Optional[int] = None,
) -> List[Job]:
    """Daemon-ready :class:`Job` stream from an SWF trace.

    Widths are clamped to the cluster size; ``max_jobs`` truncates the
    trace (useful for smoke replays of archive-scale files).
    """
    records = parse_swf(source)
    if max_jobs is not None:
        records = records[:max_jobs]
    jobs: List[Job] = []
    for rec in records:
        width = min(rec.processors, cluster.num_processors)
        if width > 1:
            profile = ExecutionProfile.from_table(
                {1: rec.run_time * width, width: rec.run_time}
            )
        else:
            profile = ExecutionProfile.from_table({1: rec.run_time})
        job_id = f"swf{rec.job_id}"
        graph = TaskGraph(f"{job_id}/rigid")
        graph.add_task("work", profile)
        jobs.append(
            Job(
                job_id=job_id,
                template="swf",
                template_graph=graph,
                arrival=rec.submit,
                widths={"work": width},
            )
        )
    return jobs


def synthetic_swf_text(
    *, n_jobs: int, max_width: int, seed: int = 0, mean_interarrival: float = 45.0
) -> str:
    """A deterministic SWF trace: heavy-tailed rigid jobs.

    Runtimes are lognormal (median ~5 min, occasional hour-long tails),
    widths are powers of two up to *max_width* (small widths more
    likely), inter-arrivals exponential. Rendered as real 18-field SWF
    lines so the importer parses it exactly like an archive trace.
    Raises :class:`WorkloadError` if *n_jobs* < 0 or *max_width* < 1.
    """
    if n_jobs < 0:
        raise WorkloadError(f"n_jobs must be >= 0, got {n_jobs!r}")
    if max_width < 1:
        raise WorkloadError(f"max_width must be >= 1, got {max_width!r}")
    rng = as_generator(seed)
    widths = []
    w = 1
    while w <= max_width:
        widths.append(w)
        w *= 2
    lines = [
        "; synthetic SWF trace (repro.online.swf)",
        f"; MaxProcs: {max_width}",
    ]
    now = 0.0
    for i in range(1, n_jobs + 1):
        now += float(rng.exponential(mean_interarrival))
        run_time = max(1.0, float(rng.lognormal(mean=5.7, sigma=1.0)))
        # skew toward narrow jobs: rank k gets weight 1/(k+1)
        u = float(rng.random())
        acc, total = 0.0, sum(1.0 / (k + 1) for k in range(len(widths)))
        width = widths[-1]
        for k, cand in enumerate(widths):
            acc += (1.0 / (k + 1)) / total
            if u <= acc:
                width = cand
                break
        lines.append(
            f"{i} {now:.0f} 0 {run_time:.0f} {width} -1 -1 {width} "
            f"-1 -1 1 1 1 1 1 1 -1 -1"
        )
    return "\n".join(lines) + "\n"
