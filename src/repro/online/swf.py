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
:func:`jobs_from_swf` models it as a single-task graph whose profile is a
two-point table ``{1: r*w, w: r}`` (work-conserving linear scaling down
to one processor; the table's step-wise rule pins every width in
``[w, P]`` to runtime ``r``), with the allocation preset to ``w`` — the
daemon's allocator is bypassed and the trace replays at its recorded
widths, clamped to the target machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Union

from repro.cluster import Cluster
from repro.exceptions import ScheduleError
from repro.graph import TaskGraph
from repro.online.jobs import Job
from repro.speedup import ExecutionProfile

__all__ = ["SwfJob", "parse_swf", "jobs_from_swf"]


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
        task = f"{job_id}/work"
        graph.add_task(task, profile)
        jobs.append(
            Job(
                job_id=job_id,
                template="swf",
                graph=graph,
                template_graph=graph,
                arrival=rec.submit,
                allocation={task: width},
            )
        )
    return jobs
