"""Tracing and explaining leave every golden schedule unchanged.

``tests/golden/scheduler_golden.json`` pins each registry scheduler's
schedules from untraced runs. Here every scheduler reruns the same
cases with a live :class:`~repro.obs.Tracer` assigned, and the LoC-MPS
family runs once more with ``explain=True`` as well, and each schedule
must match the stored fingerprint.
"""

import json

import pytest

from repro.obs import Tracer
from repro.perf.golden import GOLDEN_PATH, golden_cases, schedule_digest
from repro.schedulers.locmps import LocMpsScheduler
from repro.schedulers.registry import SCHEDULERS


def _fingerprint(schedule):
    return {"makespan": repr(schedule.makespan), "digest": schedule_digest(schedule)}


@pytest.mark.slow
def test_traced_and_explained_runs_match_golden_file():
    stored = json.loads(GOLDEN_PATH.read_text())["cases"]
    checked = 0
    for case_id, graph, cluster in golden_cases():
        for name in sorted(SCHEDULERS):
            want = stored[case_id][name]
            traced = SCHEDULERS[name]()
            traced.tracer = Tracer()
            assert _fingerprint(traced.schedule(graph, cluster)) == want, (
                f"{case_id}/{name} traced"
            )
            checked += 1
            if not isinstance(traced, LocMpsScheduler):
                continue
            assert traced.tracer.events
            explained = SCHEDULERS[name]()
            explained.tracer = Tracer()
            explained.explain = True
            assert _fingerprint(explained.schedule(graph, cluster)) == want, (
                f"{case_id}/{name} traced and explained"
            )
            assert explained.provenance is not None
            checked += 1
    assert checked > len(SCHEDULERS)
