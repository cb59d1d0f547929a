"""On-line rescheduling framework (the paper's future-work extension)."""

import math

import pytest

from repro import Cluster, TaskGraph
from repro.exceptions import ScheduleError
from repro.schedulers import LocMpsScheduler, locbs_schedule
from repro.schedulers.context import ExternalInput, SchedulingContext
from repro.sim import LognormalNoise, NoNoise, OnlineRescheduler
from repro.speedup import ExecutionProfile, LinearSpeedup

from tests.helpers import build_random_graph


class TestSchedulingContext:
    def test_defaults(self):
        ctx = SchedulingContext()
        assert ctx.ready_time(3) == 0.0
        assert ctx.inputs_for("x") == ()

    def test_external_input_validation(self):
        with pytest.raises(ScheduleError):
            ExternalInput(ready_time=1.0, processors=(), volume=0.0)
        with pytest.raises(ScheduleError):
            ExternalInput(ready_time=1.0, processors=(0,), volume=-1.0)
        with pytest.raises(ScheduleError):
            ExternalInput(ready_time=-1.0, processors=(0,), volume=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_external_input_rejects_non_finite(self, bad):
        with pytest.raises(ScheduleError, match="^ready time"):
            ExternalInput(ready_time=bad, processors=(0,), volume=1.0)
        with pytest.raises(ScheduleError, match="^external volume"):
            ExternalInput(ready_time=1.0, processors=(0,), volume=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_context_rejects_non_finite_release_floor(self, bad):
        with pytest.raises(ScheduleError, match="^release floor"):
            SchedulingContext(release_floor=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_context_rejects_bad_processor_ready(self, bad):
        with pytest.raises(ScheduleError, match="processor 1 ready time"):
            SchedulingContext(processor_ready={0: 2.0, 1: bad})

    def test_locbs_respects_processor_ready(self):
        g = TaskGraph()
        g.add_task("A", ExecutionProfile(LinearSpeedup(), 4.0))
        cl = Cluster(num_processors=2)
        ctx = SchedulingContext(processor_ready={0: 10.0, 1: 10.0})
        res = locbs_schedule(g, cl, {"A": 2}, context=ctx)
        assert res.schedule["A"].start >= 10.0 - 1e-9

    def test_locbs_respects_external_data(self):
        g = TaskGraph()
        g.add_task("B", ExecutionProfile(LinearSpeedup(), 4.0))
        cl = Cluster(num_processors=4, bandwidth=10.0)
        ctx = SchedulingContext(
            external_inputs={
                "B": [
                    ExternalInput(
                        ready_time=5.0, processors=(0, 1), volume=100.0,
                        label="A",
                    )
                ]
            }
        )
        res = locbs_schedule(g, cl, {"B": 2}, context=ctx)
        placed = res.schedule["B"]
        # B lands on the data's processors (locality) and waits for it
        assert placed.processors == (0, 1)
        assert placed.exec_start >= 5.0 - 1e-9

    def test_external_transfer_paid_when_elsewhere(self):
        g = TaskGraph()
        g.add_task("B", ExecutionProfile(LinearSpeedup(), 4.0))
        cl = Cluster(num_processors=4, bandwidth=10.0)
        ctx = SchedulingContext(
            processor_ready={0: 1e9, 1: 1e9},  # data's home is unavailable
            external_inputs={
                "B": [ExternalInput(5.0, (0, 1), 100.0, label="A")]
            },
        )
        res = locbs_schedule(g, cl, {"B": 2}, context=ctx)
        placed = res.schedule["B"]
        assert set(placed.processors) == {2, 3}
        # all 100 bytes cross at min(2,2)*10 B/s: 5s transfer after ready
        assert placed.exec_start == pytest.approx(10.0)

    def test_locmps_accepts_context(self):
        g = build_random_graph(6, 0)
        cl = Cluster(num_processors=4)
        ctx = SchedulingContext(processor_ready={0: 3.0})
        s = LocMpsScheduler(context=ctx).schedule(g, cl)
        for placed in s:
            if 0 in placed.processors:
                assert placed.start >= 3.0 - 1e-9


class TestOnlineRescheduler:
    def test_rejects_bad_threshold(self):
        g = build_random_graph(4, 0)
        with pytest.raises(ValueError):
            OnlineRescheduler(g, Cluster(num_processors=2), deviation_threshold=0)

    def test_no_noise_no_replans(self):
        g = build_random_graph(10, 1)
        cl = Cluster(num_processors=4)
        report = OnlineRescheduler(g, cl, noise=NoNoise()).run()
        assert report.replans == 0
        assert set(report.tasks) == set(g.tasks())
        assert report.makespan > 0

    def test_noise_triggers_replans(self):
        g = build_random_graph(12, 3)
        cl = Cluster(num_processors=6)
        report = OnlineRescheduler(
            g, cl, noise=LognormalNoise(0.4, 0.4), seed=2,
            deviation_threshold=0.05,
        ).run()
        assert report.replans >= 1
        assert set(report.tasks) == set(g.tasks())

    def test_realized_execution_is_consistent(self):
        # check_realized runs inside run(); reaching here means the online
        # execution respected precedence and processor exclusivity
        g = build_random_graph(10, 5)
        cl = Cluster(num_processors=4)
        report = OnlineRescheduler(
            g, cl, noise=LognormalNoise(0.3, 0.3), seed=7,
            deviation_threshold=0.1,
        ).run()
        assert math.isfinite(report.makespan)
        assert math.isfinite(report.static_makespan)
        assert report.improvement_over_static > 0

    def test_deterministic_by_seed(self):
        g = build_random_graph(10, 5)
        cl = Cluster(num_processors=4)
        kw = dict(noise=LognormalNoise(0.3, 0.3), seed=9, deviation_threshold=0.1)
        a = OnlineRescheduler(g, cl, **kw).run()
        b = OnlineRescheduler(g, cl, **kw).run()
        assert a.makespan == pytest.approx(b.makespan)
        assert a.replans == b.replans

    def test_max_replans_cap(self):
        g = build_random_graph(12, 3)
        cl = Cluster(num_processors=6)
        report = OnlineRescheduler(
            g, cl, noise=LognormalNoise(0.5, 0.5), seed=2,
            deviation_threshold=0.01, max_replans=1,
        ).run()
        assert report.replans <= 1
        assert set(report.tasks) == set(g.tasks())

    def test_no_overlap_mode(self):
        g = build_random_graph(8, 4)
        cl = Cluster(num_processors=4, overlap=False)
        report = OnlineRescheduler(
            g, cl, noise=LognormalNoise(0.2, 0.2), seed=3,
            deviation_threshold=0.1,
        ).run()
        assert set(report.tasks) == set(g.tasks())


class TestWarmStartObservability:
    def test_replan_warm_starts_reach_the_registry(self):
        from repro.obs import Tracer
        from repro.obs.registry import registry_from_events

        tracer = Tracer()
        g = build_random_graph(12, 3)
        cl = Cluster(num_processors=6)
        report = OnlineRescheduler(
            g, cl, noise=LognormalNoise(0.4, 0.4), seed=2,
            deviation_threshold=0.05, warm_start=True, tracer=tracer,
        ).run()
        assert report.replans >= 1
        warm = [e for e in tracer.events if e.name == "cache_warm_start"]
        assert warm, "replans emitted no warm-start telemetry"
        rendered = registry_from_events(tracer.events).render()
        assert "cache_warm_starts" in rendered


class TestImprovementOverStatic:
    """Both branches of ``OnlineReport.improvement_over_static``.

    The property used to divide by an unset (``nan``) static makespan and
    silently poison downstream aggregates; now it returns ``None`` when no
    static baseline was computed and the true ratio otherwise.
    """

    def test_none_when_static_replay_skipped(self):
        g = build_random_graph(8, 2)
        cl = Cluster(num_processors=4)
        report = OnlineRescheduler(g, cl, noise=NoNoise()).run(
            compare_static=False
        )
        assert report.static_makespan is None
        assert report.improvement_over_static is None

    def test_ratio_when_static_present(self):
        g = build_random_graph(8, 2)
        cl = Cluster(num_processors=4)
        report = OnlineRescheduler(g, cl, noise=NoNoise()).run(
            compare_static=True
        )
        assert report.static_makespan is not None
        assert math.isfinite(report.static_makespan)
        ratio = report.improvement_over_static
        assert ratio == pytest.approx(report.static_makespan / report.makespan)
        # never nan: the property either returns None or a real ratio
        assert not math.isnan(ratio)
