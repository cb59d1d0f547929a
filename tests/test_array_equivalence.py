"""Differential battery: production chart and kernels vs the frozen oracles.

The busy-interval chart (:mod:`repro.schedule.timeline`, per-row sorted
lists plus global boundary lists) and the numpy block-cyclic redistribution
kernels (:mod:`repro.redistribution`) claim *bit-identical* outputs — not
approximately equal, identical floats. This module holds that claim against
the seed scalar code preserved verbatim in
:mod:`repro.perf.scalar_oracles`:

* every registered scheduler's schedule, replayed placement by placement
  through both timeline implementations, must agree on every query (busy
  intervals, hole lists, release times, sweeps) over synthetic, Strassen,
  and tensor-contraction workloads;
* every redistribution the schedules imply must produce the same volume
  matrix and transfer times from both implementations;
* hypothesis fuzzes the same pairings on randomized reserve/query
  sequences and random block-cyclic layouts (derandomized, so CI is
  stable);
* the known edge cases — zero-duration tasks, back-to-back spans, empty
  processor sets, single-processor machines, sub-EPS chains of end times
  (chain collapse, not pairwise dedup), coprime layout sizes whose lcm
  period must never be materialized — are pinned explicitly;
* the LoCBS hole scan (``tau + et`` ladder break, lazy release ladder)
  runs against the frozen reference scan over the full registry and on
  adversarially tight fuzzed graphs (zero-volume parents, sub-EPS
  execution times, single-processor machines), asserting bit-identical
  schedules; traced runs must reproduce the untraced probe
  counters and the reference scan's placement events.
"""

from __future__ import annotations

import gc
import math
import os
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import MYRINET_2GBPS, Cluster
from repro.exceptions import RedistributionError, ScheduleError
from repro.graph import TaskGraph
from repro.perf.hotpath import deep_dag, wide_dag
from repro.obs import Tracer
from repro.perf.reference import (
    ReferenceLocMpsScheduler,
    locbs_schedule_reference,
    scan_blockers,
)
from repro.perf.scalar_oracles import (
    ScalarIdleSweep,
    ScalarProcessorTimeline,
    local_fraction_scalar,
    pair_fractions_scalar,
    single_port_time_scalar,
    transfer_time_scalar,
    volume_matrix_scalar,
)
from repro.redistribution import (
    RedistributionModel,
    locality_fraction,
    volume_matrix,
)
from repro.redistribution.blockcyclic import pair_fractions
from repro.schedule import (
    IdleSweep,
    ProcessorTimeline,
    Schedule,
    validate_schedule,
)
from repro.schedulers import (
    SCHEDULERS,
    get_scheduler,
    locmps,
    nobackfill,
    prasanna,
    task_parallel,
)
from repro.schedulers.context import ExternalInput, SchedulingContext
from repro.schedulers.costcache import CostCache
from repro.schedulers.locbs import (
    _PSEUDO_TOL,
    LocbsOptions,
    locbs_plan,
    locbs_schedule,
)
from repro.schedulers.locmps import LocMpsScheduler
from repro.schedulers.provenance import ProvenanceRecorder
from repro.speedup import AmdahlSpeedup, ExecutionProfile
from repro.utils.intervals import EPS
from repro.workloads.strassen import strassen_graph
from repro.workloads.tce import ccsd_t1_graph

# -- workloads ----------------------------------------------------------------
#
# One representative of each family the benchmark suites cover, sized so
# the full registry x workload product stays test-suite fast.

WORKLOADS = {
    "wide-synthetic": lambda: wide_dag(28, seed=11),
    "deep-synthetic": lambda: deep_dag(4, 5, seed=12),
    "strassen": lambda: strassen_graph(256),
    "ccsd-t1": lambda: ccsd_t1_graph(o=2, v=5),
}

SCHEDULER_NAMES = sorted(SCHEDULERS)

# scheduler modules that place through ``locbs_schedule``
_LOCBS_CALLERS = (locmps, nobackfill, prasanna, task_parallel)


def _cluster() -> Cluster:
    return Cluster(num_processors=8, bandwidth=MYRINET_2GBPS)


def _probe_times(scalar_tl: ScalarProcessorTimeline) -> list:
    """Every release time plus off-boundary midpoints and the origin."""
    releases = scalar_tl.release_times(-1.0)
    probes = [0.0] + releases
    probes += [(a + b) / 2 for a, b in zip(releases, releases[1:])]
    probes.append(scalar_tl.horizon() + 1.0)
    return sorted(set(probes))


def _assert_timelines_agree(
    array_tl: ProcessorTimeline, scalar_tl: ScalarProcessorTimeline
) -> None:
    """Exhaustive query-by-query comparison of the two chart implementations."""
    array_tl.check_invariants()  # also cross-checks rows vs global lists
    procs = array_tl.processors
    assert procs == scalar_tl.processors
    probes = _probe_times(scalar_tl)

    for p in procs:
        assert array_tl.busy_intervals(p) == scalar_tl.busy_intervals(p)
        assert array_tl.earliest_available(p) == scalar_tl.earliest_available(p)

    assert array_tl.horizon() == scalar_tl.horizon()
    assert array_tl.release_times(-1.0) == scalar_tl.release_times(-1.0)
    assert array_tl.boundary_times(-1.0) == scalar_tl.boundary_times(-1.0)

    for t in probes:
        assert array_tl.release_times(t) == scalar_tl.release_times(t)
        assert array_tl.idle_processors(t) == scalar_tl.idle_processors(t)
        assert sorted(array_tl.idle_with_horizon(t)) == sorted(
            scalar_tl.idle_with_horizon(t)
        ), f"hole list divergence at t={t}"
        for p in procs:
            assert array_tl.free_at(p, t) == scalar_tl.free_at(p, t)
            assert array_tl.free_until(p, t) == scalar_tl.free_until(p, t)

    # the incremental sweeps agree at every ascending probe
    sweep = IdleSweep(array_tl, probes[0])
    ref_sweep = ScalarIdleSweep(scalar_tl, probes[0])
    for t in probes:
        sweep.advance(t)
        ref_sweep.advance(t)
        assert sorted(sweep.free_pairs()) == sorted(ref_sweep.free_pairs())
        assert len(sweep) == len(ref_sweep)


def _replay(schedule, num_procs: int):
    """Commit a schedule's placements to both timeline implementations.

    Replay order is by (start, name) — deterministic and feasibility-safe,
    since committed placements never overlap on a processor.
    """
    array_tl = ProcessorTimeline(range(num_procs))
    scalar_tl = ScalarProcessorTimeline(range(num_procs))
    for p in sorted(schedule, key=lambda p: (p.start, p.name)):
        assert array_tl.is_free(p.processors, p.start, p.finish)
        assert scalar_tl.is_free(p.processors, p.start, p.finish)
        array_tl.reserve(p.processors, p.start, p.finish)
        scalar_tl.reserve(p.processors, p.start, p.finish)
    return array_tl, scalar_tl


# -- full registry x workloads ------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
class TestRegistryDifferential:
    def test_schedule_replay_and_redistribution_agree(self, name, workload):
        graph = WORKLOADS[workload]()
        cluster = _cluster()
        schedule = get_scheduler(name).schedule(graph, cluster)
        assert len(schedule) == len(list(graph.tasks()))

        # timeline differential over this scheduler's placement pattern
        array_tl, scalar_tl = _replay(schedule, cluster.num_processors)
        _assert_timelines_agree(array_tl, scalar_tl)

        # redistribution differential over this schedule's actual layouts
        model = RedistributionModel(cluster)
        bw = cluster.bandwidth
        for u, v in graph.edges():
            vol = graph.data_volume(u, v)
            src = schedule.processors_of(u)
            dst = schedule.processors_of(v)
            assert volume_matrix(src, dst, vol) == volume_matrix_scalar(
                src, dst, vol
            ), f"volume matrix divergence on edge {u}->{v}"
            assert model.transfer_time(src, dst, vol) == transfer_time_scalar(
                src, dst, vol, bw
            )
            assert model.single_port_time(
                src, dst, vol
            ) == single_port_time_scalar(src, dst, vol, bw)


class TestSchedulerDifferential:
    """Array-native LoC-MPS vs the frozen scalar reference scheduler."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("overlap", [True, False])
    def test_locmps_bit_identical_to_reference(self, workload, overlap):
        graph = WORKLOADS[workload]()
        cluster = Cluster(
            num_processors=8, bandwidth=MYRINET_2GBPS, overlap=overlap
        )
        fast = LocMpsScheduler(look_ahead_depth=4).schedule(graph, cluster)
        ref = ReferenceLocMpsScheduler(look_ahead_depth=4).schedule(
            graph, cluster
        )
        assert fast.makespan == ref.makespan
        rows = lambda s: sorted(
            (p.name, p.start, p.exec_start, p.finish, p.processors) for p in s
        )
        assert rows(fast) == rows(ref)
        assert fast.edge_comm_times == ref.edge_comm_times


# -- hypothesis fuzzing -------------------------------------------------------

fuzz_settings = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,  # seed-pinned: CI failures must be reproducible
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# quantized starts/durations manufacture exact end==start coincidences and
# EPS-tight abutments alongside generic floats
_starts = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda n: n / 2),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False, width=32),
)
_durs = st.one_of(
    st.integers(min_value=0, max_value=12).map(lambda n: n / 2),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False, width=32),
)


@st.composite
def _reserve_ops(draw, max_procs=8):
    num_procs = draw(st.integers(min_value=1, max_value=max_procs))
    ops = draw(
        st.lists(
            st.tuples(
                st.sets(
                    st.integers(min_value=0, max_value=num_procs - 1),
                    min_size=1,
                    max_size=num_procs,
                ),
                _starts,
                _durs,
            ),
            max_size=40,
        )
    )
    return num_procs, ops


class TestTimelineFuzz:
    @given(data=_reserve_ops())
    @fuzz_settings
    def test_random_reserve_and_query_sequences_agree(self, data):
        num_procs, ops = data
        array_tl = ProcessorTimeline(range(num_procs))
        scalar_tl = ScalarProcessorTimeline(range(num_procs))
        for procs, start, dur in ops:
            plist = sorted(procs)
            end = start + dur
            ok = scalar_tl.is_free(plist, start, end)
            assert array_tl.is_free(plist, start, end) == ok
            if ok:
                array_tl.reserve(plist, start, end)
                scalar_tl.reserve(plist, start, end)
            else:
                with pytest.raises(ScheduleError):
                    array_tl.reserve(plist, start, end)
                with pytest.raises(ScheduleError):
                    scalar_tl.reserve(plist, start, end)
        _assert_timelines_agree(array_tl, scalar_tl)

    @given(data=_reserve_ops(), base=_starts)
    @fuzz_settings
    def test_sweep_against_brute_force_holes(self, data, base):
        """The incremental sweep equals per-probe reclassification everywhere."""
        num_procs, ops = data
        array_tl = ProcessorTimeline(range(num_procs))
        for procs, start, dur in ops:
            plist = sorted(procs)
            if array_tl.is_free(plist, start, start + dur):
                array_tl.reserve(plist, start, start + dur)
        probes = sorted(
            {base}
            | set(array_tl.release_times(base))
            | {base + k * 0.75 for k in range(6)}
        )
        sweep = array_tl.idle_sweep(base)
        for t in probes:
            sweep.advance(t)
            assert sorted(sweep.free_pairs()) == sorted(
                array_tl.idle_with_horizon(t)
            ), f"sweep divergence at t={t}"


_layout = st.lists(
    st.integers(min_value=0, max_value=31), min_size=1, max_size=12, unique=True
).map(tuple)


class TestBlockCyclicFuzz:
    @given(src=_layout, dst=_layout)
    @fuzz_settings
    def test_pair_fractions_bit_identical_to_period_walk(self, src, dst):
        fast = dict(pair_fractions(src, dst))
        slow = pair_fractions_scalar(src, dst)
        assert fast == slow  # same keys AND the same floats
        assert sum(fast.values()) == pytest.approx(1.0, abs=1e-12)

    @given(src=_layout, dst=_layout, vol=st.floats(min_value=0.0, max_value=1e9))
    @fuzz_settings
    def test_volume_matrix_and_costs_match_scalar(self, src, dst, vol):
        assert volume_matrix(src, dst, vol) == volume_matrix_scalar(
            src, dst, vol
        )
        assert locality_fraction(src, dst) == local_fraction_scalar(src, dst)
        model = RedistributionModel(Cluster(num_processors=32, bandwidth=1e9))
        assert model.transfer_time(src, dst, vol) == transfer_time_scalar(
            src, dst, vol, 1e9
        )
        assert model.single_port_time(src, dst, vol) == single_port_time_scalar(
            src, dst, vol, 1e9
        )

    @given(src=_layout, dst=_layout, vol=st.floats(min_value=1.0, max_value=1e9))
    @fuzz_settings
    def test_row_and_column_sums_conserve_the_data(self, src, dst, vol):
        """Each source owns 1/p of the data, each destination receives 1/q."""
        mat = volume_matrix(src, dst, vol)
        p, q = len(src), len(dst)
        for s in src:
            row = sum(v for (sp, _), v in mat.items() if sp == s)
            assert row == pytest.approx(vol / p, rel=1e-12)
        for d in dst:
            col = sum(v for (_, dp), v in mat.items() if dp == d)
            assert col == pytest.approx(vol / q, rel=1e-12)
        assert sum(mat.values()) == pytest.approx(vol, rel=1e-12)

    @given(src=_layout)
    @fuzz_settings
    def test_identity_layout_round_trips(self, src):
        """src -> src moves nothing; src -> rotated(src) -> src is symmetric."""
        assert locality_fraction(src, src) == 1.0
        model = RedistributionModel(Cluster(num_processors=32, bandwidth=1e9))
        assert model.transfer_time(src, src, 1e6) == 0.0
        rot = src[1:] + src[:1]
        assert locality_fraction(src, rot) == locality_fraction(rot, src)
        assert volume_matrix(src, rot, 1e6) == {
            (b, a): v for (a, b), v in volume_matrix(rot, src, 1e6).items()
        }


# -- pinned edge cases --------------------------------------------------------


class TestTimelineEdgeCases:
    def test_zero_duration_reserve_is_a_noop(self):
        array_tl = ProcessorTimeline(range(2))
        scalar_tl = ScalarProcessorTimeline(range(2))
        for tl in (array_tl, scalar_tl):
            tl.reserve([0, 1], 3.0, 3.0)  # exactly empty
            tl.reserve([0], 5.0, 5.0 + 1e-12)  # within EPS of empty
        _assert_timelines_agree(array_tl, scalar_tl)
        assert array_tl.horizon() == 0.0
        assert array_tl.is_free([0, 1], 3.0, 4.0)

    def test_back_to_back_spans_share_a_boundary(self):
        array_tl = ProcessorTimeline(range(2))
        scalar_tl = ScalarProcessorTimeline(range(2))
        for tl in (array_tl, scalar_tl):
            tl.reserve([0], 0.0, 5.0)
            tl.reserve([0], 5.0, 10.0)  # abuts exactly
            tl.reserve([1], 10.0, 11.0)
        _assert_timelines_agree(array_tl, scalar_tl)
        # the shared edge at t=5 is busy on both implementations
        assert not array_tl.free_at(0, 5.0)
        assert not scalar_tl.free_at(0, 5.0)
        assert array_tl.earliest_available(0) == 10.0

    def test_overlapping_reserve_raises_identically(self):
        array_tl = ProcessorTimeline(range(2))
        scalar_tl = ScalarProcessorTimeline(range(2))
        for tl in (array_tl, scalar_tl):
            tl.reserve([0], 0.0, 5.0)
        with pytest.raises(ScheduleError) as fast_err:
            array_tl.reserve([0], 2.0, 3.0)
        with pytest.raises(ScheduleError) as slow_err:
            scalar_tl.reserve([0], 2.0, 3.0)
        assert str(fast_err.value) == str(slow_err.value)

    def test_empty_and_duplicate_processor_sets_rejected(self):
        for cls in (ProcessorTimeline, ScalarProcessorTimeline):
            with pytest.raises(ScheduleError):
                cls([])
            with pytest.raises(ScheduleError):
                cls([0, 1, 0])

    def test_single_processor_machine(self):
        array_tl = ProcessorTimeline([0])
        scalar_tl = ScalarProcessorTimeline([0])
        for tl in (array_tl, scalar_tl):
            tl.reserve([0], 1.0, 2.0)
            tl.reserve([0], 4.0, 6.0)
            tl.reserve([0], 2.0, 3.0)  # backfills the hole exactly
        _assert_timelines_agree(array_tl, scalar_tl)
        assert array_tl.idle_with_horizon(3.0) == [(0, 4.0)]
        assert array_tl.idle_with_horizon(6.0) == [(0, math.inf)]

    def test_eps_chain_keeps_the_end_pairwise_dedup_would_drop(self):
        """Ends 6e-10 apart chain-collapse to ``[1.0, 1.0 + 1.2e-9]``.

        Pairwise dedup would drop ``1.0 + 1.2e-9`` (within EPS of its
        neighbour); the chain collapse keeps it because it is more than
        EPS past the last *kept* end.
        """
        array_tl = ProcessorTimeline(range(3))
        scalar_tl = ScalarProcessorTimeline(range(3))
        ends = (1.0, 1.0 + 6e-10, 1.0 + 1.2e-9)
        for tl in (array_tl, scalar_tl):
            for p, end in enumerate(ends):
                tl.reserve([p], 0.0, end)
        assert array_tl._eps_chain
        assert scalar_tl.release_times(-1.0) == [1.0, 1.0 + 1.2e-9]
        for after in (-1.0, 0.0, 1.0 - EPS, 1.0, 1.0 + 6e-10, 2.0):
            eager = scalar_tl.release_times(after)
            assert array_tl.release_times(after) == eager
            assert list(array_tl.release_times_after(after)) == eager
            assert array_tl.release_count_after(after) == len(eager)
        assert array_tl.horizon() == scalar_tl.horizon() == 1.0 + 1.2e-9
        _assert_timelines_agree(array_tl, scalar_tl)


def _stdout_under_hash_seeds(script: str, seeds) -> list:
    """Run *script* in a fresh interpreter per ``PYTHONHASHSEED``."""
    outs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return outs


class TestBenchmarkGraphDeterminism:
    def test_deep_dag_edge_order_is_hash_seed_independent(self):
        """The benchmark DAGs must be identical in every Python process.

        ``deep_dag`` once deduped each task's parents through a *set of
        strings*, so the edge insertion order — and, through tie-breaking,
        every benchmark schedule — varied with PYTHONHASHSEED. Build the
        graph under two different hash seeds and require the exact same
        edge sequence.
        """
        script = (
            "from repro.perf.hotpath import deep_dag, wide_dag\n"
            "g = deep_dag(4, 3, seed=12)\n"
            "print(repr(g.edges()))\n"
            "print(repr(wide_dag(8, seed=11).edges()))\n"
        )
        outs = _stdout_under_hash_seeds(script, ("1", "2"))
        assert outs[0] == outs[1], "edge order depends on PYTHONHASHSEED"

    def test_concurrency_ratio_and_locmps_are_hash_seed_independent(self):
        """``cr(t)`` sums a *set* of tasks, whose order follows the hash seed.

        A plain float sum over that set could differ in the last ulp
        between processes, which was enough to flip LoC-MPS candidate
        selection on ``strassen_graph(1024)`` at P=2. The ratio table and
        the resulting schedule must be identical under every hash seed.
        """
        script = (
            "from repro.cluster import MYRINET_2GBPS, Cluster\n"
            "from repro.graph import concurrency_ratio\n"
            "from repro.perf.golden import schedule_digest\n"
            "from repro.schedulers.locmps import LocMpsScheduler\n"
            "from repro.workloads.strassen import strassen_graph\n"
            "g = strassen_graph(1024)\n"
            "nx_g = g.nx_graph()\n"
            "print(repr({t: concurrency_ratio(nx_g, t, g.sequential_time)\n"
            "            for t in g.tasks()}))\n"
            "c = Cluster(num_processors=2, bandwidth=MYRINET_2GBPS)\n"
            "s = LocMpsScheduler(look_ahead_depth=20, backfill=False)"
            ".schedule(g, c)\n"
            "print(repr(s.makespan), schedule_digest(s))\n"
        )
        outs = _stdout_under_hash_seeds(script, ("0", "17"))
        assert outs[0] == outs[1], "LoC-MPS output depends on PYTHONHASHSEED"


class TestBlockCyclicEdgeCases:
    def test_empty_layouts_rejected(self):
        with pytest.raises(RedistributionError):
            volume_matrix((), (0,), 1.0)
        with pytest.raises(RedistributionError):
            volume_matrix((0,), (), 1.0)
        with pytest.raises(RedistributionError):
            locality_fraction((0, 0), (1,))

    def test_coprime_layouts_never_materialize_the_lcm_period(self):
        """p=9973, q=10007 (both prime): lcm ~ 1e8 slots.

        The scalar period walk is infeasible here; the CRT closed forms
        must answer in O(p + q). With identity layouts, position pairs
        coincide exactly once per residue below min(p, q), so the local
        fraction is min(p, q) / (p * q).
        """
        p, q = 9973, 10007
        src = tuple(range(p))
        dst = tuple(range(q))
        frac = locality_fraction(src, dst)
        assert frac == p / (p * q)
        assert locality_fraction(dst, src) == frac
        model = RedistributionModel(Cluster(num_processors=1, bandwidth=1e9))
        expected = 1e6 * (1.0 - frac) / (p * 1e9)
        assert model.transfer_time(src, dst, 1e6) == expected

    def test_moderate_coprime_pair_matches_scalar_walk(self):
        """97 x 101 is still walkable — the CRT path must match it exactly."""
        src = tuple(range(97))
        dst = tuple(range(101))
        fast = dict(pair_fractions(src, dst))
        slow = pair_fractions_scalar(src, dst)
        assert fast == slow
        assert len(fast) == 97 * 101  # coprime: every pair occurs once
        assert locality_fraction(src, dst) == local_fraction_scalar(src, dst)

    def test_volume_zero_and_identical_layouts(self):
        src = (3, 1, 2)
        assert volume_matrix(src, src, 0.0) == {
            (p, p): 0.0 for p in src
        }
        model = RedistributionModel(Cluster(num_processors=4, bandwidth=1e9))
        assert model.transfer_time(src, src, 5e8) == 0.0
        assert model.single_port_time((0,), (0,), 7.0) == 0.0


# -- tight-graph fuzz -----------------------------------------------------------
#
# The LoCBS hole scan generates its release ladder lazily and stops it at
# the first candidate whose ``tau + et`` cannot beat the incumbent finish.
# Both claim to skip only probes the reference scan never reaches, so the
# fast scheduler must match the frozen reference scheduler float for float.


def _schedule_rows(schedule):
    return sorted(
        (p.name, p.start, p.exec_start, p.finish, p.processors)
        for p in schedule
    )


def _reference_locbs(
    graph, cluster, allocation, options=LocbsOptions(), context=None,
    tracer=None, cost_cache=None, provenance=None, base=None, plan=None,
):
    """``locbs_schedule`` signature, served by the frozen reference scan.

    *base* and *plan* are ignored: the reference arm stays cold and plans
    its own pop order, so the differential compares prefix reuse against
    full scans.
    """
    return locbs_schedule_reference(
        graph, cluster, allocation, options, context=context, tracer=tracer
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
class TestRegistryScanDifferential:
    def test_schedules_bit_identical_to_reference_scan(
        self, name, workload, monkeypatch
    ):
        """Every LoCBS caller in the registry, fast scan vs reference scan.

        The reference arm rebinds each scheduler module's ``locbs_schedule``
        to the frozen seed scan (no lazy ladder, no cost cache). Schedulers
        that never call LoCBS run twice unchanged, which pins their
        run-to-run determinism instead.
        """
        graph = WORKLOADS[workload]()
        cluster = _cluster()
        fast = get_scheduler(name).schedule(graph, cluster)
        for mod in _LOCBS_CALLERS:
            monkeypatch.setattr(mod, "locbs_schedule", _reference_locbs)
        ref = get_scheduler(name).schedule(graph, cluster)
        assert fast.makespan == ref.makespan
        assert _schedule_rows(fast) == _schedule_rows(ref)
        assert fast.edge_comm_times == ref.edge_comm_times


class TestTracedScanMatchesUntraced:
    """A traced run executes the same hole scan as an untraced one."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("backfill", [True, False])
    def test_same_schedule_and_same_probe_counters(
        self, workload, overlap, backfill
    ):
        graph = WORKLOADS[workload]()
        cluster = Cluster(
            num_processors=8, bandwidth=MYRINET_2GBPS, overlap=overlap
        )
        plain_sched = LocMpsScheduler(look_ahead_depth=4, backfill=backfill)
        plain = plain_sched.schedule(graph, cluster)
        traced_sched = LocMpsScheduler(
            look_ahead_depth=4, backfill=backfill, tracer=Tracer()
        )
        traced = traced_sched.schedule(graph, cluster)
        assert _schedule_rows(plain) == _schedule_rows(traced)
        assert plain.edge_comm_times == traced.edge_comm_times
        p, t = plain_sched.cost_cache_stats, traced_sched.cost_cache_stats
        for key in ("probes_considered", "probes_bound_pruned"):
            assert t[key] == p[key], key


#: the per-placement trace events of the hole scan's winner
_SCAN_EVENTS = (
    "backfill_hit",
    "locality_hit",
    "locality_miss",
    "redistribution_costed",
)


def _scan_events(tracer):
    return [
        (e.name, sorted(e.fields.items()))
        for e in tracer.events
        if e.name in _SCAN_EVENTS
    ]


class TestTracedEventsMatchReference:
    """Traced LoCBS emits the frozen reference scan's placement events."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("backfill", [True, False])
    def test_same_scan_event_sequence(self, workload, overlap, backfill):
        graph = WORKLOADS[workload]()
        cluster = Cluster(
            num_processors=8, bandwidth=MYRINET_2GBPS, overlap=overlap
        )
        options = LocbsOptions(backfill=backfill)
        alloc = LocMpsScheduler(look_ahead_depth=4, backfill=backfill).schedule(
            graph, cluster
        ).allocation()
        fast_tr, ref_tr = Tracer(), Tracer()
        locbs_schedule(graph, cluster, alloc, options, tracer=fast_tr)
        locbs_schedule_reference(graph, cluster, alloc, options, tracer=ref_tr)
        fast, ref = _scan_events(fast_tr), _scan_events(ref_tr)
        assert fast and fast == ref
        if not backfill:
            # every no-backfill horizon is infinite
            assert all(name != "backfill_hit" for name, _ in fast)


# Adversarially tight inputs: ``et = 0`` exactly is rejected by profile
# validation, so sub-EPS execution times stand in for it — they turn the
# busy rectangle into an EPS-empty reserve, the tightest discretization
# the chart admits. Volumes are zero-heavy on purpose: zero-volume parents
# zero the transfer times and empty the locality map, the degenerate
# corners of the scan.
_tiny_et = st.sampled_from([EPS / 4, EPS, 4 * EPS, 1e-6, 0.5, 3.0])
_volumes = st.sampled_from([0.0, 0.0, 0.0, 1.0, 64.0, 1e6])


@st.composite
def _tight_graph(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    g = TaskGraph("tight")
    for i in range(n):
        serial = draw(st.sampled_from([0.0, 0.5, 1.0]))
        g.add_task(
            f"T{i}", ExecutionProfile(AmdahlSpeedup(serial), draw(_tiny_et))
        )
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                g.add_edge(f"T{i}", f"T{j}", draw(_volumes))
    return g


def _seeded_tight_graph(seed):
    """A ``_tight_graph``-shaped graph drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    g = TaskGraph("tight")
    for i in range(n):
        serial = rng.choice([0.0, 0.5, 1.0])
        et = rng.choice([EPS / 4, EPS, 4 * EPS, 1e-6, 0.5, 3.0])
        g.add_task(f"T{i}", ExecutionProfile(AmdahlSpeedup(serial), et))
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.5:
                g.add_edge(
                    f"T{i}", f"T{j}", rng.choice([0.0, 0.0, 0.0, 1.0, 64.0, 1e6])
                )
    return g


class TestTightGraphSeeds:
    """P=1 graphs whose same-start spans once left a chart row's ends
    unsorted: the no-backfill scan then found no slot, schedules held
    overlapping placements, and production diverged from the reference.
    These are every such seed in 0-2999."""

    @pytest.mark.parametrize(
        "seed",
        [347, 434, 785, 843, 1010, 1088, 1225, 1226, 1382, 1398, 1701,
         1817, 1994, 2046, 2081, 2207, 2539, 2619, 2935],
    )
    @pytest.mark.parametrize("backfill", [False, True])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_valid_and_equal_to_reference(self, seed, backfill, overlap):
        graph = _seeded_tight_graph(seed)
        cluster = Cluster(
            num_processors=1, bandwidth=MYRINET_2GBPS, overlap=overlap
        )
        alloc = dict.fromkeys(graph.tasks(), 1)
        opts = LocbsOptions(backfill=backfill)
        fast = locbs_schedule(graph, cluster, alloc, opts)
        ref = locbs_schedule_reference(graph, cluster, alloc, opts)
        validate_schedule(fast.schedule, graph)
        assert _schedule_rows(fast.schedule) == _schedule_rows(ref.schedule)
        assert fast.schedule.edge_comm_times == ref.schedule.edge_comm_times

    @pytest.mark.parametrize("seed", [1010, 1088, 1225, 1398, 2081, 2207, 2539, 2619])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_locmps_equal_to_reference(self, seed, overlap):
        graph = _seeded_tight_graph(seed)
        cluster = Cluster(
            num_processors=1, bandwidth=MYRINET_2GBPS, overlap=overlap
        )
        fast = LocMpsScheduler(look_ahead_depth=2).schedule(graph, cluster)
        ref = ReferenceLocMpsScheduler(look_ahead_depth=2).schedule(
            graph, cluster
        )
        validate_schedule(fast, graph)
        assert _schedule_rows(fast) == _schedule_rows(ref)


class TestTightGraphFuzz:
    @given(
        graph=_tight_graph(),
        procs=st.sampled_from([1, 2, 5]),
        overlap=st.booleans(),
    )
    @fuzz_settings
    def test_adversarial_graphs_match_reference(self, graph, procs, overlap):
        """P=1 machines, sub-EPS tasks, zero-volume edges: still identical."""
        cluster = Cluster(
            num_processors=procs, bandwidth=MYRINET_2GBPS, overlap=overlap
        )
        fast = LocMpsScheduler(look_ahead_depth=2).schedule(graph, cluster)
        ref = ReferenceLocMpsScheduler(look_ahead_depth=2).schedule(
            graph, cluster
        )
        assert _schedule_rows(fast) == _schedule_rows(ref)
        assert fast.makespan == ref.makespan

    @given(data=_reserve_ops(), base=_starts)
    @fuzz_settings
    def test_lazy_release_ladder_matches_eager_list(self, data, base):
        """The lazy candidate ladder yields exactly ``release_times``.

        Both are held against the frozen scalar chart over the same
        reserves. Covers EPS-chain charts too: the quantized reserve
        strategy manufactures end times within EPS of each other, flipping
        the timeline onto its chain-collapse slow path.
        """
        num_procs, ops = data
        tl = ProcessorTimeline(range(num_procs))
        oracle = ScalarProcessorTimeline(range(num_procs))
        for procs, start, dur in ops:
            plist = sorted(procs)
            if tl.is_free(plist, start, start + dur):
                tl.reserve(plist, start, start + dur)
                oracle.reserve(plist, start, start + dur)
        assert tl.horizon() == oracle.horizon()
        releases = tl.release_times(-1.0)
        probes = [-1.0, base] + releases + [t + EPS / 2 for t in releases]
        for after in probes:
            eager = oracle.release_times(after)
            assert tl.release_times(after) == eager
            assert list(tl.release_times_after(after)) == eager
            assert tl.release_count_after(after) == len(eager)


# -- prefix reuse vs cold passes ----------------------------------------------
#
# A look-ahead pass copies its base pass's placements while the pops agree
# on task and width. Each property below pairs a base allocation with one
# task or edge growth and demands the reused pass equal a cold pass under
# the grown allocation: placements, transfer times and pseudo-edges.


def _assert_same_pass(reused, cold):
    assert _schedule_rows(reused.schedule) == _schedule_rows(cold.schedule)
    assert list(reused.schedule) == list(cold.schedule)  # same pop order
    assert reused.schedule.edge_comm_times == cold.schedule.edge_comm_times
    assert reused.sdag.pseudo_edges() == cold.sdag.pseudo_edges()


def _pop_order(result):
    return [(p.name, p.width) for p in result.schedule]


def _common_prefix(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _record_passes(monkeypatch):
    """Every LoCBS pass the LoC-MPS walk runs, with the allocation it got."""
    calls = []

    def recording(graph, cluster, allocation, options, **kwargs):
        result = locbs_schedule(graph, cluster, allocation, options, **kwargs)
        # the walk mutates its allocation dict after the call
        calls.append((dict(allocation), options, kwargs.get("base"), result))
        return result

    monkeypatch.setattr(locmps, "locbs_schedule", recording)
    return calls


@st.composite
def _reuse_case(draw):
    """A tight graph, a machine, a base allocation and one growth of it."""
    graph = draw(_tight_graph())
    procs = draw(st.sampled_from([1, 2, 5]))
    tasks = list(graph.tasks())
    alloc = {t: draw(st.integers(min_value=1, max_value=procs)) for t in tasks}
    grown = dict(alloc)
    edges = list(graph.edges())
    if edges and draw(st.booleans()):
        LocMpsScheduler()._grow_edge(draw(st.sampled_from(edges)), grown, procs)
    else:
        t = draw(st.sampled_from(tasks))
        grown[t] = min(procs, grown[t] + 1)
    context = None
    if draw(st.booleans()):
        ready = {
            p: draw(st.sampled_from([0.0, 0.5, 2.0])) for p in range(procs)
        }
        inputs = {}
        for t in tasks:
            if draw(st.booleans()):
                width = draw(st.integers(min_value=1, max_value=procs))
                inputs[t] = [
                    ExternalInput(
                        ready_time=draw(st.sampled_from([0.0, 1.0, 3.0])),
                        processors=tuple(range(width)),
                        volume=draw(_volumes),
                        label=f"x-{t}",
                    )
                ]
        context = SchedulingContext(processor_ready=ready, external_inputs=inputs)
    return graph, procs, alloc, grown, context


class TestPrefixReuseDifferential:
    @given(
        case=_reuse_case(),
        backfill=st.booleans(),
        overlap=st.booleans(),
        transfer_limit=st.sampled_from([None, 1]),
    )
    @fuzz_settings
    def test_reused_pass_equals_cold_pass(
        self, case, backfill, overlap, transfer_limit
    ):
        graph, procs, alloc, grown, context = case
        cluster = Cluster(
            num_processors=procs, bandwidth=MYRINET_2GBPS, overlap=overlap
        )
        opts = LocbsOptions(backfill=backfill)
        # base and reused pass share one cache, as in the look-ahead; a
        # one-entry transfer memo is cleared on nearly every lookup
        cache = CostCache(cluster, transfer_limit=transfer_limit)
        base = locbs_schedule(
            graph, cluster, alloc, opts, context=context, cost_cache=cache
        )
        reused = locbs_schedule(
            graph, cluster, grown, opts, context=context, cost_cache=cache,
            base=base,
        )
        cold = locbs_schedule(graph, cluster, grown, opts, context=context)
        _assert_same_pass(reused, cold)
        assert 0 <= reused.placements_reused <= graph.num_tasks
        if grown == alloc:
            assert reused.placements_reused == graph.num_tasks

    @given(
        case=_reuse_case(),
        backfill=st.booleans(),
        overlap=st.booleans(),
    )
    @fuzz_settings
    def test_non_parent_base_equals_cold_pass(self, case, backfill, overlap):
        graph, procs, alloc, grown, context = case
        cluster = Cluster(
            num_processors=procs, bandwidth=MYRINET_2GBPS, overlap=overlap
        )
        opts = LocbsOptions(backfill=backfill)
        cache = CostCache(cluster)
        # the base widens the parent's last-popped task instead, so it is
        # no step of the walk that reached *grown*
        last, width = locbs_plan(graph, cluster, alloc, opts)[-1]
        other = dict(alloc)
        other[last] = width % procs + 1
        base = locbs_schedule(
            graph, cluster, other, opts, context=context, cost_cache=cache
        )
        plan = locbs_plan(graph, cluster, grown, opts, cost_cache=cache)
        reused = locbs_schedule(
            graph, cluster, grown, opts, context=context, cost_cache=cache,
            base=base, plan=plan,
        )
        cold = locbs_schedule(graph, cluster, grown, opts, context=context)
        _assert_same_pass(reused, cold)
        assert list(plan) == _pop_order(cold)
        assert reused.placements_reused == _common_prefix(
            plan, _pop_order(base)
        )

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_identical_allocation_reuses_every_placement(self, workload):
        graph = WORKLOADS[workload]()
        cluster = _cluster()
        alloc = {t: 1 + (i % 3) for i, t in enumerate(graph.tasks())}
        base = locbs_schedule(graph, cluster, alloc)
        again = locbs_schedule(graph, cluster, alloc, base=base)
        assert again.placements_reused == graph.num_tasks
        _assert_same_pass(again, base)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_changed_first_pop_reuses_nothing(self, workload):
        graph = WORKLOADS[workload]()
        cluster = _cluster()
        alloc = {t: 1 for t in graph.tasks()}
        base = locbs_schedule(graph, cluster, alloc)
        grown = dict(alloc)
        grown[next(iter(base.schedule)).name] += 1
        reused = locbs_schedule(graph, cluster, grown, base=base)
        assert reused.placements_reused == 0
        _assert_same_pass(reused, locbs_schedule(graph, cluster, grown))

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("backfill", [True, False])
    def test_every_lookahead_pass_equals_a_cold_pass(
        self, workload, backfill, monkeypatch
    ):
        """Each base-fed pass of a real LoC-MPS walk, re-run cold."""
        calls = _record_passes(monkeypatch)
        graph = WORKLOADS[workload]()
        cluster = _cluster()
        LocMpsScheduler(look_ahead_depth=4, backfill=backfill).schedule(
            graph, cluster
        )
        fed = [c for c in calls if c[2] is not None]
        assert any(result.placements_reused for *_, result in fed)
        for alloc, options, _, result in fed:
            _assert_same_pass(
                result, locbs_schedule(graph, cluster, alloc, options)
            )

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_memo_limited_walk_passes_equal_cold_passes(
        self, workload, monkeypatch
    ):
        """Bases come only from the two live memo entries, never evicted ones."""
        calls = _record_passes(monkeypatch)
        graph = WORKLOADS[workload]()
        cluster = _cluster()
        sched = LocMpsScheduler(look_ahead_depth=4, memo_limit=2)
        sched.schedule(graph, cluster)
        assert sched.memo_stats["evictions"] > 0
        fed = [c for c in calls if c[2] is not None]
        assert any(result.placements_reused for *_, result in fed)
        for alloc, options, _, result in fed:
            _assert_same_pass(
                result, locbs_schedule(graph, cluster, alloc, options)
            )

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_evicted_results_are_freed(self, workload, monkeypatch):
        """Under ``memo_limit`` no reuse index keeps an evicted pass alive."""
        refs = []
        live = []

        def recording(graph, cluster, allocation, options, **kwargs):
            gc.collect()
            live.append(sum(ref() is not None for ref in refs))
            result = locbs_schedule(graph, cluster, allocation, options, **kwargs)
            refs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(locmps, "locbs_schedule", recording)
        graph = WORKLOADS[workload]()
        sched = LocMpsScheduler(look_ahead_depth=4, memo_limit=2)
        result = sched.schedule(graph, _cluster())
        assert sched.memo_stats["evictions"] > 0
        # at any pass: the two memo entries plus the walk's current and
        # committed results
        assert max(live) <= 4
        del result
        gc.collect()
        assert all(ref() is None for ref in refs)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("backfill", [True, False])
    def test_each_pass_reuses_the_longest_memoized_prefix(
        self, workload, backfill, monkeypatch
    ):
        """Brute force: the best base is the memoized pass sharing most pops."""
        calls = _record_passes(monkeypatch)
        graph = WORKLOADS[workload]()
        LocMpsScheduler(
            look_ahead_depth=4, backfill=backfill, memo_limit=None
        ).schedule(graph, _cluster())
        orders = [_pop_order(result) for *_, result in calls]
        assert any(result.placements_reused for *_, result in calls)
        for i, (*_, result) in enumerate(calls):
            best = max(
                (_common_prefix(orders[i], earlier) for earlier in orders[:i]),
                default=0,
            )
            assert result.placements_reused == best, i


# -- pseudo-edge pairs --------------------------------------------------------
#
# A pass's ``(blocker, task)`` pairs come from the chart's blocker query.
# The replay asks the full-schedule scan the same questions over the
# pass's own pop order and schedule (not the reference pass's), so it
# checks the query alone, not the hole scan that placed the tasks.


def _scan_replayed_pairs(graph, result, context=None):
    """The pairs ``scan_blockers`` gives, placing *result*'s pops in turn."""
    schedule = result.schedule
    comm = schedule.edge_comm_times
    placed = Schedule(schedule.cluster, scheduler="replay")
    pairs = []
    for placement in schedule:
        tp = placement.name
        placed.place(placement)
        # est(tp): the latest data arrival, as the pass computes it
        arrivals = [
            schedule[u].finish + comm[(u, tp)] for u in graph.predecessors(tp)
        ]
        if context is not None:
            arrivals += [
                ext.ready_time + comm[(f"__ext__{ext.label}", tp)]
                for ext in context.inputs_for(tp)
            ]
        if placement.start > max(arrivals, default=0.0) + _PSEUDO_TOL:
            pairs += [
                (blocker, tp)
                for blocker in scan_blockers(placed, placement, placement.start)
            ]
    return pairs


class TestPseudoPairsReplay:
    @given(case=_reuse_case(), backfill=st.booleans(), overlap=st.booleans())
    @fuzz_settings
    def test_tight_passes_cold_and_resumed(self, case, backfill, overlap):
        """Sub-EPS tasks, with and without a processor-ready context."""
        graph, procs, alloc, grown, context = case
        cluster = Cluster(
            num_processors=procs, bandwidth=MYRINET_2GBPS, overlap=overlap
        )
        opts = LocbsOptions(backfill=backfill)
        cache = CostCache(cluster)
        base = locbs_schedule(
            graph, cluster, alloc, opts, context=context, cost_cache=cache
        )
        resumed = locbs_schedule(
            graph, cluster, grown, opts, context=context, cost_cache=cache,
            base=base,
        )
        for result in (base, resumed):
            assert list(result.pseudo_edges) == _scan_replayed_pairs(
                graph, result, context
            )

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_processor_ready_context_passes(self, workload):
        graph = WORKLOADS[workload]()
        cluster = _cluster()
        context = SchedulingContext(
            processor_ready={0: 2.0, 1: 0.5, 3: 1e-3, 6: 4.0}
        )
        alloc = {t: 1 + (i % 3) for i, t in enumerate(graph.tasks())}
        cold = locbs_schedule(graph, cluster, alloc, context=context)
        last, width = _pop_order(cold)[-1]
        grown = dict(alloc)
        grown[last] = width % 8 + 1
        resumed = locbs_schedule(
            graph, cluster, grown, context=context, base=cold
        )
        assert resumed.placements_reused == graph.num_tasks - 1
        for result in (cold, resumed):
            assert result.pseudo_edges
            assert list(result.pseudo_edges) == _scan_replayed_pairs(
                graph, result, context
            )

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_lookahead_pass(self, workload, monkeypatch):
        """The cold and prefix-resumed passes of a LoC-MPS walk."""
        calls = _record_passes(monkeypatch)
        graph = WORKLOADS[workload]()
        LocMpsScheduler(look_ahead_depth=4).schedule(graph, _cluster())
        assert any(base is None for _, _, base, _ in calls)
        assert any(result.placements_reused for *_, result in calls)
        for *_, result in calls:
            assert list(result.pseudo_edges) == _scan_replayed_pairs(
                graph, result
            )


class TestNoBackfillLadder:
    """No-backfill probes the reference scan's ladder, recording or not."""

    def test_eps_near_candidates_stay_on_the_ladder(self):
        # processors 1 and 2 free within EPS/2 of processor 0: both 1.0 and
        # 1.0 + EPS/2 are probed, untraced as well as recording
        graph = TaskGraph("merge")
        prof = ExecutionProfile(AmdahlSpeedup(1.0), 2.0)
        graph.add_task("a", prof)
        graph.add_task("b", prof)
        graph.add_edge("a", "b", 1e6)
        cluster = Cluster(num_processors=4, bandwidth=MYRINET_2GBPS)
        context = SchedulingContext(
            processor_ready={0: 1.0, 1: 1.0 + EPS / 2, 2: 1.0 + EPS / 2}
        )
        alloc = {"a": 2, "b": 2}
        opts = LocbsOptions(backfill=False)
        cache = CostCache(cluster)
        plain = locbs_schedule(
            graph, cluster, alloc, opts, context=context, cost_cache=cache
        ).schedule
        rec = ProvenanceRecorder()
        raw = locbs_schedule(
            graph, cluster, alloc, opts, context=context, provenance=rec
        ).schedule
        ref = locbs_schedule_reference(
            graph, cluster, alloc, opts, context=context
        ).schedule
        assert _schedule_rows(plain) == _schedule_rows(raw)
        assert _schedule_rows(plain) == _schedule_rows(ref)
        taus = [c.tau for c in rec.decision_for("a").candidates]
        assert taus == [0.0, 1.0, 1.0 + EPS / 2]
        # the untraced scan walked the same ladders (every rung is either
        # considered or closed by the break)
        stats = cache.stats
        assert stats["probes_considered"] + stats["probes_bound_pruned"] == sum(
            len(d.candidates) for d in rec.decisions
        )

    def test_untraced_arm_matches_recording_arm(self):
        graph = WORKLOADS["wide-synthetic"]()
        cluster = _cluster()
        alloc = {t: 1 + (i % 3) for i, t in enumerate(graph.tasks())}
        opts = LocbsOptions(backfill=False)
        plain = locbs_schedule(graph, cluster, alloc, opts).schedule
        rec = ProvenanceRecorder()
        raw = locbs_schedule(
            graph, cluster, alloc, opts, provenance=rec
        ).schedule
        assert _schedule_rows(plain) == _schedule_rows(raw)
        assert len(rec.decisions) == len(list(graph.tasks()))
