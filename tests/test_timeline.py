"""ProcessorTimeline: reservations, hole queries, no-backfill EATs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ScheduleError
from repro.perf.scalar_oracles import ScalarProcessorTimeline
from repro.schedule import ProcessorTimeline
from repro.utils.intervals import EPS


@pytest.fixture
def tl():
    return ProcessorTimeline([0, 1, 2, 3])


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ScheduleError):
            ProcessorTimeline([])

    def test_rejects_duplicates(self):
        with pytest.raises(ScheduleError):
            ProcessorTimeline([0, 0])

    def test_processors_tuple(self, tl):
        assert tl.processors == (0, 1, 2, 3)


class TestReserve:
    def test_basic(self, tl):
        tl.reserve([0, 1], 0.0, 5.0)
        assert not tl.free_at(0, 2.0)
        assert tl.free_at(2, 2.0)

    def test_conflict_raises(self, tl):
        tl.reserve([0], 0.0, 5.0)
        with pytest.raises(ScheduleError, match="already busy"):
            tl.reserve([0], 4.0, 6.0)

    def test_conflict_is_atomic(self, tl):
        tl.reserve([1], 2.0, 4.0)
        with pytest.raises(ScheduleError):
            tl.reserve([0, 1], 3.0, 5.0)
        # processor 0 must not have been reserved by the failed call
        assert tl.free_at(0, 3.5)

    def test_touching_reservations_ok(self, tl):
        tl.reserve([0], 0.0, 5.0)
        tl.reserve([0], 5.0, 8.0)
        assert tl.earliest_available(0) == 8.0

    def test_zero_length_ignored(self, tl):
        tl.reserve([0], 3.0, 3.0)
        assert tl.free_at(0, 3.0)
        assert tl.horizon() == 0.0

    def test_out_of_order_inserts(self, tl):
        tl.reserve([0], 10.0, 12.0)
        tl.reserve([0], 0.0, 2.0)
        tl.reserve([0], 5.0, 6.0)
        tl.check_invariants()
        assert tl.free_at(0, 3.0)
        assert not tl.free_at(0, 5.5)

    @pytest.mark.parametrize("chart", [ProcessorTimeline, ScalarProcessorTimeline])
    def test_same_start_within_eps_keeps_ends_sorted(self, chart):
        # 3.0 + EPS rounds up: the first span is longer than EPS yet ends
        # within EPS of 3.0, so a second span starting at 3.0 is accepted
        # and sorts before it by start while ending after it
        tl = chart([0])
        tl.reserve([0], 3.0, 3.0 + EPS)
        tl.reserve([0], 3.0, 4.0)
        tl.check_invariants()
        assert tl.earliest_available(0) == 4.0
        assert not tl.is_free([0], 3.5, 3.6)

    def test_unsorted_ends_fail_invariants(self, tl):
        tl.reserve([0], 0.0, 1.0)
        tl.reserve([0], 2.0, 3.0)
        tl._ends_l[0].reverse()
        with pytest.raises(ScheduleError, match="unsorted"):
            tl.check_invariants()


class TestQueries:
    def test_free_at_half_open(self, tl):
        tl.reserve([0], 1.0, 2.0)
        assert tl.free_at(0, 0.999999)
        assert not tl.free_at(0, 1.0)
        assert not tl.free_at(0, 1.999)
        assert tl.free_at(0, 2.0)

    def test_free_until(self, tl):
        tl.reserve([0], 5.0, 6.0)
        assert tl.free_until(0, 0.0) == 5.0
        assert tl.free_until(0, 6.0) == math.inf

    def test_idle_processors(self, tl):
        tl.reserve([1, 2], 0.0, 4.0)
        assert tl.idle_processors(1.0) == [0, 3]
        assert tl.idle_processors(4.0) == [0, 1, 2, 3]

    def test_idle_with_horizon(self, tl):
        tl.reserve([0], 5.0, 6.0)
        tl.reserve([1], 0.0, 2.0)
        idle = dict(tl.idle_with_horizon(0.0))
        assert idle[0] == 5.0
        assert 1 not in idle
        assert idle[2] == math.inf

    def test_is_free_window(self, tl):
        tl.reserve([0], 2.0, 4.0)
        assert tl.is_free([0], 0.0, 2.0)
        assert not tl.is_free([0], 1.0, 3.0)
        assert tl.is_free([0], 4.0, 10.0)
        assert tl.is_free([0, 1], 5.0, 6.0)

    def test_earliest_available(self, tl):
        assert tl.earliest_available(0) == 0.0
        tl.reserve([0], 1.0, 3.0)
        assert tl.earliest_available(0) == 3.0

    def test_release_times(self, tl):
        tl.reserve([0], 0.0, 2.0)
        tl.reserve([1], 1.0, 5.0)
        tl.reserve([2], 0.0, 2.0)  # duplicate end time deduplicated
        assert tl.release_times(0.0) == [2.0, 5.0]
        assert tl.release_times(2.0) == [5.0]
        assert tl.release_times(5.0) == []

    def test_boundary_times(self, tl):
        tl.reserve([0], 1.0, 2.0)
        tl.reserve([1], 3.0, 4.0)
        assert tl.boundary_times(0.0) == [1.0, 2.0, 3.0, 4.0]
        assert tl.boundary_times(2.5) == [3.0, 4.0]

    def test_horizon(self, tl):
        assert tl.horizon() == 0.0
        tl.reserve([3], 2.0, 9.0)
        assert tl.horizon() == 9.0

    def test_first_fit_start_multi_proc(self, tl):
        tl.reserve([0], 0.0, 4.0)
        tl.reserve([1], 2.0, 6.0)
        assert tl.first_fit_start([0, 1], 0.0, 3.0) == 6.0

    def test_busy_intervals_copy(self, tl):
        tl.reserve([0], 0.0, 1.0)
        ivs = tl.busy_intervals(0)
        assert ivs.total_length == 1.0


# -- property-based -----------------------------------------------------------------

reservations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # processor
        st.floats(min_value=0, max_value=100),  # start
        st.floats(min_value=0.1, max_value=20),  # duration
    ),
    max_size=30,
)


@given(reservations)
@settings(max_examples=200, deadline=None)
def test_property_reservations_never_overlap(items):
    tl = ProcessorTimeline([0, 1, 2, 3])
    accepted = []
    for proc, start, dur in items:
        try:
            tl.reserve([proc], start, start + dur)
            accepted.append((proc, start, start + dur))
        except ScheduleError:
            pass
    tl.check_invariants()
    # accepted reservations are pairwise disjoint per processor
    for i, (p1, s1, e1) in enumerate(accepted):
        for p2, s2, e2 in accepted[i + 1:]:
            if p1 == p2:
                assert s1 >= e2 - 1e-9 or s2 >= e1 - 1e-9


@given(reservations, st.floats(min_value=0, max_value=120))
@settings(max_examples=200, deadline=None)
def test_property_idle_iff_no_reservation_covers(items, t):
    tl = ProcessorTimeline([0, 1, 2, 3])
    accepted = []
    for proc, start, dur in items:
        try:
            tl.reserve([proc], start, start + dur)
            accepted.append((proc, start, start + dur))
        except ScheduleError:
            pass
    for p in (0, 1, 2, 3):
        covered = any(
            proc == p and s - 1e-9 <= t < e - 1e-9 for proc, s, e in accepted
        )
        assert tl.free_at(p, t) == (not covered)
