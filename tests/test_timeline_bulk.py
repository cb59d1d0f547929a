"""``ProcessorTimeline.reserve_many`` against sequential ``reserve`` calls.

A LoCBS pass that resumes from a memoized pass loads the shared prefix
of placements onto its chart in one call. The chart must come out
exactly as the one-by-one reservations would leave it — rows, global
boundary lists, release times, the two EPS flags that switch the
slot search between its fast and exact paths, and the span owners the
blocker queries read — also over rows that already hold a context's
(unowned) reservations.

Times sit on a half-unit grid, nudged by fractions of ``EPS``: spans
abut exactly, abut within ``EPS``, strictly overlap inside the
tolerance, collapse to zero length, and conflict by whole grid steps.
Nudges stay well inside ``EPS``, so no comparison lands within a
rounding of the tolerance, where the order of two reservations could
decide it.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ScheduleError
from repro.schedule import PlacedTask, ProcessorTimeline
from repro.utils.intervals import EPS

bulk_settings = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

_nudge = st.sampled_from([0.0, 0.0, EPS / 4, -EPS / 4])
_grid = st.integers(min_value=0, max_value=16).map(lambda n: n / 2)
_length = st.one_of(
    st.integers(min_value=1, max_value=6).map(lambda n: n / 2),
    st.sampled_from([0.0, EPS / 2]),  # zero-length: occupies nothing
)


@st.composite
def _chart_case(draw):
    """Processors, per-processor ready times, and spans in reserve order."""
    num_procs = draw(st.integers(min_value=1, max_value=6))
    ready = draw(
        st.lists(
            st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]),
            min_size=num_procs,
            max_size=num_procs,
        )
    )
    spans = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        procs = draw(
            st.sets(
                st.integers(min_value=0, max_value=num_procs - 1),
                min_size=1,
                max_size=num_procs,
            )
        )
        start = draw(_grid) + draw(_nudge)
        end = start + draw(_length) + draw(_nudge)
        spans.append((tuple(sorted(procs)), start, end))
    return num_procs, ready, spans


def _context_chart(num_procs, ready):
    """A chart holding a context's ready-time reservations."""
    tl = ProcessorTimeline(range(num_procs))
    for proc, until in enumerate(ready):
        if until > 0:
            tl.reserve([proc], 0.0, until)
    return tl


def _assert_same_chart(bulk, seq):
    assert bulk._starts_l == seq._starts_l
    assert bulk._ends_l == seq._ends_l
    assert bulk._counts == seq._counts
    assert bulk._all_starts == seq._all_starts
    assert bulk._all_ends == seq._all_ends
    assert bulk._ends_unique == seq._ends_unique
    assert bulk.counts_exact == seq.counts_exact
    assert bulk._eps_chain == seq._eps_chain
    probes = [-1.0] + seq._ends_unique + [t + EPS / 2 for t in seq._ends_unique]
    for after in probes:
        assert bulk.release_times(after) == seq.release_times(after)
    bulk.check_invariants()


def _assert_same_blockers(bulk, seq, spans, owners):
    """Both charts name the same blockers for every owned span's task."""
    assert bulk._owners == seq._owners
    assert bulk._marks == seq._marks
    for (procs, start, end), (name, _) in zip(spans, owners):
        # a nudge can leave a zero-length span ending before its start
        query = PlacedTask(
            name=name, start=start, exec_start=start, finish=max(start, end),
            processors=procs,
        )
        for blocked_start in (start, end, start + EPS / 2, start + 0.5):
            assert bulk.blockers(query, blocked_start, tol=1e-6) == (
                seq.blockers(query, blocked_start, tol=1e-6)
            )


class TestBulkLoadDifferential:
    @given(case=_chart_case(), split=st.integers(min_value=0, max_value=14))
    @bulk_settings
    def test_bulk_load_equals_sequential_reserves(self, case, split):
        num_procs, ready, spans = case
        seq = _context_chart(num_procs, ready)
        accepted = []
        owners = []
        for i, (procs, start, end) in enumerate(spans):
            owner = (f"s{i}", len(owners))
            try:
                seq.reserve(procs, start, end, owner)
            except ScheduleError:
                continue
            accepted.append((procs, start, end))
            owners.append(owner)
        bulk = _context_chart(num_procs, ready)
        # one load into the context's rows, or two loads back to back
        bulk.reserve_many(accepted[:split], owners[:split])
        bulk.reserve_many(accepted[split:], owners[split:])
        _assert_same_chart(bulk, seq)
        _assert_same_blockers(bulk, seq, accepted, owners)

    @given(case=_chart_case())
    @bulk_settings
    def test_a_span_reserve_rejects_makes_the_load_raise(self, case):
        num_procs, ready, spans = case
        seq = _context_chart(num_procs, ready)
        rejected = False
        for procs, start, end in spans:
            try:
                seq.reserve(procs, start, end)
            except ScheduleError:
                rejected = True
        bulk = _context_chart(num_procs, ready)
        before = _context_chart(num_procs, ready)
        if rejected:
            with pytest.raises(ScheduleError):
                bulk.reserve_many(spans)
            # the load is checked before any row is touched
            _assert_same_chart(bulk, before)
        else:
            bulk.reserve_many(spans)
            _assert_same_chart(bulk, seq)


class TestBulkLoadCases:
    def test_eps_overlap_sets_counts_inexact(self):
        tl = ProcessorTimeline([0, 1])
        tl.reserve_many([((0,), 0.0, 1.0), ((0,), 1.0 - EPS / 2, 2.0)])
        assert not tl.counts_exact

    def test_exact_abutment_keeps_counts_exact(self):
        tl = ProcessorTimeline([0, 1])
        tl.reserve_many([((0, 1), 0.0, 1.0), ((0,), 1.0, 2.0)])
        assert tl.counts_exact
        assert tl.release_times(0.0) == [1.0, 2.0]

    def test_eps_chain_collapses_release_times(self):
        tl = ProcessorTimeline([0, 1])
        tl.reserve_many([((0,), 0.0, 1.0), ((1,), 0.0, 1.0 + EPS / 2)])
        assert tl._eps_chain
        assert tl.release_times(0.0) == [1.0]

    def test_zero_length_spans_are_ignored(self):
        tl = ProcessorTimeline([0])
        tl.reserve_many([((0,), 1.0, 1.0), ((0,), 2.0, 2.0 + EPS / 2)])
        assert tl._all_starts == [] and tl.horizon() == 0.0

    def test_merges_into_reserved_rows(self):
        tl = ProcessorTimeline([0, 1])
        tl.reserve([0], 0.0, 2.0)
        tl.reserve_many([((0, 1), 2.0, 3.0), ((1,), 0.0, 1.0)])
        assert tl._starts_l == [[0.0, 2.0], [0.0, 2.0]]
        assert tl._ends_l == [[2.0, 3.0], [1.0, 3.0]]
        tl.check_invariants()

    def test_conflict_with_reserved_row_raises(self):
        tl = ProcessorTimeline([0, 1])
        tl.reserve([0], 0.0, 2.0)
        with pytest.raises(ScheduleError, match="already busy"):
            tl.reserve_many([((1,), 0.0, 1.0), ((0,), 1.0, 3.0)])
        assert tl._counts == [1, 0]
