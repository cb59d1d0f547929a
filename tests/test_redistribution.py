"""Block-cyclic redistribution: layouts, volume matrices, cost model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.exceptions import RedistributionError
from repro.redistribution import (
    BlockCyclicLayout,
    RedistributionModel,
    estimate_edge_cost,
    locality_fraction,
    nonlocal_volume,
    volume_matrix,
)
from repro.redistribution.blockcyclic import local_volume, pair_fractions


class TestLayout:
    def test_owner_round_robin(self):
        lay = BlockCyclicLayout.over([3, 5, 9])
        assert [lay.owner(i) for i in range(6)] == [3, 5, 9, 3, 5, 9]

    def test_share(self):
        lay = BlockCyclicLayout.over([0, 1, 2, 3])
        assert lay.share(2) == 0.25
        assert lay.share(9) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(RedistributionError):
            BlockCyclicLayout(())

    def test_rejects_duplicates(self):
        with pytest.raises(RedistributionError):
            BlockCyclicLayout.over([1, 1])

    def test_rejects_negative_block_index(self):
        with pytest.raises(RedistributionError):
            BlockCyclicLayout.over([0]).owner(-1)


class TestVolumeMatrix:
    def test_identical_layouts_all_local(self):
        mat = volume_matrix([0, 1], [0, 1], 100.0)
        assert mat == {(0, 0): 50.0, (1, 1): 50.0}

    def test_disjoint_layouts_all_remote(self):
        assert nonlocal_volume([0, 1], [2, 3], 100.0) == pytest.approx(100.0)

    def test_conservation(self):
        mat = volume_matrix([0, 1, 2], [1, 2, 3, 4], 120.0)
        assert sum(mat.values()) == pytest.approx(120.0)

    def test_one_to_many(self):
        mat = volume_matrix([7], [7, 8], 100.0)
        assert mat[(7, 7)] == pytest.approx(50.0)
        assert mat[(7, 8)] == pytest.approx(50.0)

    def test_nested_power_of_two(self):
        # src = first half of dst, ascending: half the blocks stay local
        assert locality_fraction([0, 1], [0, 1, 2, 3]) == pytest.approx(0.5)

    def test_order_matters(self):
        f_same = locality_fraction([0, 1], [0, 1])
        f_swapped = locality_fraction([0, 1], [1, 0])
        assert f_same == 1.0
        assert f_swapped == 0.0

    def test_zero_volume(self):
        assert nonlocal_volume([0], [1], 0.0) == 0.0

    def test_rejects_empty_set(self):
        with pytest.raises(RedistributionError):
            volume_matrix([], [0], 1.0)

    def test_rejects_duplicates(self):
        with pytest.raises(RedistributionError):
            volume_matrix([0, 0], [1], 1.0)

    def test_local_plus_nonlocal_is_total(self):
        src, dst = (0, 2, 4), (1, 2, 3, 4)
        total = 99.0
        assert local_volume(src, dst, total) + nonlocal_volume(
            src, dst, total
        ) == pytest.approx(total)

    def test_pair_fractions_read_only(self):
        frac = pair_fractions((0, 1), (1, 2))
        with pytest.raises(TypeError):
            frac[(0, 1)] = 0.5


class TestEstimate:
    def test_formula(self):
        assert estimate_edge_cost(2, 6, 100.0, 10.0) == pytest.approx(5.0)

    def test_zero_volume(self):
        assert estimate_edge_cost(2, 2, 0.0, 10.0) == 0.0

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            estimate_edge_cost(0, 2, 1.0, 10.0)


class TestModel:
    def make(self, P=8, bw=10.0):
        return RedistributionModel(Cluster(num_processors=P, bandwidth=bw))

    def test_identical_sets_free(self):
        m = self.make()
        assert m.transfer_time((0, 1, 2), (0, 1, 2), 1e9) == 0.0

    def test_disjoint_sets_full_cost(self):
        m = self.make(bw=10.0)
        # all 100 bytes remote, aggregate bw = min(2,2)*10 = 20
        assert m.transfer_time((0, 1), (2, 3), 100.0) == pytest.approx(5.0)

    def test_pair_cost_is_fraction_and_aggregate_bandwidth(self):
        m = self.make(bw=10.0)
        assert m.pair_cost((0, 1, 2), (0, 1, 2)) == (0.0, 30.0)
        assert m.pair_cost((0, 1), (2, 3, 4)) == (1.0, 20.0)
        frac, agg = m.pair_cost((0, 1), (0, 1, 2, 3))
        assert (frac, agg) == (1.0 - locality_fraction((0, 1), (0, 1, 2, 3)), 20.0)
        assert m.transfer_time((0, 1), (0, 1, 2, 3), 100.0) == 100.0 * frac / agg

    def test_partial_overlap_cheaper_than_estimate(self):
        m = self.make()
        actual = m.transfer_time((0, 1), (0, 1, 2, 3), 100.0)
        estimate = m.estimate_edge_cost(2, 4, 100.0)
        assert actual <= estimate + 1e-12

    def test_single_port_at_least_pairwise_share(self):
        m = self.make(bw=10.0)
        t = m.single_port_time((0,), (1, 2), 100.0)
        # single sender must push all 100 bytes through one port
        assert t == pytest.approx(10.0)

    def test_single_port_zero_when_local(self):
        m = self.make()
        assert m.single_port_time((0, 1), (0, 1), 100.0) == 0.0

    def test_estimate_matches_free_function(self):
        m = self.make(bw=7.0)
        assert m.estimate_edge_cost(3, 5, 42.0) == estimate_edge_cost(
            3, 5, 42.0, 7.0
        )


# -- property-based ----------------------------------------------------------------

proc_sets = st.lists(
    st.integers(min_value=0, max_value=15), min_size=1, max_size=8, unique=True
).map(tuple)


@given(src=proc_sets, dst=proc_sets, volume=st.floats(min_value=0, max_value=1e9))
@settings(max_examples=300, deadline=None)
def test_property_volume_conservation(src, dst, volume):
    mat = volume_matrix(src, dst, volume)
    assert sum(mat.values()) == pytest.approx(volume, rel=1e-9, abs=1e-6)


@given(src=proc_sets, dst=proc_sets)
@settings(max_examples=300, deadline=None)
def test_property_locality_fraction_bounds(src, dst):
    f = locality_fraction(src, dst)
    assert -1e-12 <= f <= 1.0 + 1e-12
    if set(src).isdisjoint(dst):
        assert f == 0.0
    if src == dst:
        assert f == pytest.approx(1.0)


@given(src=proc_sets, dst=proc_sets, volume=st.floats(min_value=0.1, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_property_actual_cost_never_exceeds_estimate(src, dst, volume):
    model = RedistributionModel(Cluster(num_processors=16, bandwidth=100.0))
    actual = model.transfer_time(src, dst, volume)
    estimate = model.estimate_edge_cost(len(src), len(dst), volume)
    assert actual <= estimate + 1e-9


@given(src=proc_sets, dst=proc_sets, volume=st.floats(min_value=0.1, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_property_rows_and_pattern_symmetry(src, dst, volume):
    # every source processor emits exactly volume/len(src); block-cyclic
    # deals blocks uniformly across the source set
    mat = volume_matrix(src, dst, volume)
    sent = {}
    for (sp, _dp), v in mat.items():
        sent[sp] = sent.get(sp, 0.0) + v
    for sp in src:
        assert sent[sp] == pytest.approx(volume / len(src), rel=1e-9)
