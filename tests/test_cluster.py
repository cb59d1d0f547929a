"""Cluster model."""

import math

import pytest

from repro.cluster import (
    Cluster,
    FAST_ETHERNET_100MBPS,
    GIGABIT_ETHERNET,
    MYRINET_2GBPS,
)
from repro.exceptions import ClusterError


class TestConstruction:
    def test_defaults(self):
        c = Cluster(num_processors=8)
        assert c.bandwidth == FAST_ETHERNET_100MBPS
        assert c.overlap is True
        assert c.processors == tuple(range(8))

    def test_rejects_zero_processors(self):
        with pytest.raises(ValueError):
            Cluster(num_processors=0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            Cluster(num_processors=2, bandwidth=0.0)

    def test_zero_processors_raise_cluster_error(self):
        with pytest.raises(ClusterError, match="num_processors must be >= 1"):
            Cluster(0)

    def test_zero_bandwidth_raises_cluster_error(self):
        with pytest.raises(ClusterError, match="bandwidth must be > 0"):
            Cluster(4, bandwidth=0)

    def test_nan_bandwidth_raises_cluster_error(self):
        with pytest.raises(ClusterError, match="bandwidth must be finite"):
            Cluster(4, bandwidth=math.nan)

    def test_infinite_bandwidth_raises_cluster_error(self):
        with pytest.raises(ClusterError, match="bandwidth must be finite"):
            Cluster(4, bandwidth=math.inf)

    def test_non_int_processors_keep_type_error(self):
        with pytest.raises(TypeError) as info:
            Cluster(4.0)
        assert not isinstance(info.value, ClusterError)

    def test_frozen(self):
        c = Cluster(num_processors=2)
        with pytest.raises(AttributeError):
            c.num_processors = 4


class TestBandwidthConstants:
    def test_fast_ethernet_bytes(self):
        assert FAST_ETHERNET_100MBPS == pytest.approx(12.5e6)

    def test_myrinet_bytes(self):
        assert MYRINET_2GBPS == pytest.approx(250e6)

    def test_gigabit(self):
        assert GIGABIT_ETHERNET == pytest.approx(125e6)


class TestAggregateBandwidth:
    def test_min_rule(self):
        c = Cluster(num_processors=16, bandwidth=100.0)
        assert c.aggregate_bandwidth(4, 8) == 400.0
        assert c.aggregate_bandwidth(8, 4) == 400.0

    def test_single_pair(self):
        c = Cluster(num_processors=16, bandwidth=100.0)
        assert c.aggregate_bandwidth(1, 1) == 100.0

    def test_rejects_zero_width(self):
        c = Cluster(num_processors=4)
        with pytest.raises(ValueError):
            c.aggregate_bandwidth(0, 4)


class TestCopies:
    def test_with_overlap(self):
        c = Cluster(num_processors=4)
        c2 = c.with_overlap(False)
        assert c2.overlap is False
        assert c.overlap is True
        assert c2.num_processors == 4

    def test_with_processors(self):
        c = Cluster(num_processors=4, bandwidth=99.0)
        c2 = c.with_processors(32)
        assert c2.num_processors == 32
        assert c2.bandwidth == 99.0
