"""ExecutionProfile: time queries, gains, pbest."""

import math

import pytest

from repro import exceptions
from repro.exceptions import InvalidProfileError, ProfileError
from repro.graph.serialization import graph_from_dict
from repro.speedup import (
    AmdahlSpeedup,
    DowneySpeedup,
    ExecutionProfile,
    LinearSpeedup,
    TableSpeedup,
)


class TestConstruction:
    def test_requires_sequential_time_for_models(self):
        with pytest.raises(ProfileError):
            ExecutionProfile(LinearSpeedup())

    def test_table_infers_sequential_time(self):
        p = ExecutionProfile(TableSpeedup({1: 12.0, 2: 7.0}))
        assert p.sequential_time == 12.0

    def test_rejects_non_model(self):
        with pytest.raises(ProfileError):
            ExecutionProfile("not a model", 1.0)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            ExecutionProfile(LinearSpeedup(), 0.0)

    def test_from_table(self):
        p = ExecutionProfile.from_table({1: 10.0, 3: 4.0})
        assert p.time(3) == 4.0


class TestQueries:
    def test_time_linear(self):
        p = ExecutionProfile(LinearSpeedup(), 40.0)
        assert p.time(4) == pytest.approx(10.0)

    def test_time_memoized(self):
        p = ExecutionProfile(DowneySpeedup(8, 1.0), 10.0)
        assert p.time(4) == p.time(4)
        assert 4 in p._cache

    def test_gain_positive_when_scaling(self):
        p = ExecutionProfile(LinearSpeedup(), 40.0)
        assert p.gain(1) == pytest.approx(20.0)

    def test_gain_zero_on_plateau(self):
        p = ExecutionProfile(LinearSpeedup(cap=2), 40.0)
        assert p.gain(2) == pytest.approx(0.0)

    def test_work_area(self):
        p = ExecutionProfile(AmdahlSpeedup(0.5), 10.0)
        assert p.work(2) == pytest.approx(2 * p.time(2))

    def test_efficiency_bounds(self):
        p = ExecutionProfile(AmdahlSpeedup(0.2), 10.0)
        for n in (1, 2, 8):
            assert 0 < p.efficiency(n) <= 1.0 + 1e-12
        assert p.efficiency(1) == pytest.approx(1.0)


class TestPbest:
    def test_pbest_capped_by_max(self):
        p = ExecutionProfile(LinearSpeedup(), 100.0)
        assert p.pbest(8) == 8

    def test_pbest_at_plateau_start(self):
        p = ExecutionProfile(LinearSpeedup(cap=3), 100.0)
        assert p.pbest(16) == 3

    def test_pbest_serial_task(self):
        p = ExecutionProfile(AmdahlSpeedup(1.0), 5.0)
        assert p.pbest(64) == 1

    def test_pbest_downey(self):
        # sigma=0: saturates exactly at A processors
        p = ExecutionProfile(DowneySpeedup(6, 0.0), 60.0)
        assert p.pbest(32) == 6

    def test_pbest_table_ignores_plateaus(self):
        p = ExecutionProfile.from_table({1: 10.0, 2: 10.0, 3: 6.0, 4: 6.0})
        assert p.pbest(8) == 3

    def test_pbest_validates_arg(self):
        p = ExecutionProfile(LinearSpeedup(), 1.0)
        with pytest.raises(ValueError):
            p.pbest(0)


class TestInvalidProfileError:
    """Out-of-range parameters raise the typed error, still a ValueError."""

    def test_is_a_profile_error_and_a_value_error(self):
        assert issubclass(InvalidProfileError, ProfileError)
        assert issubclass(InvalidProfileError, ValueError)
        assert "InvalidProfileError" in exceptions.__all__

    @pytest.mark.parametrize("seq", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_sequential_time(self, seq):
        with pytest.raises(InvalidProfileError, match="sequential_time"):
            ExecutionProfile(LinearSpeedup(), seq)

    @pytest.mark.parametrize("serial", [1.5, -0.1, math.nan])
    def test_amdahl_fraction_out_of_range(self, serial):
        with pytest.raises(InvalidProfileError, match="serial_fraction"):
            AmdahlSpeedup(serial)

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -2.0])
    def test_bad_table_entry(self, t):
        with pytest.raises(InvalidProfileError, match="time at p="):
            TableSpeedup({1: 10.0, 2: t})

    @pytest.mark.parametrize(
        "A, sigma", [(0.5, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                     (4.0, -0.1), (4.0, math.nan)],
    )
    def test_bad_downey_parameters(self, A, sigma):
        with pytest.raises(InvalidProfileError):
            DowneySpeedup(A, sigma)

    @pytest.mark.parametrize("width", ["x", "2.5", "0", "-1"])
    def test_bad_table_width_key_in_a_graph_document(self, width):
        doc = {
            "tasks": [
                {
                    "name": "t",
                    "sequential_time": 1.0,
                    "model": {"type": "table", "times": {"1": 1.0, width: 0.5}},
                }
            ],
            "edges": [],
        }
        with pytest.raises(InvalidProfileError) as info:
            graph_from_dict(doc)
        assert isinstance(info.value, ProfileError)
        assert isinstance(info.value, ValueError)

    def test_non_int_width_keeps_type_error(self):
        p = ExecutionProfile(LinearSpeedup(), 1.0)
        with pytest.raises(TypeError):
            p.time(1.5)
        with pytest.raises(TypeError):
            ExecutionProfile(LinearSpeedup(), "1.0")


class TestUncheckedTime:
    def test_equals_time_on_hits_and_misses(self):
        p = ExecutionProfile(AmdahlSpeedup(0.2), 30.0)
        assert p._time(3) == p.time(3)  # miss, then hit
        assert p._time(3) == p.time(3)
        assert p._time(5) == AmdahlSpeedup(0.2).execution_time(30.0, 5)

    def test_miss_goes_through_the_checked_time(self):
        p = ExecutionProfile(LinearSpeedup(), 1.0)
        with pytest.raises(ValueError):
            p._time(0)
