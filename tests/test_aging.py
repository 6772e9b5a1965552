"""Thermal aging acceleration factor and parallel-bank load sharing."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridimpact.aging import aging_acceleration, parallel_overload

# independent recomputation of the published operating points:
#   F_AA(theta) = exp(15000/383 - 15000/(theta + 273))
F_AA_160 = math.exp(15000.0 / 383.0 - 15000.0 / 433.0)  # 92.0616562...
F_AA_200 = math.exp(15000.0 / 383.0 - 15000.0 / 473.0)  # 1723.336107...
NAN, INF = float("nan"), float("inf")


class TestAccelerationFactor:
    def test_unity_at_reference(self):
        assert aging_acceleration(110.0) == 1.0

    def test_published_operating_points(self):
        assert aging_acceleration(160.0) == pytest.approx(92.06, abs=0.5)
        assert aging_acceleration(200.0) == pytest.approx(1723.3, abs=10.0)

    def test_exact_closed_form(self):
        assert aging_acceleration(160.0) == pytest.approx(F_AA_160, rel=1e-12)
        assert aging_acceleration(200.0) == pytest.approx(F_AA_200, rel=1e-12)

    def test_rejects_below_absolute_zero(self):
        with pytest.raises(ValueError):
            aging_acceleration(-300.0)

    def test_pole_of_the_law_rejected(self):
        """At -273 C the exponent divides by zero; the law refuses it
        with a ValueError rather than a ZeroDivisionError."""
        with pytest.raises(ValueError, match="absolute zero"):
            aging_acceleration(-273.0)

    def test_cool_winding_ages_slower_than_normal(self):
        expected = math.exp(15000.0 / 383.0 - 15000.0 / 371.0)
        assert aging_acceleration(98.0) == pytest.approx(expected, rel=1e-12)
        assert aging_acceleration(98.0) < 1.0

    @given(theta=st.floats(-50.0, 250.0))
    @settings(max_examples=100)
    def test_monotone_increasing(self, theta):
        assert aging_acceleration(theta + 1.0) > aging_acceleration(theta)

    def test_doubling_ratio_at_reference(self):
        ratio = aging_acceleration(116.0) / aging_acceleration(110.0)
        assert ratio == pytest.approx(1.8296, abs=1e-3)

    @given(theta=st.floats(80.0, 140.0))
    @settings(max_examples=100)
    def test_roughly_doubles_every_six_degrees(self, theta):
        """Near the reference temperature; the interval stretches when hot."""
        ratio = aging_acceleration(theta + 6.0) / aging_acceleration(theta)
        assert 1.6 <= ratio <= 2.1


class TestParallelSharing:
    def test_two_unit_bank_normal(self):
        assert parallel_overload(20.0, [12.5, 12.5]) == [0.8, 0.8]

    def test_one_unit_tripped_doubles_the_other(self):
        assert parallel_overload(20.0, [12.5, 12.5], out_of_service=[0]) == \
            [0.0, 1.6]

    def test_unequal_ratings(self):
        fractions = parallel_overload(30.0, [10.0, 20.0])
        assert fractions == [1.5, 0.75]

    def test_all_units_out_rejected(self):
        with pytest.raises(ValueError, match="all units"):
            parallel_overload(10.0, [12.5], out_of_service=[0])

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            parallel_overload(10.0, [12.5, 12.5], out_of_service=[5])

    def test_nonpositive_rating_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            parallel_overload(10.0, [12.5, 0.0])

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            parallel_overload(-1.0, [12.5])

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="all units"):
            parallel_overload(10.0, [])

    def test_negative_index_rejected(self):
        """Indices count from the first unit; -1 is not the last one."""
        with pytest.raises(ValueError, match="out of range"):
            parallel_overload(10.0, [12.5, 12.5], out_of_service=[-1])

    def test_numpy_integer_index_accepted(self):
        assert parallel_overload(20.0, [12.5, 12.5], out_of_service=[np.int64(0)]) == \
            [0.0, 1.6]

    def test_repeated_index_counts_once(self):
        assert parallel_overload(30.0, [10.0, 10.0, 10.0], out_of_service=[0, 0]) == \
            [0.0, 1.5, 1.5]

    def test_out_of_service_from_a_generator(self):
        tripped = (i for i in (1,))
        assert parallel_overload(20.0, [12.5, 12.5], out_of_service=tripped) == \
            [1.6, 0.0]

    def test_zero_load_leaves_every_unit_unloaded(self):
        assert parallel_overload(0.0, [12.5, 20.0], out_of_service=[1]) == [0.0, 0.0]

    @given(
        load=st.floats(0.0, 500.0),
        ratings=st.lists(st.floats(1.0, 100.0), min_size=1, max_size=6),
    )
    @settings(max_examples=100)
    def test_shares_recover_total(self, load, ratings):
        fractions = parallel_overload(load, ratings)
        carried = sum(f * r for f, r in zip(fractions, ratings))
        assert carried == pytest.approx(load, rel=1e-9, abs=1e-9)

    @given(
        load=st.floats(0.0, 500.0),
        scale=st.floats(0.5, 4.0),
        ratings=st.lists(st.floats(1.0, 100.0), min_size=1, max_size=6),
    )
    @settings(max_examples=100)
    def test_fractions_scale_linearly_with_load(self, load, scale, ratings):
        base = parallel_overload(load, ratings)
        scaled = parallel_overload(load * scale, ratings)
        for b, s in zip(base, scaled):
            assert s == pytest.approx(b * scale, rel=1e-9, abs=1e-12)

    @given(
        load=st.floats(1.0, 100.0),
        out=st.integers(0, 2),
    )
    @settings(max_examples=50)
    def test_outage_raises_survivor_loading(self, load, out):
        ratings = [20.0, 20.0, 20.0]
        base = parallel_overload(load, ratings)
        reduced = parallel_overload(load, ratings, out_of_service=[out])
        survivors = [i for i in range(3) if i != out]
        assert reduced[out] == 0.0
        for i in survivors:
            assert reduced[i] > base[i]


@pytest.mark.parametrize("law, args", [
    pytest.param(aging_acceleration, (NAN,), id="nan-hotspot"),
    pytest.param(aging_acceleration, (INF,), id="inf-hotspot"),
    pytest.param(aging_acceleration, (-INF,), id="minus-inf-hotspot"),
    pytest.param(parallel_overload, (NAN, [1.0, 1.0]), id="nan-load"),
    pytest.param(parallel_overload, (INF, [1.0, 1.0]), id="inf-load"),
    pytest.param(parallel_overload, (1.0, [1.0, -INF]), id="minus-inf-rating"),
    pytest.param(parallel_overload, (1.0, [NAN, 1.0]), id="nan-rating"),
    pytest.param(parallel_overload, (1.0, [1.0, INF], [1]), id="inf-rating-out-of-service"),
    pytest.param(parallel_overload, (1.0, [1.0, 1.0], [0.5]), id="fractional-index"),
    pytest.param(parallel_overload, (1.0, [1.0, 1.0], ["0"]), id="string-index"),
    pytest.param(parallel_overload, (1.0, [1.0, 1.0], [NAN]), id="nan-index"),
])
def test_non_finite_input_and_non_integer_index_rejected(law, args):
    with pytest.raises(ValueError, match="finite|integers"):
        law(*args)
