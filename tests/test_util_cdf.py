"""Tests for repro.util.cdf."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.util.cdf import Cdf, empirical_cdf, fraction_at_least, percentile


class TestCdfConstruction:
    def test_sorts_values(self):
        cdf = Cdf(values=(3.0, 1.0, 2.0))
        assert cdf.values == (1.0, 2.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Cdf(values=())

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            Cdf(values=(1.0, float("nan")))

    def test_inf_rejected(self):
        with pytest.raises(ConfigurationError):
            Cdf(values=(1.0, float("inf")))

    def test_len(self):
        assert len(empirical_cdf([1, 2, 3])) == 3


class TestCdfQueries:
    def test_median_of_odd_sample(self):
        assert empirical_cdf([1, 2, 9]).median() == 2.0

    def test_min_max(self):
        cdf = empirical_cdf([5, 1, 3])
        assert cdf.min() == 1.0
        assert cdf.max() == 5.0

    def test_mean(self):
        assert empirical_cdf([1, 2, 3]).mean() == 2.0

    def test_percentile_bounds(self):
        cdf = empirical_cdf([1, 2, 3])
        assert cdf.percentile(0) == 1.0
        assert cdf.percentile(100) == 3.0

    def test_percentile_out_of_range(self):
        with pytest.raises(ConfigurationError):
            empirical_cdf([1]).percentile(101)

    def test_fraction_at_least(self):
        cdf = empirical_cdf([1, 2, 3, 4])
        assert cdf.fraction_at_least(3) == 0.5
        assert cdf.fraction_at_least(0) == 1.0
        assert cdf.fraction_at_least(5) == 0.0

    def test_fraction_at_most(self):
        cdf = empirical_cdf([1, 2, 3, 4])
        assert cdf.fraction_at_most(2) == 0.5

    def test_fraction_below_excludes_equal(self):
        cdf = empirical_cdf([0.0, 0.0, 1.0, -1.0])
        assert cdf.fraction_below(0.0) == 0.25


class TestCdfRendering:
    def test_series_endpoints(self):
        series = empirical_cdf([10, 20]).series(points=3)
        assert series[0] == (0.0, 10.0)
        assert series[-1] == (100.0, 20.0)

    def test_series_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            empirical_cdf([1]).series(points=1)


class TestModuleHelpers:
    def test_percentile_helper(self):
        assert percentile([1, 2, 3], 50) == 2.0

    def test_fraction_helper(self):
        assert fraction_at_least([1, 2, 3], 2) == pytest.approx(2 / 3)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_percentile_monotone(sample):
    cdf = empirical_cdf(sample)
    qs = np.linspace(0, 100, 11)
    values = [cdf.percentile(float(q)) for q in qs]
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       st.floats(-1e6, 1e6))
def test_fractions_complement(sample, threshold):
    cdf = empirical_cdf(sample)
    below = cdf.fraction_below(threshold)
    at_least = cdf.fraction_at_least(threshold)
    assert below + at_least == pytest.approx(1.0)
