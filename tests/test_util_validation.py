"""Tests for repro.util.validation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.util.validation import (
    check_bool,
    check_finite,
    check_int,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_quantile,
)


class TestCheckFinite:
    def test_passes_and_coerces(self):
        assert check_finite(3, "x") == 3.0
        assert isinstance(check_finite(3, "x"), float)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), "3", True, None],
    )
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ConfigurationError, match="x"):
            check_finite(bad, "x")


class TestCheckInt:
    @pytest.mark.parametrize("good", [3, np.int64(3), np.uint8(3)])
    def test_accepts_integers_and_coerces(self, good):
        assert check_int(good, "x", 1) == 3
        assert type(check_int(good, "x", 1)) is int

    def test_minimum_is_inclusive(self):
        assert check_int(0, "x", 0) == 0
        with pytest.raises(ConfigurationError, match="x must be an integer >= 1"):
            check_int(0, "x", 1)

    @pytest.mark.parametrize(
        "bad", [True, False, np.bool_(True), 2.5, 2.0, np.float64(2.0), "2",
                None],
    )
    def test_rejects_bools_and_non_integers(self, bad):
        with pytest.raises(ConfigurationError, match="x must be an integer"):
            check_int(bad, "x", 0)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(0.1, "x") == 0.1

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive(bad, "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_non_negative(-0.001, "x")


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(1.0, 1.0, 2.0, "x") == 1.0
        assert check_in_range(2.0, 1.0, 2.0, "x") == 2.0

    def test_rejects_outside(self):
        with pytest.raises(ConfigurationError):
            check_in_range(2.5, 1.0, 2.0, "x")


class TestCheckProbability:
    def test_accepts_half(self):
        assert check_probability(0.5, "p") == 0.5

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_probability(bad, "p")


class TestCheckBool:
    def test_accepts_bools(self):
        assert check_bool(True, "flag") is True
        assert check_bool(False, "flag") is False
        assert check_bool(np.bool_(True), "flag") is True

    @pytest.mark.parametrize("bad", ["no", 0, 1.0, None])
    def test_rejects_truthy_stand_ins(self, bad):
        with pytest.raises(ConfigurationError, match="flag must be a bool"):
            check_bool(bad, "flag")


class TestCheckQuantile:
    def test_accepts_interior(self):
        assert check_quantile(np.float64(0.9), "q") == 0.9

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, float("nan"), "0.9"])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError, match="q must be"):
            check_quantile(bad, "q")
