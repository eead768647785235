"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_fraction,
    check_in_choices,
    check_positive,
    check_positive_int,
    check_range,
)


def test_check_positive_accepts_positive():
    assert check_positive(3.5, "x") == 3.5


def test_check_positive_rejects_zero_when_strict():
    with pytest.raises(ValueError, match="x must be > 0"):
        check_positive(0, "x")


def test_check_positive_int_returns_an_int():
    for value in (3, 3.0, np.int64(3), np.float32(3.0)):
        result = check_positive_int(value, "n")
        assert result == 3 and type(result) is int


@pytest.mark.parametrize(
    "value", [0, -1, 0.5, 2.7, float("nan"), float("inf"), True, np.bool_(True), "3", None]
)
def test_check_positive_int_rejects_non_integral_values(value):
    with pytest.raises(ValueError, match="n must be a positive integer"):
        check_positive_int(value, "n")


def test_check_positive_allows_zero_when_not_strict():
    assert check_positive(0, "x", strict=False) == 0.0


def test_check_positive_rejects_negative_non_strict():
    with pytest.raises(ValueError):
        check_positive(-1, "x", strict=False)


@pytest.mark.parametrize("strict", [True, False])
def test_check_positive_rejects_nan(strict):
    with pytest.raises(ValueError, match="x must be"):
        check_positive(float("nan"), "x", strict=strict)


def test_check_positive_lets_inf_through():
    # Unbounded parameters (wmax) default to inf and pass through here.
    assert check_positive(float("inf"), "wmax") == float("inf")


def test_check_range_accepts_bounds():
    assert check_range(0.8, "vdd", 0.8, 1.2) == 0.8
    assert check_range(1.2, "vdd", 0.8, 1.2) == 1.2


def test_check_range_rejects_outside():
    with pytest.raises(ValueError, match="vdd must be in"):
        check_range(1.3, "vdd", 0.8, 1.2)


def test_check_fraction_bounds():
    assert check_fraction(0.0, "f") == 0.0
    assert check_fraction(1.0, "f") == 1.0
    with pytest.raises(ValueError):
        check_fraction(1.01, "f")


def test_check_in_choices_accepts_member():
    assert check_in_choices("a", "mode", ("a", "b")) == "a"


def test_check_in_choices_rejects_non_member():
    with pytest.raises(ValueError, match="mode must be one of"):
        check_in_choices("c", "mode", ("a", "b"))
