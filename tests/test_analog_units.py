"""Tests for repro.analog.units."""

import pytest

from repro.analog.units import (
    parse_value,
    thermal_voltage,
)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("200n", 200e-9),
        ("1p", 1e-12),
        ("20f", 20e-15),
        ("25ns", 25e-9),
        ("0.5ms", 0.5e-3),
        ("10k", 10e3),
        ("100meg", 100e6),
        ("2.2u", 2.2e-6),
        ("1.5", 1.5),
        ("5v", 5.0),
        ("3hz", 3.0),
        ("10kohm", 10e3),
        ("-0.4", -0.4),
        ("1e-9", 1e-9),
    ],
)
def test_parse_value_known_suffixes(text, expected):
    assert parse_value(text) == pytest.approx(expected, rel=1e-12)


def test_parse_value_passes_numbers_through():
    assert parse_value(3) == 3.0
    assert parse_value(0.25) == 0.25


def test_parse_value_femto_beats_farad_unit_name():
    # SPICE precedence: "f" is femto, not farad.
    assert parse_value("20f") == pytest.approx(20e-15)


def test_parse_value_rejects_garbage():
    with pytest.raises(ValueError):
        parse_value("abc")
    with pytest.raises(ValueError)as err:
        parse_value("10q")
    assert "unknown unit suffix" in str(err.value)


def test_thermal_voltage_room_temperature():
    assert thermal_voltage() == pytest.approx(0.02585, rel=1e-2)


def test_thermal_voltage_scales_with_temperature():
    assert thermal_voltage(600.3) == pytest.approx(2 * thermal_voltage(300.15), rel=1e-9)
