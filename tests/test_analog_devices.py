"""Tests for the linear devices and the pulse source."""

import pytest

from repro.analog.devices import (
    Capacitor,
    CurrentSource,
    PulseSource,
    Resistor,
    VoltageSource,
)


class TestPulseSource:
    def test_levels_through_one_period(self):
        pulse = PulseSource(0.0, 1.0, width="10n", period="20n", rise="1n", fall="1n")
        assert pulse(0.0) == 0.0
        assert pulse(0.5e-9) == pytest.approx(0.5)
        assert pulse(5e-9) == 1.0
        assert pulse(11.5e-9) == pytest.approx(0.5)
        assert pulse(15e-9) == 0.0

    def test_periodicity(self):
        pulse = PulseSource(0.0, 2.0, width="10n", period="20n")
        assert pulse(5e-9) == pulse(25e-9) == pulse(45e-9)

    def test_delay(self):
        pulse = PulseSource(0.0, 1.0, width="10n", period="20n", delay="100n")
        assert pulse(50e-9) == 0.0
        assert pulse(105e-9) == 1.0

    def test_rejects_inconsistent_period(self):
        with pytest.raises(ValueError, match="period"):
            PulseSource(0, 1, width="15n", period="10n")


class TestSimpleDevices:
    def test_resistor_requires_positive_value(self):
        with pytest.raises(ValueError):
            Resistor("R1", "a", "b", 0)

    def test_resistor_conductance_and_current(self):
        resistor = Resistor("R1", "a", "b", "2k")
        assert resistor.conductance == pytest.approx(5e-4)
        assert resistor.current(1.0, 0.0) == pytest.approx(5e-4)

    def test_capacitor_parses_value(self):
        assert Capacitor("C1", "a", "0", "10p").capacitance == pytest.approx(10e-12)

    def test_sources_evaluate_constants_and_waveforms(self):
        vsrc = VoltageSource("V1", "a", "0", "1.5")
        assert vsrc.value_at(0.0) == 1.5
        isrc = CurrentSource("I1", "a", "0", lambda t: 2.0 * t)
        assert isrc.value_at(3.0) == 6.0

    def test_device_repr_contains_name(self):
        assert "R1" in repr(Resistor("R1", "a", "b", 1.0))
