"""Tests for the DC and transient solvers against analytic circuit results."""

import numpy as np
import pytest

from repro.analog import (
    Circuit,
    PulseSource,
    dc_operating_point,
    dc_sweep,
    transient_analysis,
)
from repro.analog.mna import ConvergenceError, MNASystem, SolverOptions
from repro.analog.mosfet import NMOS_65NM, PMOS_65NM


def voltage_divider(r_top="1k", r_bottom="1k", supply=1.0):
    circuit = Circuit("divider")
    circuit.add_voltage_source("V1", "in", "0", supply)
    circuit.add_resistor("R1", "in", "out", r_top)
    circuit.add_resistor("R2", "out", "0", r_bottom)
    return circuit


class TestDCOperatingPoint:
    def test_voltage_divider(self):
        op = dc_operating_point(voltage_divider())
        assert op["out"] == pytest.approx(0.5, rel=1e-6)
        assert op["in"] == pytest.approx(1.0, rel=1e-9)

    def test_asymmetric_divider(self):
        op = dc_operating_point(voltage_divider("3k", "1k"))
        assert op["out"] == pytest.approx(0.25, rel=1e-6)

    def test_source_branch_current(self):
        op = dc_operating_point(voltage_divider("1k", "1k"))
        assert abs(op.current("V1")) == pytest.approx(0.5e-3, rel=1e-6)

    def test_current_source_into_resistor(self):
        circuit = Circuit("ir")
        circuit.add_current_source("I1", "0", "out", "1m")
        circuit.add_resistor("R1", "out", "0", "2k")
        op = dc_operating_point(circuit)
        assert op["out"] == pytest.approx(2.0, rel=1e-6)

    def test_ground_voltage_is_zero(self):
        op = dc_operating_point(voltage_divider())
        assert op.voltage("0") == 0.0

    def test_empty_circuit_rejected(self):
        with pytest.raises(ValueError):
            MNASystem(Circuit("empty"))


class TestDCSweep:
    def test_linear_sweep_tracks_source(self):
        circuit = voltage_divider()
        sweep = dc_sweep(circuit, "V1", np.linspace(0, 2, 5))
        assert np.allclose(sweep.voltage("out"), np.linspace(0, 1, 5), atol=1e-9)
        assert len(sweep) == 5

    def test_sweep_restores_original_source_value(self):
        circuit = voltage_divider(supply=1.0)
        dc_sweep(circuit, "V1", [0.0, 2.0])
        assert circuit["V1"].value == 1.0

    def test_sweep_rejects_non_source(self):
        circuit = voltage_divider()
        with pytest.raises(TypeError):
            dc_sweep(circuit, "R1", [1.0])


class TestTransient:
    def test_rc_charging_matches_analytic(self):
        circuit = Circuit("rc")
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", "1k")
        circuit.add_capacitor("C1", "out", "0", "1u")
        result = transient_analysis(
            circuit, stop_time="5m", time_step="10u", use_initial_conditions=True
        )
        tau = 1e-3
        expected = 1.0 - np.exp(-result.time / tau)
        # Backward Euler with tau/100 steps tracks the exponential closely.
        assert np.max(np.abs(result.voltage("out") - expected)) < 0.02

    def test_transient_starts_from_dc_by_default(self):
        circuit = Circuit("rc")
        circuit.add_voltage_source("V1", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "out", "1k")
        circuit.add_capacitor("C1", "out", "0", "1u")
        result = transient_analysis(circuit, stop_time="100u", time_step="10u")
        assert result.voltage("out")[0] == pytest.approx(1.0, abs=1e-3)

    def test_pulse_drives_rc(self):
        circuit = Circuit("rc_pulse")
        circuit.add_voltage_source(
            "V1", "in", "0", PulseSource(0, 1, width="1m", period="2m", rise="1u", fall="1u")
        )
        circuit.add_resistor("R1", "in", "out", "1k")
        circuit.add_capacitor("C1", "out", "0", "100n")
        result = transient_analysis(
            circuit, stop_time="2m", time_step="5u", use_initial_conditions=True
        )
        out = result.voltage("out")
        assert out.max() > 0.95
        assert out[-1] < 0.05

    def test_waveform_accessor_and_final_voltages(self):
        circuit = voltage_divider()
        circuit.add_capacitor("C1", "out", "0", "1n")
        result = transient_analysis(circuit, stop_time="1u", time_step="10n")
        wave = result.waveform("out")
        assert len(wave) == len(result)
        assert result.voltage("out")[-1] == pytest.approx(0.5, abs=1e-3)

    def test_invalid_time_step_rejected(self):
        with pytest.raises(ValueError):
            transient_analysis(voltage_divider(), stop_time="1u", time_step="2u")


class TestNonlinearSolver:
    def test_cmos_inverter_rails(self):
        circuit = Circuit("inv")
        circuit.add_voltage_source("VDD", "vdd", "0", 1.0)
        circuit.add_voltage_source("VIN", "in", "0", 0.0)
        circuit.add_mosfet("MP", "out", "in", "vdd", PMOS_65NM, width="400n", length="65n")
        circuit.add_mosfet("MN", "out", "in", "0", NMOS_65NM, width="520n", length="65n")
        low_in = dc_operating_point(circuit)
        assert low_in["out"] == pytest.approx(1.0, abs=0.01)
        circuit["VIN"].value = 1.0
        high_in = dc_operating_point(circuit)
        assert high_in["out"] == pytest.approx(0.0, abs=0.01)

    def test_solver_options_can_force_failure(self):
        # One damped iteration cannot carry the inverter's nodes from 0 V to
        # the 1 V rail.
        circuit = Circuit("inv")
        circuit.add_voltage_source("VDD", "vdd", "0", 1.0)
        circuit.add_voltage_source("VIN", "in", "0", 0.0)
        circuit.add_mosfet("MP", "out", "in", "vdd", PMOS_65NM, width="400n", length="65n")
        circuit.add_mosfet("MN", "out", "in", "0", NMOS_65NM, width="520n", length="65n")
        options = SolverOptions(max_iterations=1, gmin_stepping=(1e-3,))
        with pytest.raises(ConvergenceError):
            dc_operating_point(circuit, options=options)
