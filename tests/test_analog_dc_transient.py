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
from repro.analog.compiled import CompiledCircuit
from repro.analog.mna import (
    ConvergenceError,
    MNASystem,
    SolverOptions,
    StampState,
    newton_solve,
)
from repro.analog.mosfet import NMOS_65NM, PMOS_65NM


def voltage_divider(r_top="1k", r_bottom="1k", supply=1.0):
    circuit = Circuit("divider")
    circuit.add_voltage_source("V1", "in", "0", supply)
    circuit.add_resistor("R1", "in", "out", r_top)
    circuit.add_resistor("R2", "out", "0", r_bottom)
    return circuit


def cmos_inverter(vin=0.0):
    circuit = Circuit("inv")
    circuit.add_voltage_source("VDD", "vdd", "0", 1.0)
    circuit.add_voltage_source("VIN", "in", "0", vin)
    circuit.add_mosfet("MP", "out", "in", "vdd", PMOS_65NM, width="400n", length="65n")
    circuit.add_mosfet("MN", "out", "in", "0", NMOS_65NM, width="520n", length="65n")
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


class TestCompiledRHSIsBuiltPerSolve:
    """The compiled engine builds sources and capacitor companions once per
    Newton solve; no solve may see the right-hand side of another."""

    @pytest.mark.parametrize(
        "build, source, values",
        [
            (voltage_divider, "V1", [0.0, 0.5, 2.0]),
            (cmos_inverter, "VIN", list(np.linspace(0.0, 1.0, 11))),
        ],
    )
    def test_dc_sweep_matches_fresh_solves(self, build, source, values):
        circuit = build()
        sweep = dc_sweep(circuit, source, values, engine="auto")
        guess = None
        for value, op in zip(values, sweep.operating_points):
            circuit[source].value = value
            fresh = CompiledCircuit(circuit)
            solution = newton_solve(fresh, StampState(system=fresh), guess)
            assert op.node_voltages == fresh.solution_as_dict(solution)
            guess = solution

    @pytest.mark.parametrize("build, source", [(voltage_divider, "V1"), (cmos_inverter, "VIN")])
    def test_source_change_between_solves_on_one_state(self, build, source):
        circuit = build()
        system = CompiledCircuit(circuit)
        state = StampState(system=system)
        first = newton_solve(system, state)
        circuit[source].value = 0.75
        second = newton_solve(system, state, first)
        fresh = CompiledCircuit(circuit)
        expected = newton_solve(fresh, StampState(system=fresh), first)
        np.testing.assert_array_equal(second, expected)
        assert not np.array_equal(second, first)

    def test_gmin_stepping_rereads_the_sources(self):
        calls = []

        def vin(time):
            # NaN on the first read fails the plain solve; gmin stepping
            # must then read the source again for each of its solves.
            calls.append(time)
            return float("nan") if len(calls) == 1 else 0.3

        system = CompiledCircuit(cmos_inverter(vin))
        options = SolverOptions()
        with np.errstate(invalid="ignore"):
            solution = newton_solve(system, StampState(system=system), options=options)
        assert len(calls) == 1 + len(options.gmin_stepping)
        reference = dc_operating_point(cmos_inverter(0.3), engine="scalar")
        op = system.solution_as_dict(solution)
        for node in ("in", "out", "vdd"):
            assert op[node] == pytest.approx(reference[node], abs=1e-5)

    def test_subdivided_step_builds_its_own_rhs(self, monkeypatch):
        # An RC-loaded inverter under a pulse: every sub-step has its own
        # time, dt, source value and previous solution.  The step to 30 ns
        # fails once and is split into four, the last of which ends at the
        # same time as the failed solve; the scalar engine, which stamps
        # everything per iteration, is the reference.
        def build():
            circuit = cmos_inverter(
                PulseSource(0, 1, delay="20n", rise="10n", fall="10n", width="50n", period="200n")
            )
            circuit.add_capacitor("CL", "out", "0", "5f")
            return circuit

        failed, solved_dts = [], []

        def failing_once_at_30n(system, state, guess=None, options=None):
            if state.analysis == "transient":
                if state.time == pytest.approx(30e-9) and not failed:
                    # One damped iteration from the previous solution cannot
                    # follow the 1 V input edge: the solve builds the step's
                    # RHS, then fails.
                    failed.append(state.dt)
                    one_iteration = SolverOptions(max_iterations=1, gmin_stepping=(1e-12,))
                    newton_solve(system, state, state.previous, one_iteration)
                    raise AssertionError("the forced failure converged")
                solved_dts.append(state.dt)
            return newton_solve(system, state, guess, options)

        monkeypatch.setattr("repro.analog.transient.newton_solve", failing_once_at_30n)
        results = {}
        for engine in ("auto", "scalar"):
            failed.clear()
            solved_dts.clear()
            results[engine] = transient_analysis(
                build(),
                stop_time="100n",
                time_step="10n",
                use_initial_conditions=True,
                engine=engine,
            )
            assert failed == [pytest.approx(10e-9)]
            assert solved_dts.count(pytest.approx(2.5e-9)) == 4
        np.testing.assert_allclose(
            results["auto"].voltage("out"), results["scalar"].voltage("out"), atol=1e-5
        )
