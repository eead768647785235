"""Tests for the transient engine's subdivision fallback, grid and traces."""

import numpy as np
import pytest

import repro.analog.transient as transient_module
from repro.analog import Circuit, transient_analysis
from repro.analog.mna import ConvergenceError, MNASystem, SolverOptions
from repro.analog.transient import (
    _MAX_SUBDIVISION_DEPTH,
    _SUBDIVISION_FACTOR,
    _advance,
)


def rc_circuit():
    circuit = Circuit("rc")
    circuit.add_voltage_source("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "out", "1k")
    circuit.add_capacitor("C1", "out", "0", "1u", initial_voltage=0.0)
    return circuit


class RecordingSolver:
    """A stand-in for ``newton_solve`` that fails above a dt threshold."""

    def __init__(self, fail_above_dt=None, always_fail=False):
        self.fail_above_dt = fail_above_dt
        self.always_fail = always_fail
        self.calls = []

    def __call__(self, system, state, guess, options):
        self.calls.append(float(state.dt))
        if self.always_fail or (
            self.fail_above_dt is not None and state.dt > self.fail_above_dt
        ):
            raise ConvergenceError("forced failure")
        return np.asarray(guess, dtype=float)


class TestSubdivisionFallback:
    def test_one_level_of_subdivision_on_failure(self, monkeypatch):
        system = MNASystem(rc_circuit())
        solver = RecordingSolver(fail_above_dt=0.5e-6)
        monkeypatch.setattr(transient_module, "newton_solve", solver)
        _advance(system, np.zeros(system.size), 0.0, 1e-6, SolverOptions(), depth=0)
        # One failed full-step attempt, then _SUBDIVISION_FACTOR sub-steps.
        assert len(solver.calls) == 1 + _SUBDIVISION_FACTOR
        assert solver.calls[0] == pytest.approx(1e-6)
        for sub_dt in solver.calls[1:]:
            assert sub_dt == pytest.approx(1e-6 / _SUBDIVISION_FACTOR)

    def test_recursive_subdivision_depth(self, monkeypatch):
        system = MNASystem(rc_circuit())
        # Fails at the full step AND at the first subdivision level, so every
        # first-level sub-step subdivides once more.  The 1.5x margin keeps
        # the threshold comparison robust to linspace rounding.
        solver = RecordingSolver(fail_above_dt=1.5e-6 / _SUBDIVISION_FACTOR**2)
        monkeypatch.setattr(transient_module, "newton_solve", solver)
        _advance(system, np.zeros(system.size), 0.0, 1e-6, SolverOptions(), depth=0)
        expected = 1 + _SUBDIVISION_FACTOR * (1 + _SUBDIVISION_FACTOR)
        assert len(solver.calls) == expected
        # The full step and each first-level sub-step failed once, so
        # 1 + _SUBDIVISION_FACTOR intervals were subdivided.
        finest = 1e-6 / _SUBDIVISION_FACTOR**2
        assert sum(dt == pytest.approx(finest) for dt in solver.calls) == (
            _SUBDIVISION_FACTOR**2
        )

    def test_failure_at_max_depth_is_raised(self, monkeypatch):
        system = MNASystem(rc_circuit())
        solver = RecordingSolver(always_fail=True)
        monkeypatch.setattr(transient_module, "newton_solve", solver)
        with pytest.raises(ConvergenceError):
            _advance(
                system, np.zeros(system.size), 0.0, 1e-6, SolverOptions(), depth=0
            )
        # Depth 0..(_MAX_SUBDIVISION_DEPTH) all attempt their first interval;
        # the terminal depth raises without subdividing further.
        assert len(solver.calls) == _MAX_SUBDIVISION_DEPTH + 1
        # Every retry shrank the local step by the subdivision factor.
        assert solver.calls[-1] == pytest.approx(
            1e-6 / _SUBDIVISION_FACTOR**_MAX_SUBDIVISION_DEPTH
        )

    def test_transient_analysis_surfaces_convergence_error(self, monkeypatch):
        solver = RecordingSolver(always_fail=True)
        monkeypatch.setattr(transient_module, "newton_solve", solver)
        with pytest.raises(ConvergenceError):
            transient_analysis(
                rc_circuit(),
                stop_time="10u",
                time_step="1u",
                use_initial_conditions=True,
            )


class TestFixedStepGrid:
    def test_fixed_mode_grid_is_exact(self):
        result = transient_analysis(
            rc_circuit(), stop_time="1m", time_step="100u", use_initial_conditions=True
        )
        assert len(result) == 11
        np.testing.assert_allclose(result.time, np.linspace(0.0, 1e-3, 11))


class TestTraceRecording:
    def test_record_nodes_subset_and_ground(self):
        result = transient_analysis(
            rc_circuit(),
            stop_time="1m",
            time_step="100u",
            use_initial_conditions=True,
            record_nodes=["out", "0"],
        )
        assert set(result.node_voltages) == {"out", "0"}
        np.testing.assert_array_equal(result.voltage("0"), np.zeros(len(result)))
        assert result.voltage("out")[-1] > 0.5

    def test_branch_current_of_source_recorded(self):
        result = transient_analysis(
            rc_circuit(), stop_time="1m", time_step="100u", use_initial_conditions=True
        )
        trace = result.current("V1")
        assert len(trace) == len(result)
        # The source charges the capacitor: current flows out of V1 at t=0+.
        assert abs(trace[1]) > abs(trace[-1])
