"""Lockstep batched simulation of parameter variants of one topology.

The figure workloads run the *same circuit topology* many times with only
parameter values changed (VDD grids, sizing factors, bias sweeps).
:class:`BatchedCircuit` compiles B such variants side by side and advances
them in lockstep.  Each solve stacks every variant's base linear matrix and
source/companion right-hand side once; each Newton iteration then copies
that stack into a ``(B, N, N)`` matrix and ``(B, N)`` RHS, evaluates all
B×M transistors in a single vectorised call, scatters their stamps through
the compiled maps with per-variant offsets, and solves every variant at
once with batched ``np.linalg.solve``.

Entry points:

* :func:`batched_transient_analysis` — fixed-step backward-Euler transients
  of B variants, returning one :class:`~repro.analog.transient.TransientResult`
  per variant.  On a lockstep convergence failure the affected step falls
  back to the per-variant compiled engine (with its gmin stepping and step
  subdivision), so robustness matches the scalar path.
* :func:`batched_dc_sweep` / :func:`batched_operating_points` — DC solves of
  B variants in lockstep (threshold-vs-VDD and driver-amplitude grids).

All variants must share a topology (same nodes, same device names/types in
the same order) — :func:`assert_same_topology` checks this and raises
:class:`TopologyMismatchError` otherwise, which callers use to fall back to
serial execution.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.analog.compiled import CompiledCircuit, EngineStats, scatter
from repro.analog.dc import DCSweepResult, OperatingPoint, _solution_to_op
from repro.analog.devices import CurrentSource, VoltageSource
from repro.analog.mna import (
    ConvergenceError,
    SolverOptions,
    StampState,
    _clip,
    _max_reduce,
    newton_solve,
    seed_solution_vector,
)
from repro.analog.netlist import Circuit
from repro.analog.transient import (
    TransientResult,
    _advance,
    _TraceRecorder,
    initial_condition_vector,
    time_grid,
)
from repro.analog.units import ValueLike, parse_value
from repro.utils.validation import check_positive


class TopologyMismatchError(ValueError):
    """Raised when circuits handed to the batched engine differ in topology."""


def assert_same_topology(circuits: Sequence[Circuit]) -> None:
    """Validate that every circuit is a parameter variant of the first.

    Checks node sets and the device list (names, exact types, node wiring,
    order).  Device *parameters* (source values, R/C values, transistor
    geometry) are free to differ — that is the point of batching.
    """
    if not circuits:
        raise ValueError("batched execution needs at least one circuit")
    reference = circuits[0]
    ref_nodes = reference.nodes()
    ref_devices = [(d.name, type(d), d.nodes, d.n_branches) for d in reference.devices]
    for circuit in circuits[1:]:
        if circuit.nodes() != ref_nodes:
            raise TopologyMismatchError(
                f"circuit {circuit.name!r} has different nodes than "
                f"{reference.name!r}"
            )
        devices = [(d.name, type(d), d.nodes, d.n_branches) for d in circuit.devices]
        if devices != ref_devices:
            raise TopologyMismatchError(
                f"circuit {circuit.name!r} has a different device list than "
                f"{reference.name!r}"
            )


def shares_topology(circuits: Sequence[Circuit]) -> bool:
    """Whether the circuits are parameter variants of one topology.

    That is the batched engine's precondition; a device type the compiler
    does not know still raises ``TypeError`` when the batch is built.
    """
    try:
        assert_same_topology(circuits)
    except TopologyMismatchError:
        return False
    return True


class BatchedCircuit:
    """B compiled variants of one topology advanced in lockstep.

    Wraps one :class:`~repro.analog.compiled.CompiledCircuit` per variant
    (reused verbatim for the per-variant fallback path) plus stacked
    parameter arrays for cross-variant vectorised device evaluation.
    """

    def __init__(self, circuits: Sequence[Circuit]) -> None:
        assert_same_topology(circuits)
        self.circuits = list(circuits)
        self.members: List[CompiledCircuit] = [CompiledCircuit(c) for c in circuits]
        reference = self.members[0]
        self.reference = reference
        self.batch_size = len(self.members)
        self.size = reference.size
        self.n_nodes = reference.n_nodes
        self.is_nonlinear = reference.is_nonlinear
        self.stats = EngineStats()
        # Stacked flat workspaces (matrix then RHS per variant, the layout of
        # CompiledCircuit) and the per-variant stamp blocks.
        b, n = self.batch_size, self.size
        work = n * n + n
        self._work = np.zeros((b, work))
        self._matrix = self._work[:, : n * n].reshape(b, n, n)
        self._rhs = self._work[:, n * n :]
        self._solve_base = np.zeros((b, work))
        self._padded_guess = np.zeros((b, n + 1))
        self._padded_prev = np.zeros((b, n + 1))
        self._block = np.zeros((b, len(reference._block)))
        self._components = self._block[:, :-1].reshape(b, *reference._components.shape)
        self._maps = reference.scatter_maps(b)
        self._cap_target = (
            (n * n + reference._cap_rhs_idx)[None, :]
            + np.arange(b, dtype=np.intp)[:, None] * work
        )
        # Per-variant parameter stacks of the MOSFETs.
        self._mosfet_params = (
            None
            if reference._mosfets is None
            else reference._mosfets.stacked_params(
                [member._mosfets for member in self.members]
            )
        )
        self._cap_values = np.stack([m._cap_values for m in self.members])

    # ---------------------------------------------------------------- assembly
    def _begin_solve(
        self,
        analysis: str,
        time: float,
        dt: float,
        previous: Optional[np.ndarray],
        gmin: float,
    ) -> None:
        """Build every variant's linear matrix, source/companion RHS and gmin.

        The lockstep counterpart of :meth:`CompiledCircuit.begin_solve`:
        built once per solve, copied per iteration by :meth:`_assemble`.
        """
        base = self._solve_base
        key = self.reference.step_key(analysis, dt)
        for b, member in enumerate(self.members):
            base[b] = member._base_for(key, analysis, dt)
            member._assemble_source_rhs(base[b, self.size * self.size :], time)
        reference = self.reference
        if analysis == "transient" and previous is not None:
            prev = self._padded_prev
            prev[:, : self.size] = previous
            if self._cap_values.shape[1]:
                injection = (self._cap_values / dt) * (
                    prev[:, reference._cap_a_gather] - prev[:, reference._cap_b_gather]
                )
                np.add.at(
                    base.ravel(),
                    self._cap_target,
                    reference._cap_rhs_sign * injection[:, reference._cap_rhs_src],
                )
        self._block[:, -1] = gmin

    def _assemble(self, guess: np.ndarray) -> tuple:
        """One lockstep assembly at ``guess`` into the stacked workspace."""
        np.copyto(self._work, self._solve_base)
        mosfets = self.reference._mosfets
        if mosfets is not None:
            padded = self._padded_guess
            padded[:, : self.size] = guess
            mosfets.evaluate(padded, self._components, self._mosfet_params)
        scatter(self._work.ravel(), self._block.ravel(), self._maps)
        self.stats.assemblies += self.batch_size
        return self._matrix, self._rhs

    # ------------------------------------------------------------------ newton
    def solve_point(
        self,
        analysis: str,
        time: float,
        dt: float,
        previous: Optional[np.ndarray],
        guess: np.ndarray,
        options: SolverOptions,
    ) -> np.ndarray:
        """Damped lockstep Newton (mirrors ``mna._newton_iterate``).

        Every variant follows exactly the iterate sequence it would follow
        under the scalar engine: a variant that satisfies the convergence
        criterion is *frozen* (no further updates), so the surviving
        variants keep iterating without perturbing the finished ones.
        Raises :class:`ConvergenceError` when any variant exhausts the
        iteration budget — the caller then reruns the point per-variant
        through the scalar path (which adds gmin stepping/subdivision).
        """
        x = guess.copy()
        active = np.ones(self.batch_size, dtype=bool)
        n_nodes = self.n_nodes
        self._begin_solve(analysis, time, dt, previous, options.gmin)
        sixth, third = options.max_iterations // 6, options.max_iterations // 3
        for iteration in range(options.max_iterations):
            matrix, rhs = self._assemble(x)
            x_new = np.linalg.solve(matrix, rhs[..., None])[..., 0]
            if not self.is_nonlinear:
                return x_new
            delta = x_new - x
            node_delta = delta[:, :n_nodes]
            step_limit = options.max_voltage_step
            if iteration >= third:
                step_limit *= 0.25
            elif iteration >= sixth:
                step_limit *= 0.5
            _clip(node_delta, -step_limit, step_limit, out=node_delta)
            x[active] += delta[active]
            max_delta = _max_reduce(np.abs(node_delta), axis=1)
            scale = _max_reduce(np.abs(x[:, :n_nodes]), axis=1)
            tolerance = options.voltage_tolerance + (
                options.relative_tolerance * np.maximum(scale, 1.0)
            )
            active &= max_delta > tolerance
            if not active.any():
                return x
        raise ConvergenceError(
            f"lockstep Newton failed to converge for batch of "
            f"{self.batch_size} x {self.reference.circuit.name!r} "
            f"(analysis={analysis}, t={time:g}s)"
        )

    # ---------------------------------------------------------------- fallback
    def solve_member(
        self,
        index: int,
        analysis: str,
        time: float,
        guess: np.ndarray,
        options: SolverOptions,
    ) -> np.ndarray:
        """Scalar-engine solve of one variant (lockstep rescue path)."""
        member = self.members[index]
        state = StampState(system=member, analysis=analysis, time=time)
        return newton_solve(member, state, guess, options)


def _merge_member_stats(batch: BatchedCircuit) -> EngineStats:
    """Batch counters plus whatever the per-variant fallbacks accumulated."""
    total = EngineStats()
    total.merge(batch.stats)
    for member in batch.members:
        total.merge(member.stats)
    return total


def batched_transient_analysis(
    circuits: Sequence[Circuit],
    *,
    stop_time: ValueLike,
    time_step: ValueLike,
    initial_voltages: Union[Dict[str, float], Sequence[Dict[str, float]], None] = None,
    use_initial_conditions: bool = False,
    record_nodes: Optional[Sequence[str]] = None,
    options: Optional[SolverOptions] = None,
) -> List[TransientResult]:
    """Fixed-step backward-Euler transients of B variants in lockstep.

    The call signature mirrors :func:`repro.analog.transient.transient_analysis`
    (fixed-step mode); ``initial_voltages`` may be one shared mapping or one
    mapping per variant.  Returns one :class:`TransientResult` per
    circuit, in input order.  Steps where the lockstep Newton fails are
    re-run per-variant through the compiled scalar path (gmin stepping plus
    recursive subdivision), so a single stiff variant cannot poison the
    batch.
    """
    stop_time = check_positive(parse_value(stop_time), "stop_time")
    time_step = check_positive(parse_value(time_step), "time_step")
    if time_step > stop_time:
        raise ValueError("time_step must not exceed stop_time")
    batch = BatchedCircuit(circuits)
    options = options or SolverOptions()

    per_member_ivs: List[Optional[Dict[str, float]]]
    if initial_voltages is None or isinstance(initial_voltages, dict):
        per_member_ivs = [initial_voltages] * batch.batch_size
    else:
        if len(initial_voltages) != batch.batch_size:
            raise ValueError(
                "initial_voltages must be one mapping or one per circuit"
            )
        per_member_ivs = list(initial_voltages)

    solution = np.zeros((batch.batch_size, batch.size))
    if use_initial_conditions:
        for b, (member, ivs) in enumerate(zip(batch.members, per_member_ivs)):
            solution[b] = initial_condition_vector(member, member.circuit, ivs)
    else:
        guess = np.zeros_like(solution)
        for b, (member, ivs) in enumerate(zip(batch.members, per_member_ivs)):
            seed_solution_vector(member, ivs, guess[b])
        try:
            solution = batch.solve_point("dc", 0.0, 1e-9, None, guess, options)
        except (ConvergenceError, np.linalg.LinAlgError):
            for b in range(batch.batch_size):
                solution[b] = batch.solve_member(b, "dc", 0.0, guess[b], options)

    times = time_grid(stop_time, time_step)
    recorders = []
    for member in batch.members:
        recorded = (
            list(record_nodes) if record_nodes is not None else member.node_names
        )
        member_branches = [d for d in member.circuit.devices if d.n_branches]
        recorders.append(
            _TraceRecorder(member, recorded, member_branches, len(times))
        )

    for b, recorder in enumerate(recorders):
        recorder.append(0.0, solution[b])
    for step in range(1, len(times)):
        t_start, t_stop = float(times[step - 1]), float(times[step])
        dt = t_stop - t_start
        try:
            solution = batch.solve_point(
                "transient", t_stop, dt, solution, solution, options
            )
        except (ConvergenceError, np.linalg.LinAlgError):
            # Lockstep rescue: advance each variant through the compiled
            # scalar path, which subdivides stiff intervals individually.
            rescued = np.empty_like(solution)
            for b, member in enumerate(batch.members):
                rescued[b] = _advance(
                    member, solution[b].copy(), t_start, t_stop, options, depth=0
                )
            solution = rescued
        for b, recorder in enumerate(recorders):
            recorder.append(t_stop, solution[b])

    batch.stats = _merge_member_stats(batch)
    return [
        recorder.finalise(member.circuit.name)
        for recorder, member in zip(recorders, batch.members)
    ]


def batched_operating_points(
    circuits: Sequence[Circuit],
    *,
    initial_guesses: Optional[Sequence[Dict[str, float]]] = None,
    options: Optional[SolverOptions] = None,
) -> List[OperatingPoint]:
    """DC operating points of B topology-sharing variants in one lockstep solve.

    ``initial_guesses``, when given, holds one mapping per circuit.
    """
    batch = BatchedCircuit(circuits)
    options = options or SolverOptions()
    guess = np.zeros((batch.batch_size, batch.size))
    if initial_guesses is not None:
        if len(initial_guesses) != batch.batch_size:
            raise ValueError("initial_guesses must hold one mapping per circuit")
        for b, (member, ivs) in enumerate(zip(batch.members, initial_guesses)):
            seed_solution_vector(member, ivs, guess[b])
    try:
        solution = batch.solve_point("dc", 0.0, 1e-9, None, guess, options)
    except (ConvergenceError, np.linalg.LinAlgError):
        solution = np.stack(
            [
                batch.solve_member(b, "dc", 0.0, guess[b], options)
                for b in range(batch.batch_size)
            ]
        )
    batch.stats = _merge_member_stats(batch)
    return [
        _solution_to_op(member, solution[b])
        for b, member in enumerate(batch.members)
    ]


def batched_dc_sweep(
    circuits: Sequence[Circuit],
    source_name: str,
    values: np.ndarray,
    *,
    options: Optional[SolverOptions] = None,
) -> List[DCSweepResult]:
    """Sweep one named source across B variants in lockstep.

    ``values`` is either a shared ``(n_points,)`` grid or a per-variant
    ``(B, n_points)`` grid (e.g. a VIN ramp scaled to each variant's VDD).
    Continuation (previous solution as the next starting point) applies per
    variant exactly as in :func:`repro.analog.dc.dc_sweep`.  Returns one
    :class:`DCSweepResult` per circuit.
    """
    batch = BatchedCircuit(circuits)
    options = options or SolverOptions()
    grid = np.asarray(values, dtype=float)
    if grid.ndim == 1:
        grid = np.broadcast_to(grid, (batch.batch_size, len(grid)))
    elif grid.ndim != 2 or grid.shape[0] != batch.batch_size:
        raise ValueError(
            "values must be (n_points,) or (batch, n_points); got "
            f"shape {grid.shape}"
        )
    devices = []
    for circuit in batch.circuits:
        device = circuit[source_name]
        if not isinstance(device, (VoltageSource, CurrentSource)):
            raise TypeError(f"{source_name!r} is not an independent source")
        devices.append(device)
    originals = [device.value for device in devices]
    ops: List[List[OperatingPoint]] = [[] for _ in range(batch.batch_size)]
    guess = np.zeros((batch.batch_size, batch.size))
    try:
        for k in range(grid.shape[1]):
            for device, value in zip(devices, grid[:, k]):
                device.value = float(value)
            try:
                solution = batch.solve_point("dc", 0.0, 1e-9, None, guess, options)
            except (ConvergenceError, np.linalg.LinAlgError):
                solution = np.stack(
                    [
                        batch.solve_member(b, "dc", 0.0, guess[b], options)
                        for b in range(batch.batch_size)
                    ]
                )
            guess = solution
            for b, member in enumerate(batch.members):
                ops[b].append(_solution_to_op(member, solution[b]))
    finally:
        for device, original in zip(devices, originals):
            device.value = original
    batch.stats = _merge_member_stats(batch)
    return [
        DCSweepResult(
            source_name=source_name,
            values=np.array(grid[b], dtype=float),
            operating_points=ops[b],
        )
        for b in range(batch.batch_size)
    ]
