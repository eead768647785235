"""Modified nodal analysis (MNA) assembly and the Newton-Raphson engine.

The unknown vector is ``x = [node voltages..., branch currents...]`` where
branch currents exist for voltage sources.  The nonlinear devices (the
MOSFETs) are linearised around the present guess and the system is iterated
to convergence.

:class:`MNASystem` walks ``circuit.devices`` and calls each device's
``stamp``, so it solves any :class:`~repro.analog.devices.Device`.  It is
the reference that the compiled engine of :mod:`repro.analog.compiled` is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.analog.devices import Device
from repro.analog.netlist import Circuit, is_ground


# The ufuncs behind np.clip and np.max, called directly: the wrappers cost
# more than the work on a vector of a few tens of unknowns.
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # pragma: no cover - NumPy 1.x
    from numpy.core.umath import clip as _clip

_max_reduce = np.maximum.reduce


class ConvergenceError(RuntimeError):
    """Raised when Newton-Raphson fails to converge."""


@dataclass
class SolverOptions:
    """Tunable knobs of the nonlinear solver."""

    max_iterations: int = 150
    #: Absolute node-voltage convergence tolerance (volts).
    voltage_tolerance: float = 1e-6
    #: Relative convergence tolerance.
    relative_tolerance: float = 1e-6
    #: Maximum per-iteration change applied to any node voltage (damping).
    max_voltage_step: float = 0.3
    #: Diagonal conductance added to every node row for conditioning.
    gmin: float = 1e-12
    #: Sequence of gmin values tried when the plain solve does not converge.
    gmin_stepping: tuple = (1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12)


class MNASystem:
    """Index bookkeeping and matrix assembly for one circuit."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.node_names = circuit.nodes()
        self.node_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.node_names)
        }
        self.n_nodes = len(self.node_names)
        self.branch_owner: Dict[str, int] = {}
        branch = 0
        for device in circuit.devices:
            if device.n_branches:
                self.branch_owner[device.name] = branch
                branch += device.n_branches
        self.n_branches = branch
        self.size = self.n_nodes + self.n_branches
        if self.size == 0:
            raise ValueError(f"circuit {circuit.name!r} has no unknowns to solve for")
        #: Cached once: whether any device needs Newton iteration at all.
        self.is_nonlinear = any(device.is_nonlinear for device in circuit.devices)
        # Reusable assembly workspace.  The matrix structure (size and the
        # set of touched entries) is fixed by the circuit topology, so the
        # dense matrix and RHS are allocated once and zeroed per assembly
        # instead of reallocated per Newton iteration.
        self._matrix = np.zeros((self.size, self.size))
        self._rhs = np.zeros(self.size)
        # Flat indices of the node-row diagonal, for vectorised gmin loading.
        self._node_diag_flat = np.arange(self.n_nodes) * (self.size + 1)

    # ------------------------------------------------------------------ lookup
    def index_of(self, node: str) -> int:
        """Matrix index of a node (-1 for ground)."""
        if is_ground(node):
            return -1
        return self.node_index[node]

    def branch_index_of(self, device: Device) -> int:
        """Matrix index of a device's branch current."""
        return self.n_nodes + self.branch_owner[device.name]

    def branch_current_of(self, solution: np.ndarray, device: Device) -> float:
        """Branch current of ``device`` in a solution vector."""
        return float(solution[self.branch_index_of(device)])

    def solution_as_dict(self, solution: np.ndarray) -> Dict[str, float]:
        """Node-voltage mapping for a solution vector."""
        return {name: float(solution[i]) for name, i in self.node_index.items()}

    # ---------------------------------------------------------------- assembly
    def begin_solve(self, state: "StampState", options: SolverOptions) -> None:
        """Hook called once at the start of every Newton solve.

        A subclass may build here what stays fixed through one solve: what
        depends on the time, step, previous solution and gmin of ``state``
        and on the source values, but not on the iterate.  The reference
        engine stamps everything per iteration, so it does nothing here.
        """

    def assemble(self, state: "StampState", options: SolverOptions) -> tuple:
        """Assemble the (linearised) MNA matrix and right-hand side.

        The returned arrays are the system's reusable workspace: they are
        overwritten by the next :meth:`assemble` call, so callers must not
        hold on to them across iterations (``np.linalg.solve`` copies).
        """
        self._matrix.fill(0.0)
        self._rhs.fill(0.0)
        stamper = Stamper(self, matrix=self._matrix, rhs=self._rhs)
        for device in self.circuit.devices:
            device.stamp(stamper, state)
        matrix, rhs = stamper.matrix, stamper.rhs
        # Conditioning gmin on node rows only.
        matrix.flat[self._node_diag_flat] += state.gmin if state.gmin else options.gmin
        return matrix, rhs

    # ----------------------------------------------------------------- solving
    def solve_assembled(
        self, matrix: np.ndarray, rhs: np.ndarray, *, iteration: int = 0
    ) -> np.ndarray:
        """Solve one assembled linear system.

        The base implementation is a plain dense solve with a least-squares
        fallback for singular matrices.  :class:`repro.analog.compiled.\
CompiledCircuit` overrides this with LU caching (linear circuits) and the
        frozen-Jacobian fast path (``iteration`` tells it whether this is the
        first solve of a Newton run).
        """
        try:
            return np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(matrix, rhs, rcond=None)[0]


def seed_solution_vector(
    system: MNASystem,
    voltages: Optional[Dict[str, float]],
    vector: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Write named node voltages into a solution-sized vector.

    Ground aliases are skipped; unknown node names raise ``KeyError`` (same
    contract as :meth:`MNASystem.index_of`).  Used by every analysis that
    seeds an initial guess or initial condition from a name→voltage mapping.
    """
    if vector is None:
        vector = np.zeros(system.size)
    if voltages:
        for node, value in voltages.items():
            idx = system.index_of(node)
            if idx >= 0:
                vector[idx] = value
    return vector


@dataclass
class StampState:
    """Context passed to every device while stamping.

    Attributes
    ----------
    system:
        The owning :class:`MNASystem` (used to resolve node names).
    analysis:
        ``"dc"`` or ``"transient"``.
    time:
        Simulation time of the step being solved (seconds).
    dt:
        Time step (seconds); meaningless for DC.
    guess:
        Present Newton iterate (node voltages + branch currents).
    previous:
        Converged solution of the previous time point (transient only).
    gmin:
        Optional override of the conditioning conductance (gmin stepping).
    """

    system: MNASystem
    analysis: str = "dc"
    time: float = 0.0
    dt: float = 1e-9
    guess: np.ndarray = field(default_factory=lambda: np.zeros(0))
    previous: Optional[np.ndarray] = None
    gmin: float = 0.0

    def guess_voltage(self, node: str) -> float:
        """Node voltage in the present Newton iterate."""
        idx = self.system.index_of(node)
        if idx < 0 or idx >= len(self.guess):
            return 0.0
        return float(self.guess[idx])

    def previous_voltage(self, node: str) -> float:
        """Node voltage at the previous time point (0.0 if unavailable)."""
        if self.previous is None:
            return 0.0
        idx = self.system.index_of(node)
        if idx < 0 or idx >= len(self.previous):
            return 0.0
        return float(self.previous[idx])


class Stamper:
    """Accumulates device stamps into the dense MNA matrix."""

    def __init__(
        self,
        system: MNASystem,
        matrix: Optional[np.ndarray] = None,
        rhs: Optional[np.ndarray] = None,
    ) -> None:
        self.system = system
        self.matrix = (
            matrix if matrix is not None else np.zeros((system.size, system.size))
        )
        self.rhs = rhs if rhs is not None else np.zeros(system.size)

    # ---------------------------------------------------------------- resolves
    def _idx(self, node: str) -> int:
        return self.system.index_of(node)

    def branch_index(self, device: Device) -> int:
        """Matrix index of a device's branch-current unknown."""
        return self.system.branch_index_of(device)

    # ------------------------------------------------------------------ stamps
    def add_matrix(self, row_node: str, col_node: str, value: float) -> None:
        """Add ``value`` at (row, col) addressed by node names (ground skipped)."""
        i, j = self._idx(row_node), self._idx(col_node)
        if i >= 0 and j >= 0:
            self.matrix[i, j] += value

    def add_rhs_branch(self, row: int, value: float) -> None:
        """Add ``value`` to the right-hand side at an explicit index."""
        self.rhs[row] += value

    def stamp_conductance(self, node_a: str, node_b: str, conductance: float) -> None:
        """Stamp a two-terminal conductance between ``node_a`` and ``node_b``."""
        a, b = self._idx(node_a), self._idx(node_b)
        if a >= 0:
            self.matrix[a, a] += conductance
        if b >= 0:
            self.matrix[b, b] += conductance
        if a >= 0 and b >= 0:
            self.matrix[a, b] -= conductance
            self.matrix[b, a] -= conductance

    def stamp_current_injection(self, node: str, value: float) -> None:
        """Inject ``value`` amperes into ``node`` (adds to the RHS)."""
        idx = self._idx(node)
        if idx >= 0:
            self.rhs[idx] += value

    def stamp_branch_voltage(self, node_pos: str, node_neg: str, branch: int) -> None:
        """Stamp the incidence entries of a branch defined by a voltage constraint."""
        pos, neg = self._idx(node_pos), self._idx(node_neg)
        if pos >= 0:
            self.matrix[pos, branch] += 1.0
            self.matrix[branch, pos] += 1.0
        if neg >= 0:
            self.matrix[neg, branch] -= 1.0
            self.matrix[branch, neg] -= 1.0


def newton_solve(
    system: MNASystem,
    state: StampState,
    initial_guess: Optional[np.ndarray] = None,
    options: Optional[SolverOptions] = None,
) -> np.ndarray:
    """Solve the (possibly nonlinear) MNA system by damped Newton-Raphson.

    Falls back to gmin stepping if the plain iteration does not converge.
    """
    options = options or SolverOptions()
    # No copy here: _newton_iterate copies the guess before it iterates.
    guess = (
        np.zeros(system.size)
        if initial_guess is None
        else np.asarray(initial_guess, dtype=float)
    )
    try:
        return _newton_iterate(system, state, guess, options, gmin=0.0)
    except (ConvergenceError, np.linalg.LinAlgError):
        pass
    # gmin stepping: solve with a heavily damped system first, then relax.
    solution = guess
    for gmin in options.gmin_stepping:
        solution = _newton_iterate(system, state, solution, options, gmin=gmin)
    return solution


def _newton_iterate(
    system: MNASystem,
    state: StampState,
    guess: np.ndarray,
    options: SolverOptions,
    *,
    gmin: float,
) -> np.ndarray:
    nonlinear = system.is_nonlinear
    n_nodes = system.n_nodes
    x = guess.copy()
    state.gmin = gmin
    system.begin_solve(state, options)
    # Progressive damping: if the iteration has not settled after a sixth
    # (a third) of the budget, typically a regenerative feedback loop
    # bouncing between two states, halve (quarter) the accepted step to
    # force convergence.
    sixth, third = options.max_iterations // 6, options.max_iterations // 3
    for iteration in range(options.max_iterations):
        state.guess = x
        matrix, rhs = system.assemble(state, options)
        x_new = system.solve_assembled(matrix, rhs, iteration=iteration)
        if not nonlinear:
            return x_new
        delta = x_new - x
        if not n_nodes:
            return x + delta
        step_limit = options.max_voltage_step
        if iteration >= third:
            step_limit *= 0.25
        elif iteration >= sixth:
            step_limit *= 0.5
        node_delta = delta[:n_nodes]
        _clip(node_delta, -step_limit, step_limit, out=node_delta)
        x += delta  # x is this solve's own copy
        max_delta = float(_max_reduce(np.abs(node_delta)))
        scale = float(_max_reduce(np.abs(x[:n_nodes])))
        if max_delta <= options.voltage_tolerance + options.relative_tolerance * max(
            scale, 1.0
        ):
            return x
    raise ConvergenceError(
        f"Newton-Raphson failed to converge for circuit {system.circuit.name!r} "
        f"(analysis={state.analysis}, t={state.time:g}s, gmin={gmin:g})"
    )
