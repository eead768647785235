"""Compiled circuit engine: split assembly, vectorised devices, LU reuse.

:class:`CompiledCircuit` is a drop-in :class:`~repro.analog.mna.MNASystem`
that compiles a circuit's topology once and then assembles each Newton
iteration from precomputed structure instead of walking ``circuit.devices``
with scalar ``stamp()`` calls:

* **Split linear/nonlinear assembly** — the matrix stamps of resistors,
  voltage-source incidence rows and (per time step) capacitor companion
  conductances never change, so they are pre-assembled into one *base
  matrix* per ``(analysis, dt)``.  The independent sources and the
  capacitor companion injections depend only on the solve's time, step,
  previous solution and source values, so :meth:`CompiledCircuit.begin_solve`
  builds them into the right-hand side once per Newton *solve*.  Matrix and
  RHS share one flat workspace, and each iteration is one ``memcpy`` of the
  solve's base plus the MOSFET stamps.
* **Vectorised device evaluation** — all MOSFETs are evaluated at once:
  terminal voltages are gathered through one precomputed ``(3, M)`` index
  array, the device model runs as NumPy array math
  (:func:`repro.analog.mosfet.channel_stamps_array`) into one flat component
  block, and a single ``np.add.at`` against precomputed index maps
  scatters the matrix stamps, the RHS stamps and gmin in the order of the
  scalar engine's passes, so every sum keeps its float order.
* **LU reuse** — for linear circuits the factorisation of the (constant)
  matrix is cached per ``(analysis, dt, gmin)`` and each step costs one
  back-substitution; for nonlinear transients the factors of the last
  assembled Jacobian are kept and offered as a *frozen-Jacobian first
  iterate* for the next step (:meth:`CompiledCircuit.predict_step`), with a
  backward-error residual check that falls back to full Newton when the
  step is not mild.  SciPy's raw LAPACK bindings provide the
  factorisation.

Device *values* that only affect the right-hand side (independent source
values/waveforms) may change freely between solves — ``dc_sweep`` relies on
this — but not within one: each solve reads them once.  Topology and
R/C/transistor parameters are frozen at compile time.

The compiler knows exactly the device types the paper's netlists use —
:class:`~repro.analog.devices.Resistor`, ``Capacitor``, ``VoltageSource``,
``CurrentSource`` and :class:`~repro.analog.mosfet.MOSFET` — and matches
them by exact type: any other device, a subclass included (it may override
``stamp``), raises ``TypeError``.  The scalar
:class:`~repro.analog.mna.MNASystem` path stamps any
:class:`~repro.analog.devices.Device` and is kept untouched as the
reference implementation; the parity suite in
``tests/test_analog_compiled.py`` pins the two engines together on every
registered figure circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analog.devices import (
    GMIN,
    Capacitor,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.analog.mna import MNASystem, SolverOptions, StampState
from repro.analog.mosfet import MOSFET, channel_stamps_array
from repro.analog.netlist import Circuit
from repro.utils.validation import check_engine

# The raw LAPACK bindings are used instead of scipy.linalg.lu_factor /
# lu_solve: the high-level wrappers cost tens of microseconds per call, which
# swamps the back-substitution itself at circuit sizes of a few tens of
# unknowns.
from scipy.linalg.lapack import dgetrf, dgetrs

#: Bound on the per-(analysis, dt) base-matrix and LU caches.  Step
#: subdivision and clamped final steps produce extra distinct dt values; the
#: bound keeps the caches from growing without limit.
_CACHE_LIMIT = 16


def _dt_key(dt: float) -> float:
    """Cache key for a time step, quantised to 12 significant digits.

    A uniform grid built as ``i * dt`` yields per-step widths that differ in
    the last ulp (``3e-4 - 2e-4 != 1e-4`` exactly), which would fragment the
    base-matrix/LU caches into one entry per step.  Quantisation collapses
    those while keeping genuinely different steps (subdivision shrinks by
    4x) distinct; the companion RHS always uses the exact ``state.dt``, so
    the introduced matrix perturbation is ~1e-12 relative — far below
    solver tolerance.
    """
    return float(f"{dt:.12e}")


#: Componentwise backward-error threshold of the frozen-Jacobian first
#: iterate: the predicted solution is accepted as the Newton starting point
#: only when ``|A x - b| <= tol * (|A||x| + |b|)`` row-wise.
_FROZEN_RESIDUAL_TOL = 1e-7

#: Newton-iteration count from which a transient step counts as hard enough
#: for LU reuse: steps converging faster than this solve cheaper without the
#: extra factor-and-keep / predict-and-check work.
_PREDICTOR_MIN_ITERATIONS = 3


@dataclass
class EngineStats:
    """Counters exposed by the compiled engine (benchmark instrumentation)."""

    #: Matrix/RHS assemblies (one per Newton iteration).
    assemblies: int = 0
    #: Fresh LU factorisations.
    factorizations: int = 0
    #: Linear solves served from a cached LU (linear circuits).
    lu_reuses: int = 0
    #: Frozen-Jacobian first iterates accepted / rejected by the residual check.
    frozen_accepts: int = 0
    frozen_rejects: int = 0

    def merge(self, other: "EngineStats") -> None:
        """Accumulate ``other`` into this counter set."""
        self.assemblies += other.assemblies
        self.factorizations += other.factorizations
        self.lu_reuses += other.lu_reuses
        self.frozen_accepts += other.frozen_accepts
        self.frozen_rejects += other.frozen_rejects


class _MOSFETGroup:
    """Every MOSFET of the circuit, evaluated as one array operation.

    The group stores the padded gather indices of every transistor's
    terminals as one ``(3, M)`` array (rows drain, gate, source) and the
    per-device parameter arrays.  :meth:`evaluate` broadcasts: a padded
    voltage vector of shape ``(size+1,)`` fills a ``(4, M)`` component
    block, a batch of vectors ``(B, size+1)`` with stacked per-variant
    ``params`` fills ``(B, 4, M)``.  The owning system scatters the block
    (see :meth:`CompiledCircuit.scatter_maps`).
    """

    def __init__(self, system: MNASystem, devices: Sequence[MOSFET]) -> None:
        size = system.size

        def gather_index(node: str) -> int:
            # Ground maps to the trailing zero slot of the padded vector.
            idx = system.index_of(node)
            return size if idx < 0 else idx

        self._gather = np.array(
            [[gather_index(m.nodes[k]) for m in devices] for k in range(3)],
            dtype=np.intp,
        )
        #: Per-device parameter arrays (stacked across a batch).
        self.params: Dict[str, np.ndarray] = {
            # Repeated over the (vd, vg, vs) rows: see channel_stamps_array.
            "sign": np.tile(
                [1.0 if m.parameters.polarity == "nmos" else -1.0 for m in devices],
                (3, 1),
            ),
            "beta": np.array([m.beta for m in devices]),
            "vth0": np.array([m.parameters.vth0 for m in devices]),
            "lambda_": np.array([m.parameters.lambda_ for m in devices]),
            "n_vt": np.array(
                [
                    m.parameters.subthreshold_slope * m.parameters.thermal_voltage
                    for m in devices
                ]
            ),
        }

    def evaluate(
        self,
        padded: np.ndarray,
        out: np.ndarray,
        params: Optional[Dict[str, np.ndarray]] = None,
    ) -> np.ndarray:
        """Fill ``out`` with ``(di/dvd, di/dvg, di/dvs, i_eq)`` at ``padded``."""
        p = params or self.params
        return channel_stamps_array(
            padded[..., self._gather],
            out,
            sign=p["sign"],
            beta=p["beta"],
            vth0=p["vth0"],
            lambda_=p["lambda_"],
            n_vt=p["n_vt"],
        )

    def stacked_params(
        self, member_groups: Sequence["_MOSFETGroup"]
    ) -> Dict[str, np.ndarray]:
        """Stack the parameter arrays of per-variant groups into (B, M)."""
        return {
            key: np.stack([group.params[key] for group in member_groups])
            for key in self.params
        }


def scatter(work: np.ndarray, block: np.ndarray, maps: tuple) -> None:
    """Add the stamps held in ``block`` into ``work`` (both flat arrays).

    ``maps`` is ``(target, source, sign)`` from
    :meth:`CompiledCircuit.scatter_maps`; ``np.add.at`` adds the entries in
    map order, so every workspace entry sums its stamps in a fixed order.
    """
    target, source, sign = maps
    np.add.at(work, target, sign * block[source])


class CompiledCircuit(MNASystem):
    """An :class:`MNASystem` with compiled (split + vectorised) assembly.

    Drop-in compatible with every solver entry point (``newton_solve``,
    transient/DC analyses): :meth:`begin_solve`, :meth:`assemble` and
    :meth:`solve_assembled` are overridden.  See the module docstring for
    what is precomputed.
    """

    def __init__(self, circuit: Circuit) -> None:
        super().__init__(circuit)
        self.stats = EngineStats()
        self._base_cache: Dict[tuple, np.ndarray] = {}
        self._lu_cache: Dict[tuple, tuple] = {}
        self._frozen_lu: Optional[tuple] = None
        self._frozen_key: Optional[tuple] = None
        self._frozen_fresh = False
        self._solve_iterations = 0
        self._linear_signature: Optional[tuple] = None
        self._last_key: tuple = ("dc", 0.0)
        self._key_dt: Optional[float] = None
        self._transient_key: tuple = ()
        self._padded_guess = np.zeros(self.size + 1)
        self._padded_prev = np.zeros(self.size + 1)
        self._zero_padded = np.zeros(self.size + 1)
        # One flat workspace: the matrix followed by the RHS, so a single
        # copy and a single scatter assemble both.
        n = self.size
        self._work = np.zeros(n * n + n)
        self._matrix = self._work[: n * n].reshape(n, n)
        self._rhs = self._work[n * n :]
        self._solve_base = np.zeros(n * n + n)
        self._compile(circuit)

    # ------------------------------------------------------------- compilation
    def _compile(self, circuit: Circuit) -> None:
        size = self.size
        mosfets: List[MOSFET] = []
        self._vsrc: List[Tuple[VoltageSource, int]] = []
        self._isrc: List[Tuple[CurrentSource, int, int]] = []
        caps: List[Capacitor] = []
        # The constant linear stamps, summed once into a flat matrix block
        # with a zero RHS tail (the workspace layout).
        self._static_block = np.zeros(size * size + size)

        def add_static(row: int, col: int, value: float) -> None:
            if row >= 0 and col >= 0:
                self._static_block[row * size + col] += value

        for device in circuit.devices:
            kind = type(device)
            if kind is Resistor:
                a, b = (self.index_of(node) for node in device.nodes)
                g = device.conductance
                add_static(a, a, g)
                add_static(b, b, g)
                add_static(a, b, -g)
                add_static(b, a, -g)
            elif kind is Capacitor:
                caps.append(device)
            elif kind is VoltageSource:
                pos, neg = (self.index_of(node) for node in device.nodes)
                branch = self.branch_index_of(device)
                add_static(pos, branch, 1.0)
                add_static(branch, pos, 1.0)
                add_static(neg, branch, -1.0)
                add_static(branch, neg, -1.0)
                self._vsrc.append((device, branch))
            elif kind is CurrentSource:
                pos, neg = (self.index_of(node) for node in device.nodes)
                self._isrc.append((device, pos, neg))
            elif kind is MOSFET:
                mosfets.append(device)
            else:
                raise TypeError(
                    f"cannot compile {device!r} in circuit {circuit.name!r}: the "
                    "compiled engine supports exactly Resistor, Capacitor, "
                    "VoltageSource, CurrentSource and MOSFET; use "
                    'engine="scalar" for other device types'
                )

        # Capacitor scaffolding: matrix entries scale with geq = C/dt
        # (transient) or GMIN (DC); RHS injections gather the previous
        # terminal voltages.
        self._cap_values = np.array([c.capacitance for c in caps])
        cap_mat: List[Tuple[int, int, float]] = []  # (flat, cap index, sign)
        cap_rhs: List[Tuple[int, int, float]] = []  # (row, cap index, sign)
        cap_a_gather, cap_b_gather = [], []
        for i, cap in enumerate(caps):
            a, b = (self.index_of(node) for node in cap.nodes)
            cap_a_gather.append(size if a < 0 else a)
            cap_b_gather.append(size if b < 0 else b)
            for row, col, sign in ((a, a, 1.0), (b, b, 1.0), (a, b, -1.0), (b, a, -1.0)):
                if row >= 0 and col >= 0:
                    cap_mat.append((row * size + col, i, sign))
            if a >= 0:
                cap_rhs.append((a, i, 1.0))
            if b >= 0:
                cap_rhs.append((b, i, -1.0))
        self._cap_mat_flat = np.array([e[0] for e in cap_mat], dtype=np.intp)
        self._cap_mat_src = np.array([e[1] for e in cap_mat], dtype=np.intp)
        self._cap_mat_sign = np.array([e[2] for e in cap_mat], dtype=float)
        self._cap_rhs_idx = np.array([e[0] for e in cap_rhs], dtype=np.intp)
        self._cap_rhs_src = np.array([e[1] for e in cap_rhs], dtype=np.intp)
        self._cap_rhs_sign = np.array([e[2] for e in cap_rhs], dtype=float)
        self._cap_a_gather = np.array(cap_a_gather, dtype=np.intp)
        self._cap_b_gather = np.array(cap_b_gather, dtype=np.intp)

        self._mosfets: Optional[_MOSFETGroup] = (
            _MOSFETGroup(self, mosfets) if mosfets else None
        )
        # The per-iteration stamps come from one flat block: the (4, M)
        # MOSFET components (di/dvd, di/dvg, di/dvs, i_eq) and a trailing
        # gmin slot.  Each scatter entry is (workspace index, block index,
        # sign): the MOSFET matrix entries at the drain (+) and source (-)
        # KCL rows mirroring MOSFET.stamp, then -i_eq at the drain and +i_eq
        # at the source, then gmin on every node diagonal, so each entry sums
        # in the order of the matrix, RHS and gmin passes of MNASystem.
        m = len(mosfets)
        self._block = np.zeros(4 * m + 1)
        self._components = self._block[: 4 * m].reshape(4, m)
        matrix_entries: List[Tuple[int, int, float]] = []
        rhs_entries: List[Tuple[int, int, float]] = []
        for i, mosfet in enumerate(mosfets):
            d, g, s = (self.index_of(node) for node in mosfet.nodes)
            for row, sign in ((d, 1.0), (s, -1.0)):
                if row < 0:
                    continue
                for comp, col in enumerate((d, g, s)):
                    if col >= 0:
                        matrix_entries.append((row * size + col, comp * m + i, sign))
                rhs_entries.append((size * size + row, 3 * m + i, -sign))
        gmin_entries = [(int(flat), 4 * m, 1.0) for flat in self._node_diag_flat]
        entries = matrix_entries + rhs_entries + gmin_entries
        self._scatter_target = np.array([e[0] for e in entries], dtype=np.intp)
        self._scatter_source = np.array([e[1] for e in entries], dtype=np.intp)
        self._scatter_sign = np.array([e[2] for e in entries], dtype=float)
        self._maps = self.scatter_maps(1)

    def scatter_maps(self, batch: int) -> tuple:
        """``(target, source, sign)`` of :func:`scatter` for ``batch`` systems.

        The maps address ``batch`` workspaces and component blocks stacked
        back to back, each laid out as this system's own.
        """
        offsets = np.arange(batch, dtype=np.intp)[:, None]
        target = self._scatter_target + offsets * len(self._work)
        source = self._scatter_source + offsets * len(self._block)
        return target.ravel(), source.ravel(), np.tile(self._scatter_sign, batch)

    # ----------------------------------------------------------- base matrices
    def step_key(self, analysis: str, dt: float) -> tuple:
        """The cache key of one ``(analysis, dt)`` configuration."""
        if analysis == "dc":
            return ("dc", 0.0)
        if dt != self._key_dt:  # the last key is kept: _dt_key is not free
            self._key_dt = dt
            self._transient_key = ("transient", _dt_key(dt))
        return self._transient_key

    def _base_for(self, key: tuple, analysis: str, dt: float) -> np.ndarray:
        """The flat linear matrix block of ``key`` with a zero RHS tail."""
        base = self._base_cache.pop(key, None)  # re-insert below: LRU order
        if base is None:
            base = self._static_block.copy()
            if len(self._cap_values):
                geq = (
                    np.full_like(self._cap_values, GMIN)
                    if analysis == "dc"
                    else self._cap_values / dt
                )
                np.add.at(
                    base,
                    self._cap_mat_flat,
                    self._cap_mat_sign * geq[self._cap_mat_src],
                )
            if len(self._base_cache) >= _CACHE_LIMIT:
                self._base_cache.pop(next(iter(self._base_cache)))
        self._base_cache[key] = base
        return base

    # ---------------------------------------------------------------- assembly
    def _padded(self, vector: Optional[np.ndarray], buffer: np.ndarray) -> np.ndarray:
        """``vector`` copied into a buffer with a trailing zero ground slot."""
        if vector is None or len(vector) != self.size:
            return self._zero_padded
        buffer[: self.size] = vector
        return buffer

    def _assemble_source_rhs(self, rhs: np.ndarray, time: float) -> None:
        """Stamp the independent source values into ``rhs``."""
        for device, branch in self._vsrc:
            rhs[branch] += device.value_at(time)
        for device, pos, neg in self._isrc:
            current = device.value_at(time)
            if pos >= 0:
                rhs[pos] -= current
            if neg >= 0:
                rhs[neg] += current

    def _assemble_companion_rhs(self, rhs: np.ndarray, state: StampState) -> None:
        """Stamp the capacitor companion injections into ``rhs``."""
        prev = self._padded(state.previous, self._padded_prev)
        if len(self._cap_values):
            injection = (self._cap_values / state.dt) * (
                prev[self._cap_a_gather] - prev[self._cap_b_gather]
            )
            np.add.at(
                rhs,
                self._cap_rhs_idx,
                self._cap_rhs_sign * injection[self._cap_rhs_src],
            )

    def begin_solve(self, state: StampState, options: SolverOptions) -> None:
        """Build the solve's linear matrix, source/companion RHS and gmin.

        They depend on ``(analysis, time, dt, previous, gmin)`` and source
        values only, never on the Newton iterate, so each solve builds them
        once and :meth:`assemble` copies them per iteration.
        """
        analysis = state.analysis
        key = self.step_key(analysis, state.dt)
        base = self._solve_base
        np.copyto(base, self._base_for(key, analysis, state.dt))
        rhs = base[self.size * self.size :]
        self._assemble_source_rhs(rhs, state.time)
        if analysis == "transient":
            self._assemble_companion_rhs(rhs, state)
        gmin = state.gmin if state.gmin else options.gmin
        self._block[-1] = gmin
        self._last_key = key
        # A circuit without MOSFETs has an iteration-independent matrix, so
        # its LU factors can be cached exactly.
        self._linear_signature = (key, gmin) if self._mosfets is None else None

    def assemble(self, state: StampState, options: SolverOptions) -> tuple:
        """Compiled replacement of :meth:`MNASystem.assemble` (same contract).

        Assembles at ``state.guess`` on top of what the last
        :meth:`begin_solve` built.
        """
        work = self._work
        np.copyto(work, self._solve_base)
        if self._mosfets is not None:
            padded = self._padded(state.guess, self._padded_guess)
            self._mosfets.evaluate(padded, self._components)
        scatter(work, self._block, self._maps)
        self.stats.assemblies += 1
        return self._matrix, self._rhs

    # ----------------------------------------------------------------- solving
    def _factor(self, matrix: np.ndarray) -> Optional[tuple]:
        """LU factors of ``matrix`` or None when it is (near-)singular."""
        lu, piv, info = dgetrf(matrix)
        if info != 0:
            return None
        self.stats.factorizations += 1
        return lu, piv

    @staticmethod
    def _back_substitute(factors: tuple, rhs: np.ndarray) -> np.ndarray:
        """Solve through cached LAPACK ``getrf`` factors."""
        solution, info = dgetrs(factors[0], factors[1], rhs)
        if info != 0:  # pragma: no cover - getrs only fails on bad arguments
            raise np.linalg.LinAlgError(f"dgetrs failed with info={info}")
        return solution

    def solve_assembled(
        self, matrix: np.ndarray, rhs: np.ndarray, *, iteration: int = 0
    ) -> np.ndarray:
        if iteration == 0:
            # A new Newton run starts: the frozen factors (if any) now belong
            # to the *previous* solve and predict_step has had its chance.
            self._frozen_fresh = False
        self._solve_iterations = iteration + 1
        if self._linear_signature is not None:
            # pop + re-insert keeps the dict in LRU order, so the eviction
            # below removes the least recently used factors, not the hottest.
            factors = self._lu_cache.pop(self._linear_signature, None)
            if factors is None:
                factors = self._factor(matrix)
                if factors is None:
                    return super().solve_assembled(matrix, rhs, iteration=iteration)
                if len(self._lu_cache) >= _CACHE_LIMIT:
                    self._lu_cache.pop(next(iter(self._lu_cache)))
            else:
                self.stats.lu_reuses += 1
            self._lu_cache[self._linear_signature] = factors
            return self._back_substitute(factors, rhs)
        # Nonlinear: factor through raw LAPACK (cheaper than np.linalg.solve's
        # wrapper) and keep the factors so the next step's first iterate can
        # reuse them through predict_step.
        factors = self._factor(matrix)
        if factors is None:
            return super().solve_assembled(matrix, rhs, iteration=iteration)
        self._frozen_lu = factors
        self._frozen_key = self._last_key
        self._frozen_fresh = True
        return self._back_substitute(factors, rhs)

    # ----------------------------------------------------- frozen-Jacobian hook
    def predict_step(
        self,
        state: StampState,
        solution: np.ndarray,
        options: SolverOptions,
    ) -> Optional[np.ndarray]:
        """Frozen-Jacobian first iterate for the next transient step.

        Assembles the system at the previous step's converged solution and
        back-substitutes through the *cached* LU factors of the previous
        step's final Jacobian (which was factored at essentially the same
        operating point).  The iterate is accepted — as the Newton starting
        guess only, so correctness never depends on it — when its
        componentwise backward error against the freshly assembled system is
        small; otherwise the caller proceeds with full Newton from
        ``solution``.  Returns ``None`` whenever reuse does not apply:
        linear circuits (their whole factorisation is cached instead), a
        changed dt, or a preceding step mild enough that plain Newton is
        already minimal.
        """
        if (
            not self.is_nonlinear
            or not self._frozen_fresh
            or self._frozen_lu is None
            or self._solve_iterations < _PREDICTOR_MIN_ITERATIONS
            or self._frozen_key != self.step_key("transient", state.dt)
        ):
            return None
        state.guess = solution
        self.begin_solve(state, options)
        matrix, rhs = self.assemble(state, options)
        predicted = self._back_substitute(self._frozen_lu, rhs)
        if not np.all(np.isfinite(predicted)):
            self.stats.frozen_rejects += 1
            return None
        residual = np.abs(matrix @ predicted - rhs)
        denom = np.abs(matrix) @ np.abs(predicted) + np.abs(rhs) + 1e-300
        if np.max(residual / denom) > _FROZEN_RESIDUAL_TOL:
            self.stats.frozen_rejects += 1
            return None
        self.stats.frozen_accepts += 1
        return predicted


def make_system(circuit: Circuit, engine: str = "auto") -> MNASystem:
    """Build the solver backend selected by ``engine``.

    ``"scalar"`` uses the reference :class:`MNASystem`, which stamps any
    device; ``"auto"`` compiles the circuit into a :class:`CompiledCircuit`,
    which raises ``TypeError`` on a device type it does not know.
    """
    if check_engine(engine) == "scalar":
        return MNASystem(circuit)
    return CompiledCircuit(circuit)
