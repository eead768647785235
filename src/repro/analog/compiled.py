"""Compiled circuit engine: split assembly, vectorised devices, LU reuse.

:class:`CompiledCircuit` is a drop-in :class:`~repro.analog.mna.MNASystem`
that compiles a circuit's topology once and then assembles each Newton
iteration from precomputed structure instead of walking ``circuit.devices``
with scalar ``stamp()`` calls:

* **Split linear/nonlinear assembly** — the matrix stamps of resistors,
  voltage-source incidence rows and (per time step) capacitor companion
  conductances never change, so they are pre-assembled into one *base
  matrix* per ``(analysis, dt)`` and the per-iteration work reduces to one
  ``memcpy`` plus the source and MOSFET re-stamps.
* **Vectorised device evaluation** — all MOSFETs are evaluated at once:
  terminal voltages are gathered through precomputed index arrays, the
  device model runs as NumPy array math
  (:func:`repro.analog.mosfet.channel_current_array`), and the resulting
  conductance/current stamps are scattered with ``np.add.at`` against
  precomputed flat-index maps.
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
this.  Topology and R/C/transistor parameters are frozen at compile time.

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
from repro.analog.mosfet import MOSFET, channel_current_array
from repro.analog.netlist import Circuit

# The raw LAPACK bindings are used instead of scipy.linalg.lu_factor /
# lu_solve: the high-level wrappers cost tens of microseconds per call, which
# swamps the back-substitution itself at circuit sizes of a few tens of
# unknowns.
from scipy.linalg.lapack import dgetrf, dgetrs

#: Bound on the per-(analysis, dt) base-matrix and LU caches.  Step
#: subdivision and clamped final steps produce extra distinct dt values; the
#: bound keeps the caches from growing without limit.
_CACHE_LIMIT = 16

#: Valid ``engine=`` values of :func:`make_system` and the analyses.
ENGINES = ("auto", "scalar")


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

    The group stores, per transistor, the padded gather indices of its
    terminals plus two precomputed scatter maps: matrix entries addressed by
    flat index into the dense workspace, and RHS entries addressed by row.
    Each scatter entry selects one *component* (``di/dvd``, ``di/dvg`` or
    ``di/dvs`` for the matrix, ``i_eq`` for the RHS) and a sign.

    :meth:`evaluate` broadcasts: with a padded voltage vector of shape
    ``(size+1,)`` components come out ``(C, M)``; with a batch of vectors
    ``(B, size+1)`` (and optionally stacked per-variant ``params``) they come
    out ``(C, B, M)`` and :meth:`scatter` lands them in stacked ``(B, N, N)``
    workspaces through per-variant flat offsets.
    """

    def __init__(self, system: MNASystem, devices: Sequence[MOSFET]) -> None:
        self.devices = list(devices)
        self._buffer_cache: Dict[tuple, tuple] = {}
        size = system.size

        def gather_index(node: str) -> int:
            # Ground maps to the trailing zero slot of the padded vector.
            idx = system.index_of(node)
            return size if idx < 0 else idx

        self._d = np.array([gather_index(m.nodes[0]) for m in devices], np.intp)
        self._g = np.array([gather_index(m.nodes[1]) for m in devices], np.intp)
        self._s = np.array([gather_index(m.nodes[2]) for m in devices], np.intp)
        #: Per-device parameter arrays (stacked across a batch).
        self.params: Dict[str, np.ndarray] = {
            "sign": np.array(
                [1.0 if m.parameters.polarity == "nmos" else -1.0 for m in devices]
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
        # (row, col, component, device, sign) and (row, component, device,
        # sign); ground rows and columns are left out.
        matrix_entries: List[Tuple[int, int, int, int, float]] = []
        rhs_entries: List[Tuple[int, int, int, float]] = []
        for i, mosfet in enumerate(devices):
            d, g, s = (system.index_of(node) for node in mosfet.nodes)
            # Components: 0 = di/dvd, 1 = di/dvg, 2 = di/dvs; KCL rows at the
            # drain (+) and source (-), mirroring MOSFET.stamp.
            for row, sign in ((d, 1.0), (s, -1.0)):
                if row < 0:
                    continue
                for comp, col in enumerate((d, g, s)):
                    if col >= 0:
                        matrix_entries.append((row, col, comp, i, sign))
                rhs_entries.append((row, 0, i, -sign))  # -i_eq at d, +i_eq at s
        self._mat_flat = np.array(
            [r * size + c for r, c, _, _, _ in matrix_entries], dtype=np.intp
        )
        self._mat_comp = np.array([e[2] for e in matrix_entries], dtype=np.intp)
        self._mat_dev = np.array([e[3] for e in matrix_entries], dtype=np.intp)
        self._mat_sign = np.array([e[4] for e in matrix_entries], dtype=float)
        self._rhs_idx = np.array([e[0] for e in rhs_entries], dtype=np.intp)
        self._rhs_comp = np.array([e[1] for e in rhs_entries], dtype=np.intp)
        self._rhs_dev = np.array([e[2] for e in rhs_entries], dtype=np.intp)
        self._rhs_sign = np.array([e[3] for e in rhs_entries], dtype=float)

    def _component_buffers(self, batch_shape: tuple) -> Tuple[np.ndarray, np.ndarray]:
        """Reusable output buffers (avoids an ``np.stack`` per iteration)."""
        buffers = self._buffer_cache.get(batch_shape)
        if buffers is None:
            count = len(self.devices)
            buffers = (
                np.empty((3, *batch_shape, count)),
                np.empty((1, *batch_shape, count)),
            )
            self._buffer_cache[batch_shape] = buffers
        return buffers

    def evaluate(
        self, padded: np.ndarray, params: Optional[Dict[str, np.ndarray]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(matrix_components, rhs_components)`` for ``padded``."""
        p = params or self.params
        vd = padded[..., self._d]
        vg = padded[..., self._g]
        vs = padded[..., self._s]
        i_ds, di_dvd, di_dvg, di_dvs = channel_current_array(
            vd,
            vg,
            vs,
            sign=p["sign"],
            beta=p["beta"],
            vth0=p["vth0"],
            lambda_=p["lambda_"],
            n_vt=p["n_vt"],
        )
        i_eq = i_ds - di_dvd * vd - di_dvg * vg - di_dvs * vs
        mat_comp, rhs_comp = self._component_buffers(padded.shape[:-1])
        mat_comp[0], mat_comp[1], mat_comp[2] = di_dvd, di_dvg, di_dvs
        rhs_comp[0] = i_eq
        return mat_comp, rhs_comp

    def scatter(
        self,
        matrix_flat: np.ndarray,
        rhs: np.ndarray,
        mat_comp: np.ndarray,
        rhs_comp: np.ndarray,
        *,
        matrix_offsets: Optional[np.ndarray] = None,
        rhs_offsets: Optional[np.ndarray] = None,
    ) -> None:
        """Accumulate evaluated components into (possibly batched) workspaces."""
        if mat_comp.ndim == 2:  # single variant: components are (C, M)
            np.add.at(
                matrix_flat,
                self._mat_flat,
                self._mat_sign * mat_comp[self._mat_comp, self._mat_dev],
            )
            np.add.at(
                rhs,
                self._rhs_idx,
                self._rhs_sign * rhs_comp[self._rhs_comp, self._rhs_dev],
            )
            return
        # Batched: components are (C, B, M); advanced indexing with the
        # batch slice in the middle yields (E, B) -> transpose to (B, E).
        mat_values = self._mat_sign * mat_comp[self._mat_comp, :, self._mat_dev].T
        np.add.at(
            matrix_flat,
            self._mat_flat[None, :] + matrix_offsets[:, None],
            mat_values,
        )
        rhs_values = self._rhs_sign * rhs_comp[self._rhs_comp, :, self._rhs_dev].T
        np.add.at(
            rhs, self._rhs_idx[None, :] + rhs_offsets[:, None], rhs_values
        )

    def stacked_params(
        self, member_groups: Sequence["_MOSFETGroup"]
    ) -> Dict[str, np.ndarray]:
        """Stack the parameter arrays of per-variant groups into (B, M)."""
        return {
            key: np.stack([group.params[key] for group in member_groups])
            for key in self.params
        }


class CompiledCircuit(MNASystem):
    """An :class:`MNASystem` with compiled (split + vectorised) assembly.

    Drop-in compatible with every solver entry point (``newton_solve``,
    transient/DC analyses): only :meth:`assemble` and :meth:`solve_assembled`
    are overridden.  See the module docstring for what is precomputed.
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
        self._padded_guess = np.zeros(self.size + 1)
        self._padded_prev = np.zeros(self.size + 1)
        self._zero_padded = np.zeros(self.size + 1)
        self._compile(circuit)

    # ------------------------------------------------------------- compilation
    def _compile(self, circuit: Circuit) -> None:
        size = self.size
        mosfets: List[MOSFET] = []
        self._vsrc: List[Tuple[VoltageSource, int]] = []
        self._isrc: List[Tuple[CurrentSource, int, int]] = []
        caps: List[Capacitor] = []
        # The constant linear stamps, summed once into a dense matrix.
        self._static_matrix = np.zeros((size, size))

        def add_static(row: int, col: int, value: float) -> None:
            if row >= 0 and col >= 0:
                self._static_matrix[row, col] += value

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

    # ----------------------------------------------------------- base matrices
    def step_key(self, analysis: str, dt: float) -> tuple:
        """The cache key of one ``(analysis, dt)`` configuration."""
        return ("dc", 0.0) if analysis == "dc" else ("transient", _dt_key(dt))

    def _base_for(self, key: tuple, analysis: str, dt: float) -> np.ndarray:
        base = self._base_cache.pop(key, None)  # re-insert below: LRU order
        if base is None:
            base = self._static_matrix.copy()
            if len(self._cap_values):
                geq = (
                    np.full_like(self._cap_values, GMIN)
                    if analysis == "dc"
                    else self._cap_values / dt
                )
                np.add.at(
                    base.ravel(),
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

    def assemble(self, state: StampState, options: SolverOptions) -> tuple:
        """Compiled replacement of :meth:`MNASystem.assemble` (same contract)."""
        analysis = state.analysis
        key = self.step_key(analysis, state.dt)
        matrix, rhs = self._matrix, self._rhs
        np.copyto(matrix, self._base_for(key, analysis, state.dt))
        rhs.fill(0.0)
        self._assemble_source_rhs(rhs, state.time)
        if analysis == "transient":
            self._assemble_companion_rhs(rhs, state)
        if self._mosfets is not None:
            padded = self._padded(state.guess, self._padded_guess)
            mat_comp, rhs_comp = self._mosfets.evaluate(padded)
            self._mosfets.scatter(matrix.ravel(), rhs, mat_comp, rhs_comp)
        gmin = state.gmin if state.gmin else options.gmin
        matrix.flat[self._node_diag_flat] += gmin
        self._last_key = key
        # A circuit without MOSFETs has an iteration-independent matrix, so
        # its LU factors can be cached exactly.
        self._linear_signature = (key, gmin) if self._mosfets is None else None
        self.stats.assemblies += 1
        return matrix, rhs

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
    if engine == "scalar":
        return MNASystem(circuit)
    if engine == "auto":
        return CompiledCircuit(circuit)
    raise ValueError(
        f"unknown engine {engine!r}; use one of {', '.join(ENGINES)}"
    )
