"""Lockstep batched simulation of SNN variants and example batches.

The attack figures re-train and re-evaluate the same Diehl&Cook-style
network once per grid point, and the scalar :class:`~repro.snn.network.Network`
advances one example at a time through a per-timestep Python loop — at the
layer sizes of this paper (100-neuron layers) the per-step NumPy-call
overhead dominates.  :class:`BatchedNetwork` removes it the same way the
circuit tier's :mod:`repro.analog.batch` does: it stacks B instances of one
topology and advances them in lockstep, so each time step is a handful of
NumPy calls over ``(B, n)`` arrays instead of ``B`` full Python passes.

Two composable batch axes:

* **variants** (``V``) — networks that share a topology but differ in
  per-neuron parameters (threshold scale, input gain — exactly what the
  fault injector corrupts) and, once training diverges, in plastic weights.
  One lockstep pass trains/evaluates a whole attack grid.
* **examples** (``E``) — independent examples presented simultaneously to
  the *same* network.  Only valid with learning disabled (the scalar
  reference trains strictly sequentially), which is precisely the label
  assignment / evaluation passes of the classification pipeline.

Exact parity
------------
The engine's contract is *bit-identical* spike rasters and state traces
against the scalar :class:`~repro.snn.network.Network` under identical
inputs — not "close", identical.  Every batched operation is chosen so its
per-lane result provably equals the scalar op:

* elementwise updates (leak, integrate, fire, traces, theta) are identical
  regardless of stacking, and run in place.  A step does only the work its
  spikes require.  Each run plans every input's per-step *fired* flags
  (and a one-example run's spiking rows, from one flat ``np.nonzero``);
  each layer counts its spikes once per step, and when no lane fired skips
  its writes at spiking neurons.  The refractory mask and decrement are
  skipped once every lane has gone ``settle_steps`` steps without a spike:
  the ``np.maximum(r - dt, 0.0)`` decrements that take ``refractory_period``
  to exactly ``+0.0``, counted once (``inf``, ``NaN``: never);
* a *zero-safe* layer (``rest`` is not ``-0.0``) sums its drive directly
  instead of from the scalar ``0.0``, which only flips a zero's sign, and
  ``v + (+/-0.0)`` differs only for a leaked ``v`` of ``-0.0``; with every
  ``input_gain`` finite it skips adding a zero drive.  Both are decided at
  each run start, as the injector may change a layer between runs;
* the scalar synaptic drive ``w[spikes].sum(axis=0)`` reduces over a
  *strided* axis, which NumPy accumulates sequentially — the stacked form
  ``w[:, spikes, :].sum(axis=1)`` reduces in the same per-lane order
  (verified at runtime by :func:`reduction_contract_holds`), and example
  batches or per-variant sources add every lane's k-th spiking row at
  once, which keeps that order with no loop over lanes; sorted by spike
  count, the lanes still adding a k-th row are a prefix of the lanes;
* the one-to-one and lateral-inhibition projections of the Diehl&Cook
  wiring are detected structurally and evaluated in closed form whose
  exactness is *checked against the scalar reduction* when the engine is
  compiled (falling back to the generic drive when the check fails);
* STDP finds the spiking ``(variant, index)`` pairs once and applies each
  half of the rule as one gather/modify/scatter over them — the scalar
  expression per cell, no loop over variants.  The clamp is fused in:
  every modified cell is clipped once, to the scalar ``clip(w - dep +
  pot)`` (depressed cells that are also potentiated reach the potentiation
  block unclipped), and untouched cells are never written (a masked
  ``+ 0.0`` would turn ``-0.0`` into ``+0.0``).  A full-matrix clip
  follows the first learning step and every normalisation, the only places
  the scalar every-step clip has an effect.  On a *sign-safe* connection,
  decided once at compile, no step can make a ``-0.0``; there potentiation
  skips the source rows whose pre-trace is still exactly zero, whose
  scalar update ``clip(w + 0.0)`` is the identity.

Entry points
------------
:meth:`BatchedNetwork.from_networks` compiles V scalar networks (variants
of one topology, checked by :func:`assert_same_topology`);
:meth:`BatchedNetwork.present` mirrors
:meth:`repro.snn.models.DiehlAndCook2015.present` for a batch.  The
classification pipeline and the attack-campaign executor route through
this module via ``engine="auto"|"batched"|"scalar"`` — see
:mod:`repro.core.pipeline` and :mod:`repro.exec.snn_batch`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.snn.network import Network
from repro.snn.nodes import AdaptiveLIFNodes, InputNodes, LIFNodes, Nodes
from repro.snn.topology import Connection


class BatchedNetworkError(ValueError):
    """Base class for batched-engine build/run errors."""


class NetworkTopologyMismatchError(BatchedNetworkError):
    """Raised when the networks handed to the batched engine differ in topology."""


class UnsupportedNetworkError(BatchedNetworkError):
    """Raised when a network uses node/rule types the batched engine cannot mirror."""


# --------------------------------------------------------------------------
# Runtime verification of the reduction-order contract.
# --------------------------------------------------------------------------

_REDUCTION_CONTRACT: Optional[bool] = None


def reduction_contract_holds() -> bool:
    """Whether NumPy's strided-axis reductions match the scalar engine's order.

    The scalar drive ``w[mask].sum(axis=0)`` and normalisation totals
    ``w.sum(axis=0)`` reduce over a strided axis.  The batched engine relies
    on the equivalent stacked reductions (``axis=1`` of a ``(V, k, n)``
    array) visiting lanes in the same sequential order — true for every
    NumPy the project supports, but cheap to verify instead of assume.  The
    check runs once per process; when it fails the ``auto`` engine quietly
    stays on the scalar path and ``engine="batched"`` raises.
    """
    global _REDUCTION_CONTRACT
    if _REDUCTION_CONTRACT is None:
        rng = np.random.default_rng(1234)
        holds = True
        for k in (1, 2, 7, 33, 200):
            w = rng.random((3, k, 17))
            stacked = w.sum(axis=1)
            per_lane = np.stack([w[b].sum(axis=0) for b in range(3)])
            if not np.array_equal(stacked, per_lane):
                holds = False
                break
            sequential = w[0, 0].copy()
            for i in range(1, k):
                sequential = sequential + w[0, i]
            if not np.array_equal(per_lane[0], sequential):
                holds = False
                break
        _REDUCTION_CONTRACT = holds
    return _REDUCTION_CONTRACT


# --------------------------------------------------------------------------
# Topology validation.
# --------------------------------------------------------------------------

_LIF_PARAMETERS = (
    "rest",
    "reset",
    "decay",
    "refractory_period",
    "threshold_convention",
)


def _layer_signature(nodes: Nodes) -> tuple:
    signature: List[object] = [type(nodes), nodes.n, nodes.dt, nodes.trace_decay]
    if isinstance(nodes, LIFNodes):
        signature += [getattr(nodes, name) for name in _LIF_PARAMETERS]
        signature.append(nodes.base_thresh.tobytes())
    if isinstance(nodes, AdaptiveLIFNodes):
        signature += [nodes.theta_plus, nodes.theta_decay]
    return tuple(signature)


def _rule_signature(rule) -> tuple:
    if rule is None:
        return (None,)
    return (type(rule), getattr(rule, "nu_pre", None), getattr(rule, "nu_post", None))


def assert_same_topology(networks: Sequence[Network]) -> None:
    """Validate that every network is a parameter variant of the first.

    Layer names/types/sizes, static neuron parameters, connection wiring,
    weight bounds, normalisation targets and learning-rule configurations
    must match.  Per-neuron *corruptions* (``threshold_scale``,
    ``input_gain``), adaptation state (``theta``) and plastic weights are
    free to differ — that is the point of variant batching.
    """
    if not networks:
        raise BatchedNetworkError("batched execution needs at least one network")
    reference = networks[0]
    ref_layers = {name: _layer_signature(nodes) for name, nodes in reference.layers.items()}
    ref_connections = {
        key: (conn.wmin, conn.wmax, conn.norm, conn.w.shape, _rule_signature(conn.update_rule))
        for key, conn in reference.connections.items()
    }
    for network in networks[1:]:
        if network.dt != reference.dt:
            raise NetworkTopologyMismatchError("networks differ in dt")
        layers = {name: _layer_signature(nodes) for name, nodes in network.layers.items()}
        if layers != ref_layers:
            raise NetworkTopologyMismatchError(
                "networks differ in layer names, types, sizes or static parameters"
            )
        connections = {
            key: (
                conn.wmin,
                conn.wmax,
                conn.norm,
                conn.w.shape,
                _rule_signature(conn.update_rule),
            )
            for key, conn in network.connections.items()
        }
        if connections != ref_connections:
            raise NetworkTopologyMismatchError(
                "networks differ in connection wiring, bounds or learning rules"
            )


# --------------------------------------------------------------------------
# Layer batches.
# --------------------------------------------------------------------------


def _settle_steps(period: float, dt: float) -> float:
    """The engine's ``np.maximum(r - dt, 0.0)`` decrements that take
    ``period`` to exactly ``+0.0``; ``inf`` if 10,000 do not."""
    r = np.float64(period)
    for steps in range(10_000 if np.isfinite(r) else 0):
        if r == 0 and not np.signbit(r):
            return steps
        r = np.maximum(r - dt, 0.0)
    return math.inf


class _LayerBatch:
    """Stacked state of one layer across V variants and E example lanes.

    Input layers are *uniform* across variants (every variant sees the same
    encoded raster), so their state carries a leading axis of 1 and
    broadcasts; LIF layers carry full ``(V, E, n)`` state.
    """

    def __init__(self, name: str, nodes_list: Sequence[Nodes]) -> None:
        template = nodes_list[0]
        self.name = name
        self.n = template.n
        self.variants = len(nodes_list)
        self.is_input = isinstance(template, InputNodes)
        self.is_adaptive = isinstance(template, AdaptiveLIFNodes)
        if not self.is_input and not isinstance(template, LIFNodes):
            raise UnsupportedNetworkError(
                f"layer {name!r} uses {type(template).__name__}, which the "
                "batched engine does not mirror"
            )
        self.trace_decay = template.trace_decay
        self.dt = template.dt
        if isinstance(template, LIFNodes):
            self.rest = template.rest
            self.reset = template.reset
            self.decay = template.decay
            self.refractory_period = template.refractory_period
            self.settle_steps = _settle_steps(self.refractory_period, self.dt)
            self.threshold_convention = template.threshold_convention
            self.base_thresh = template.base_thresh.copy()
            self.threshold_scale = np.stack(
                [nodes.threshold_scale for nodes in nodes_list]
            )[:, None, :]
            self.input_gain = np.stack([nodes.input_gain for nodes in nodes_list])[:, None, :]
        if self.is_adaptive:
            self.theta_plus = template.theta_plus
            self.theta_decay = template.theta_decay
            self.theta = np.stack([nodes.theta for nodes in nodes_list])[:, None, :]
        # Per-run state — set by ensure_state at every run start.
        self.base: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None
        self.refractory: Optional[np.ndarray] = None
        self.spikes: Optional[np.ndarray] = None
        self.traces: Optional[np.ndarray] = None
        self._examples = 0

    # ------------------------------------------------------------------ state
    @property
    def uniform_across_variants(self) -> bool:
        """True when every variant lane shares this layer's state (inputs)."""
        return self.is_input

    def state_shape(self, examples: int) -> Tuple[int, int, int]:
        """The stacked state shape for ``examples`` lockstep examples."""
        lanes = 1 if self.is_input else self.variants
        return (lanes, examples, self.n)

    def ensure_state(self, examples: int, learning: bool = False) -> None:
        """Prepare an ``examples``-wide run: thresholds, state, decisions.

        The corrupted base threshold (with ``theta`` when it cannot move)
        and the zero-safety of "Exact parity" are fixed for the run but
        decided here at every run start, because the injector (and
        ``ScoringEngine.under_attack``) may change ``threshold_scale`` or
        ``input_gain`` between runs.  ``fired`` (did any lane spike),
        ``rows`` (an input's spiking rows) and ``_countdown`` (steps until
        every refractory value is ``+0.0``) are per-step state.
        """
        if self._examples != examples or self.spikes is None:
            shape = self.state_shape(examples)
            self.spikes = np.zeros(shape, dtype=bool)
            self.traces = np.zeros(shape)
            if not self.is_input:
                self.v = np.full(shape, self.rest)
                self.refractory = np.zeros(shape)
                self._countdown = 0.0
            self._examples = examples
        self.fired, self.rows = bool(np.count_nonzero(self.spikes)), None
        if self.is_input:
            return
        if self.threshold_convention == "signed_value":
            self.base = self.base_thresh * self.threshold_scale
        else:
            self.base = self.rest + (self.base_thresh - self.rest) * self.threshold_scale
        self.zero_safe = self.rest != 0 or math.copysign(1.0, self.rest) > 0
        self.skip_idle = self.zero_safe and bool(np.isfinite(self.input_gain).all())
        self._thresh = self.base + self.theta if self.is_adaptive else self.base
        self._adapting = self.is_adaptive and learning

    def reset_state_variables(self) -> None:
        """Reset per-example state; adaptation (theta) persists — as scalar."""
        if self.spikes is None:
            return
        self.spikes.fill(False)
        self.traces.fill(0.0)
        self.fired = False
        if not self.is_input:
            self.v.fill(self.rest)
            self.refractory.fill(0.0)
            self._countdown = 0.0

    # --------------------------------------------------------------- dynamics
    def set_input(self, spikes: np.ndarray, fired: bool, rows: Optional[np.ndarray] = None) -> None:
        """Present one step of input spikes, ``(E, n)``, and update traces."""
        np.copyto(self.spikes[0], spikes)
        self.fired, self.rows = fired, rows
        self.update_traces()

    def update_traces(self) -> None:
        self.traces *= self.trace_decay
        if self.fired and self.rows is None:
            np.copyto(self.traces, 1.0, where=self.spikes)
        elif self.fired:
            self.traces.put(self.rows, 1.0)  # one example: (1, 1, n)

    def step(self, drive: Optional[np.ndarray]) -> None:
        """One lockstep LIF update — the exact scalar expressions, in place.

        ``drive`` is ``None`` (a zero drive) when no incoming source fired.
        """
        v, refractory, spikes = self.v, self.refractory, self.spikes
        v -= self.rest
        v *= self.decay
        v += self.rest
        settled = self._countdown <= 0
        if drive is not None or not self.skip_idle:
            gain = self.input_gain if settled else (refractory <= 0) * self.input_gain
            v += gain * (0.0 if drive is None else drive)
        if not settled:
            refractory -= self.dt
            np.maximum(refractory, 0.0, out=refractory)
            self._countdown -= 1
        if self._adapting:
            np.add(self.base, self.theta, out=self._thresh)
        np.greater_equal(v, self._thresh, out=spikes)
        self.fired = bool(np.count_nonzero(spikes))
        if self.fired:
            np.copyto(v, self.reset, where=spikes)
            np.copyto(refractory, self.refractory_period, where=spikes)
            self._countdown = self.settle_steps
        self.update_traces()
        if self._adapting:
            self.theta *= self.theta_decay
            if self.fired:
                np.add(self.theta, self.theta_plus, out=self.theta, where=spikes)


# --------------------------------------------------------------------------
# Connection batches.
# --------------------------------------------------------------------------

#: Drive strategies, selected structurally when the engine is compiled.
DRIVE_GENERIC = "generic"
DRIVE_DIAGONAL = "diagonal"
DRIVE_LATERAL = "constant_lateral"


def _sequential_constant_table(value: float, n: int) -> np.ndarray:
    """``table[m]`` = sequential accumulation of ``m`` copies of ``value``."""
    table = np.zeros(n + 1)
    acc = 0.0
    for m in range(1, n + 1):
        acc = acc + value
        table[m] = acc
    return table


class _ConnectionBatch:
    """Weights + drive/plasticity machinery of one connection across variants."""

    def __init__(
        self,
        key: Tuple[str, str],
        source: _LayerBatch,
        target: _LayerBatch,
        connections: Sequence[Connection],
    ) -> None:
        template = connections[0]
        self.key = key
        self.source_batch = source
        self.target_batch = target
        self.wmin = template.wmin
        self.wmax = template.wmax
        self.norm = template.norm
        self.update_rule = template.update_rule
        self.batch_size = len(connections)
        if self.update_rule is not None and not callable(
            getattr(self.update_rule, "update_batched", None)
        ):
            raise UnsupportedNetworkError(
                f"learning rule {type(self.update_rule).__name__} does not "
                "implement update_batched()"
            )

        weights = [connection.w for connection in connections]
        identical = all(np.array_equal(weights[0], w) for w in weights[1:])
        plastic = self.update_rule is not None and type(self.update_rule).__name__ != "NoOp"
        if plastic and target.is_input:
            raise UnsupportedNetworkError(
                f"plastic connection {key!r} targets input layer {key[1]!r}"
            )
        self.shared = identical and not plastic
        if self.shared:
            self.w = weights[0].copy()
        else:
            self.w = np.stack(weights)
        # Potentiation gathers and scatters through flat indices on this view.
        self.flat_w = self.w.reshape(-1)
        assert np.shares_memory(self.flat_w, self.w), "weight stack is not contiguous"
        # Sign-safe: no step can make a -0.0 (a sum that rounds to zero is
        # +0.0, clips land on sign-clear bounds, normalisation scales by a
        # positive factor), and finite weights keep every skipped delta an
        # exact zero, so the rules may skip source rows with a zero pre-trace.
        self.sign_safe = bool(
            plastic
            and self.wmin >= 0
            and not np.signbit([self.wmin, self.wmax]).any()
            and (self.norm is None or self.norm > 0)
            and not np.signbit(self.w).any()
            and np.isfinite(self.w).all()
        )
        self.strategy = self._select_strategy()
        # The rules clip the cells they modify; the scalar engine's every-step
        # full clip only bites on the first learning step and right after a
        # normalisation, where clamp() clips the whole stack instead.
        self._full_clamp = True
        # The spiking source rows the training drive gathered this step.
        self._source_rows: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -------------------------------------------------------------- structure
    def _select_strategy(self) -> str:
        if not self.shared:
            return DRIVE_GENERIC
        w = self.w
        n_pre, n_post = w.shape
        if n_pre != n_post:
            return DRIVE_GENERIC
        diag = np.diag(w).copy()
        off_diag = w - np.diag(diag)
        if not off_diag.any():
            self._diagonal = diag
            return DRIVE_DIAGONAL
        off_values = w[~np.eye(n_pre, dtype=bool)]
        if diag.any() or off_values.size == 0 or not np.all(off_values == off_values[0]):
            return DRIVE_GENERIC
        constant = float(off_values[0])
        table = _sequential_constant_table(constant, n_pre)
        if not self._lateral_table_is_exact(table):
            return DRIVE_GENERIC
        self._lateral_table = table
        return DRIVE_LATERAL

    def _lateral_table_is_exact(self, table: np.ndarray) -> bool:
        """Check the closed form against the scalar reduction on real masks.

        Exercises every mask size with both diagonal-in and diagonal-out
        subsets, so a NumPy whose reduction order depends on the operand
        count would be caught here and the connection demoted to the
        generic drive.
        """
        w = self.w
        n = w.shape[0]
        rng = np.random.default_rng(n)
        for size in range(1, n + 1):
            chosen = rng.choice(n, size=size, replace=False)
            mask = np.zeros(n, dtype=bool)
            mask[chosen] = True
            expected = w[mask].sum(axis=0)
            counts = int(mask.sum())
            predicted = table[counts - mask.astype(int)]
            if not np.array_equal(expected, predicted):
                return False
        return True

    # ------------------------------------------------------------------ drive
    def compute_drive(self) -> Optional[np.ndarray]:
        """Post-synaptic drive, broadcastable to ``(V, E, n_post)``.

        Returns ``None`` when the source is silent (the scalar path adds an
        exact zero vector then, so skipping the add is bit-identical).
        """
        source = self.source_batch
        self._source_rows = None
        if not source.fired:
            return None
        spikes = source.spikes
        if self.strategy == DRIVE_DIAGONAL:
            return np.where(spikes, self._diagonal, 0.0)
        if self.strategy == DRIVE_LATERAL:
            counts = spikes.sum(axis=2)
            return self._lateral_table[counts[:, :, None] - spikes]
        return self._generic_drive(spikes, source.rows)

    def _generic_drive(self, spikes: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-lane sums of the spiking source rows, ``(V, E, n_post)``.

        Adds the k-th spiking row of every (variant, example) lane at once,
        k = 0, 1, ..., so each lane still sums its rows in ascending order,
        as the scalar reduction does, from the scalar drive's 0.0.  ``rows``
        are a one-example source's spiking rows, when the plan has them.
        """
        if not self.shared and spikes.shape[:2] == (1, 1):
            # A training step: the gathered rows are also STDP's depression
            # block (see source_rows), so keep them.
            if rows is None:
                rows = np.flatnonzero(spikes[0, 0])
            self._source_rows = (rows, self.w[:, rows, :])
            return self._source_rows[1].sum(axis=1)[:, None, :]
        w = self.w[None] if self.shared else self.w
        stacks, n_pre, n_post = w.shape
        lanes, examples, _ = spikes.shape
        # A flat nonzero: an n-d one costs ~10x more on example batches.
        group, row = np.divmod(np.flatnonzero(spikes), n_pre)
        counts = np.bincount(group, minlength=lanes * examples)
        first = np.cumsum(counts) - counts
        variants = max(lanes, stacks)
        if lanes < variants:
            # A uniform source: every variant reads its one lane.
            counts, first = np.tile(counts, variants), np.tile(first, variants)
        order = np.argsort(-counts, kind="stable")
        ranked = counts[order]
        # live[k] lanes add a k-th row, the first of ``order``; index holds
        # their flat weight rows, k-major (lane v reads stack v, or the one).
        live = np.searchsorted(-ranked, -np.arange(ranked[0]), side="left")
        offsets = np.cumsum(live) - live
        lane = order[np.arange(ranked.sum()) - np.repeat(offsets, live)]
        index = row[first[lane] + np.repeat(np.arange(live.size), live)]
        index += lane // examples % stacks * n_pre
        flat, out = w.reshape(-1, n_post), np.zeros((variants * examples, n_post))
        for start, count in zip(offsets.tolist(), live.tolist()):
            out[:count] += flat.take(index[start : start + count], axis=0)
        out[order] = out.copy()
        return out.reshape(variants, examples, n_post)

    # ------------------------------------------------------------- plasticity
    def source_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """This step's spiking source rows and ``w[:, rows, :]`` (uniform source).

        The training drive gathered exactly this block, and neither the
        source spikes nor the weights change before plasticity, so the rule
        takes it as its depression block instead of gathering it again.
        """
        cached, self._source_rows = self._source_rows, None
        if cached is None:
            rows = np.flatnonzero(self.source_batch.spikes[0, 0])
            cached = (rows, self.w[:, rows, :])
        return cached

    def apply_update(self) -> None:
        self.update_rule.update_batched(self)
        self.clamp()

    def clamp(self) -> None:
        """The deferred full clip into ``[wmin, wmax]``, when one is pending.

        The rules clip every cell they modify themselves; untouched cells
        are already in range (clipping them is the identity) except on the
        first learning step and right after a normalisation — the only
        places the scalar engine's unconditional full clip has an effect.
        """
        if self._full_clamp:
            np.clip(self.w, self.wmin, self.wmax, out=self.w)
            self._full_clamp = False

    def normalize(self) -> None:
        """Per-target weight normalisation, mirroring ``Connection.normalize``."""
        if self.norm is None:
            return
        if self.shared:
            totals = self.w.sum(axis=0)
            totals[totals == 0] = 1.0
            self.w *= self.norm / totals
        else:
            totals = self.w.sum(axis=1)
            totals[totals == 0] = 1.0
            self.w *= (self.norm / totals)[:, None, :]
        self._full_clamp = True

    def variant_weights(self, variant: int) -> np.ndarray:
        """The weight matrix of one variant (a copy-free view when stacked)."""
        if self.shared:
            return self.w
        return self.w[variant]


# --------------------------------------------------------------------------
# Monitors.
# --------------------------------------------------------------------------


def _lane(record: np.ndarray, variants: int, variant: int, example: int) -> Tuple[int, int]:
    """Lane ``(variant, example)`` of a ``(T, V|1, E, n)`` record (one lane
    of a uniform layer serves every variant)."""
    lanes, examples = record.shape[1:3]
    if not (0 <= variant < variants and 0 <= example < examples):
        raise IndexError(
            f"lane (variant {variant}, example {example}) is outside the recorded "
            f"(variants, examples) = ({variants}, {examples})"
        )
    return min(variant, lanes - 1), example


class BatchedSpikeMonitor:
    """Spike recorder over a batched layer.

    ``counts_only=True`` accumulates per-lane spike counts without storing
    the raster (what the classification pipeline needs); otherwise the full
    ``(time_steps, V|1, E, n)`` raster is kept in a preallocated buffer.
    """

    def __init__(self, layer_name: str, *, counts_only: bool = False) -> None:
        self.layer_name = layer_name
        self.counts_only = counts_only
        self._counts: Optional[np.ndarray] = None
        self._buffer: Optional[np.ndarray] = None
        self._length = 0
        self._variants = 0

    def reserve(self, time_steps: int, layer: _LayerBatch) -> None:
        """Size the buffers for a run of ``time_steps`` steps."""
        shape = layer.state_shape(layer._examples)
        self._variants = layer.variants
        if self.counts_only:
            if self._counts is None or self._counts.shape != shape:
                self._counts = np.zeros(shape, dtype=np.int64)
            return
        if (
            self._buffer is None
            or self._buffer.shape[1:] != shape
            or self._buffer.shape[0] < self._length + time_steps
        ):
            if self._buffer is not None and self._buffer.shape[1:] != shape:
                self._length = 0  # lane layout changed; previous records are void
            capacity = self._length + int(time_steps)
            buffer = np.zeros((capacity,) + shape, dtype=bool)
            if self._length:
                buffer[: self._length] = self._buffer[: self._length]
            self._buffer = buffer

    def record(self, layer: _LayerBatch) -> None:
        """Capture the layer's current spikes (one simulation step)."""
        if self.counts_only:
            if self._counts is None:
                self.reserve(0, layer)
            self._counts += layer.spikes
            return
        if self._buffer is None or self._length >= self._buffer.shape[0]:
            grow = max(64, self._length)
            self.reserve(grow, layer)
        self._buffer[self._length] = layer.spikes
        self._length += 1

    def spike_counts(self) -> np.ndarray:
        """Per-lane spike counts, shape ``(V|1, E, n)``."""
        if self.counts_only:
            if self._counts is None:
                return np.zeros((0, 0, 0), dtype=np.int64)
            return self._counts.copy()
        if self._length == 0:
            return np.zeros((0, 0, 0), dtype=np.int64)
        return self._buffer[: self._length].sum(axis=0)

    def raster(self, variant: int = 0, example: int = 0) -> np.ndarray:
        """One lane's raster, shape ``(time_steps, n)`` (raster mode only)."""
        if self.counts_only:
            raise ValueError("raster() is unavailable on a counts-only monitor")
        if self._length == 0:
            return np.zeros((0, 0), dtype=bool)
        lane, example = _lane(self._buffer, self._variants, variant, example)
        return self._buffer[: self._length, lane, example].copy()

    def reset(self) -> None:
        """Clear the recording (buffers are kept for reuse)."""
        self._length = 0
        if self._counts is not None:
            self._counts.fill(0)


class BatchedStateMonitor:
    """Records a state variable (``v``, ``theta``, ``traces``) per lane."""

    _VARIABLES = {"v": "v", "theta": "theta", "traces": "traces"}

    def __init__(self, layer_name: str, variable: str) -> None:
        if variable not in self._VARIABLES:
            raise ValueError(
                f"variable must be one of {sorted(self._VARIABLES)}, got {variable!r}"
            )
        self.layer_name = layer_name
        self.variable = variable
        self._buffer: Optional[np.ndarray] = None
        self._length = 0
        self._shape: Optional[Tuple[int, ...]] = None
        self._variants = 0

    def reserve(self, time_steps: int, layer: _LayerBatch) -> None:
        """Size the buffer for a run of ``time_steps`` further steps."""
        self._variants = layer.variants
        shape = np.broadcast_shapes(
            layer.state_shape(layer._examples), getattr(layer, self.variable).shape
        )
        if (
            self._buffer is None
            or self._shape != shape
            or self._buffer.shape[0] < self._length + time_steps
        ):
            capacity = self._length + int(time_steps)
            buffer = np.zeros((capacity,) + shape)
            if self._length and self._shape == shape:
                buffer[: self._length] = self._buffer[: self._length]
            else:
                self._length = 0
            self._buffer = buffer
            self._shape = shape

    def record(self, layer: _LayerBatch) -> None:
        """Capture the layer's current state value (one simulation step)."""
        value = getattr(layer, self.variable)
        if self._buffer is None or self._length >= self._buffer.shape[0]:
            self.reserve(max(64, self._length or 1), layer)
        self._buffer[self._length] = value
        self._length += 1

    def trace(self, variant: int = 0, example: int = 0) -> np.ndarray:
        """One lane's recorded trace, shape ``(time_steps, n)``."""
        if self._length == 0:
            return np.zeros((0, 0))
        lane, example = _lane(self._buffer, self._variants, variant, example)
        return self._buffer[: self._length, lane, example].copy()

    def reset(self) -> None:
        """Clear the recording (the buffer is kept for reuse)."""
        self._length = 0


# --------------------------------------------------------------------------
# The batched network.
# --------------------------------------------------------------------------


class BatchedNetwork:
    """V topology-sharing networks (× E lockstep examples) advanced together.

    Build with :meth:`from_networks`; drive with :meth:`present` /
    :meth:`run`, which mirror the scalar engine's semantics exactly (same
    phase order per step: inputs → drive → integrate-and-fire → plasticity
    → recording).
    """

    def __init__(self, dt: float) -> None:
        self.dt = dt
        self.layers: Dict[str, _LayerBatch] = {}
        self.connections: Dict[Tuple[str, str], _ConnectionBatch] = {}
        self.monitors: Dict[str, object] = {}
        self.learning = True
        self.variants = 1

    # ---------------------------------------------------------------- factory
    @classmethod
    def from_networks(cls, networks: Sequence[Network]) -> "BatchedNetwork":
        """Compile V scalar networks (variants of one topology) for lockstep.

        Weights, corruptions (threshold scale, input gain) and adaptation
        state are copied from each network, so the batch can be built from
        freshly fault-injected networks (variant batching) or from a single
        trained network (example batching with ``V == 1``).
        """
        assert_same_topology(networks)
        if not reduction_contract_holds():
            raise UnsupportedNetworkError(
                "this NumPy's reduction order breaks the batched engine's "
                "bit-parity contract; use the scalar engine"
            )
        reference = networks[0]
        batched = cls(reference.dt)
        batched.variants = len(networks)
        for name in reference.layers:
            batched.layers[name] = _LayerBatch(
                name, [network.layers[name] for network in networks]
            )
        for key in reference.connections:
            batched.connections[key] = _ConnectionBatch(
                key,
                batched.layers[key[0]],
                batched.layers[key[1]],
                [network.connections[key] for network in networks],
            )
        return batched

    # ------------------------------------------------------------ composition
    def add_monitor(self, name: str, monitor) -> object:
        """Register a :class:`BatchedSpikeMonitor` / :class:`BatchedStateMonitor`."""
        if monitor.layer_name not in self.layers:
            raise KeyError(f"unknown layer {monitor.layer_name!r}")
        self.monitors[name] = monitor
        return monitor

    def set_learning(self, learning: bool) -> None:
        """Globally enable or disable plasticity and threshold adaptation."""
        self.learning = bool(learning)

    def normalize_connections(self) -> None:
        """Apply per-target weight normalisation on every connection that has one."""
        for connection in self.connections.values():
            connection.normalize()

    def reset_state_variables(self) -> None:
        """Reset per-example dynamic state in every layer (theta persists)."""
        for layer in self.layers.values():
            layer.reset_state_variables()

    def reset_monitors(self) -> None:
        """Reset every attached monitor's recording."""
        for monitor in self.monitors.values():
            monitor.reset()

    # ------------------------------------------------------------- simulation
    def _normalise_inputs(
        self, inputs: Dict[str, np.ndarray], time_steps: Optional[int]
    ) -> Tuple[Dict[str, np.ndarray], int, int]:
        rasters: Dict[str, np.ndarray] = {}
        examples: Optional[int] = None
        for name, raster in inputs.items():
            layer = self.layers.get(name)
            if layer is None:
                raise KeyError(f"unknown input layer {name!r}")
            if not layer.is_input:
                raise TypeError(f"layer {name!r} is not an input layer")
            raster = np.asarray(raster, dtype=bool)
            if raster.ndim == 2:
                raster = raster[None, :, :]
            if raster.ndim != 3 or raster.shape[2] != layer.n:
                raise ValueError(
                    f"input raster for {name!r} must have shape (time_steps, "
                    f"{layer.n}) or (examples, time_steps, {layer.n}), got "
                    f"{np.asarray(inputs[name]).shape}"
                )
            if examples is None:
                examples = raster.shape[0]
            elif raster.shape[0] != examples:
                raise ValueError("all input rasters must batch the same examples")
            if time_steps is None:
                time_steps = raster.shape[1]
            elif raster.shape[1] != time_steps:
                raise ValueError(
                    f"input raster for {name!r} must cover {time_steps} steps, "
                    f"got {raster.shape[1]}"
                )
            rasters[name] = raster
        if time_steps is None:
            raise ValueError("time_steps must be given when there are no inputs")
        return rasters, int(time_steps), examples or 1

    def run(self, inputs: Dict[str, np.ndarray], time_steps: Optional[int] = None) -> None:
        """Advance every lane in lockstep.

        ``inputs`` maps input-layer names to spike rasters of shape
        ``(time_steps, n)`` (one example, shared by every variant) or
        ``(examples, time_steps, n)`` (example batching — learning must be
        disabled, because the scalar reference trains sequentially).
        """
        rasters, time_steps, examples = self._normalise_inputs(inputs, time_steps)
        if self.learning and examples > 1:
            raise BatchedNetworkError(
                "example batching requires learning to be disabled; the scalar "
                "engine trains strictly one example at a time"
            )
        for layer in self.layers.values():
            layer.ensure_state(examples, self.learning)
        for monitor in self.monitors.values():
            monitor.reserve(time_steps, self.layers[monitor.layer_name])

        # The run's plan: every input's per-step fired flags and (one
        # example) spiking rows, and every layer's incoming connections.
        feeds = []
        for name, raster in rasters.items():
            rows = [None] * time_steps
            if examples == 1:
                step, index = np.divmod(np.flatnonzero(raster[0]), raster.shape[2])
                bounds = np.searchsorted(step, np.arange(time_steps + 1)).tolist()
                rows = [index[a:b] for a, b in zip(bounds, bounds[1:])]
            fired = raster.any(axis=(0, 2)).tolist()
            feeds.append((self.layers[name], raster, fired, rows))
        targets = [
            (layer, [c for (_, target), c in self.connections.items() if target == name])
            for name, layer in self.layers.items()
            if not layer.is_input
        ]
        plastic = [
            connection
            for connection in self.connections.values()
            if self.learning and connection.update_rule is not None
        ]
        recorders = [(m, self.layers[m.layer_name]) for m in self.monitors.values()]
        for t in range(time_steps):
            # 1. Present the encoded input spikes.
            for layer, raster, fired, rows in feeds:
                layer.set_input(raster[:, t, :], fired[t], rows[t])
            # 2. Accumulate synaptic drive from the current source spikes.
            drives = [self._drive(layer, incoming) for layer, incoming in targets]
            # 3. Integrate and fire.
            for (layer, _), drive in zip(targets, drives):
                layer.step(drive)
            # 4. Plasticity.
            for connection in plastic:
                connection.apply_update()
            # 5. Recording.
            for monitor, layer in recorders:
                monitor.record(layer)

    @staticmethod
    def _drive(layer: _LayerBatch, incoming: List[_ConnectionBatch]) -> Optional[np.ndarray]:
        """A layer's summed drive (``None``: no source fired); only a layer
        that is not zero-safe starts the sum from the scalar engine's 0.0."""
        drive = None
        for connection in incoming:
            contribution = connection.compute_drive()
            if contribution is None:
                continue
            if drive is None:
                drive = contribution if layer.zero_safe else 0.0 + contribution
            else:
                drive = drive + contribution
        return drive

    def present(
        self,
        inputs: Dict[str, np.ndarray],
        *,
        learning: bool,
        normalize: bool = True,
        time_steps: Optional[int] = None,
    ) -> None:
        """One presentation, mirroring ``DiehlAndCook2015.present`` for a batch."""
        self.set_learning(learning)
        if normalize and learning:
            self.normalize_connections()
        self.reset_monitors()
        self.reset_state_variables()
        self.run(inputs, time_steps)

    # -------------------------------------------------------------- accessors
    def variant_weights(self, key: Tuple[str, str], variant: int) -> np.ndarray:
        """The weight matrix of ``variant`` on connection ``key``."""
        return self.connections[key].variant_weights(variant)

    def layer_theta(self, name: str, variant: int) -> np.ndarray:
        """One variant's adaptation state on an adaptive layer."""
        layer = self.layers[name]
        if not layer.is_adaptive:
            raise ValueError(f"layer {name!r} has no theta")
        return layer.theta[variant, 0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedNetwork(variants={self.variants}, "
            f"layers={list(self.layers)}, connections={list(self.connections)})"
        )
