"""Synaptic plasticity rules.

The Diehl & Cook network trains its input→excitatory projection with a
trace-based pair STDP rule ("PostPre" in BindsNET terms): a pre-synaptic
spike depresses the synapse in proportion to the post-synaptic trace, a
post-synaptic spike potentiates it in proportion to the pre-synaptic trace.
The paper trains with ``nu = (0.0004, 0.0002)`` for pre- and post-synaptic
events respectively.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


class LearningRule:
    """Base class for plasticity rules.

    Rules that also implement ``update_batched(connection_batch)`` can run
    on the lockstep engine of :mod:`repro.snn.batched`; the batched update
    must be bit-identical, per variant, to :meth:`update` followed by the
    connection's clamp, so it clips every weight it modifies (the engine
    adds a full clip only on the first learning step and after a
    normalisation).  The parity suite pins this.  Rules without it fall back
    to the scalar path.
    """

    def update(self, connection) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class NoOp(LearningRule):
    """A rule that leaves the weights untouched (used during evaluation)."""

    def update(self, connection) -> None:
        return None

    def update_batched(self, connection) -> None:
        return None


class PostPre(LearningRule):
    """Pair-based STDP with pre-synaptic depression and post-synaptic potentiation.

    Parameters
    ----------
    nu_pre:
        Learning rate applied on pre-synaptic spikes (depression).
    nu_post:
        Learning rate applied on post-synaptic spikes (potentiation).
    """

    def __init__(self, nu_pre: float = 1e-4, nu_post: float = 1e-2) -> None:
        self.nu_pre = check_positive(nu_pre, "nu_pre", strict=False)
        self.nu_post = check_positive(nu_post, "nu_post", strict=False)

    def update(self, connection) -> None:
        source, target = connection.source, connection.target
        # Depression: every pre-synaptic spike moves its outgoing weights
        # towards zero in proportion to the recent post-synaptic activity.
        if self.nu_pre and source.spikes.any():
            connection.w[source.spikes, :] -= self.nu_pre * target.traces[None, :]
        # Potentiation: every post-synaptic spike strengthens the synapses
        # from recently active inputs.
        if self.nu_post and target.spikes.any():
            connection.w[:, target.spikes] += self.nu_post * source.traces[:, None]

    def update_batched(self, connection) -> None:
        """The same update over a variant batch (one image, V weight stacks).

        The spiking ``(variant, index)`` pairs are found once with
        ``np.nonzero``: depression is one gather/modify/scatter over the
        spiking source rows of every variant, potentiation one over the
        live rows of the spiking target columns, with no Python loop over
        variants.  Each variant's arithmetic is exactly :meth:`update`'s,
        and each modified cell is clipped once, to the value the scalar
        engine's clamp leaves (the order is set out in
        :func:`_pair_stdp_batched`).
        """
        _pair_stdp_batched(
            connection,
            self,
            lambda rows, traces: self.nu_pre * traces,
            lambda cols, traces: self.nu_post * traces,
        )


class WeightDependentPostPre(LearningRule):
    """PostPre with soft weight bounds.

    Potentiation is scaled by the remaining headroom ``(wmax - w)`` and
    depression by the distance from the floor ``(w - wmin)``, which keeps
    weights away from the hard clamp and is the variant Diehl & Cook describe
    for their "weight dependence" experiments.
    """

    def __init__(self, nu_pre: float = 1e-4, nu_post: float = 1e-2) -> None:
        self.nu_pre = check_positive(nu_pre, "nu_pre", strict=False)
        self.nu_post = check_positive(nu_post, "nu_post", strict=False)

    def _bounds(self, connection):
        wmin = connection.wmin if np.isfinite(connection.wmin) else 0.0
        wmax = connection.wmax if np.isfinite(connection.wmax) else 1.0
        return wmin, wmax, max(wmax - wmin, 1e-12)

    def update(self, connection) -> None:
        source, target = connection.source, connection.target
        wmin, wmax, span = self._bounds(connection)
        if self.nu_pre and source.spikes.any():
            rows = connection.w[source.spikes, :]
            connection.w[source.spikes, :] -= (
                self.nu_pre * target.traces[None, :] * (rows - wmin) / span
            )
        if self.nu_post and target.spikes.any():
            cols = connection.w[:, target.spikes]
            connection.w[:, target.spikes] += (
                self.nu_post * source.traces[:, None] * (wmax - cols) / span
            )

    def update_batched(self, connection) -> None:
        """Soft-bounded update over a variant batch (see ``PostPre``)."""
        wmin, wmax, span = self._bounds(connection)
        _pair_stdp_batched(
            connection,
            self,
            lambda rows, traces: self.nu_pre * traces * (rows - wmin) / span,
            lambda cols, traces: self.nu_post * traces * (wmax - cols) / span,
        )


def _pair_stdp_batched(connection, rule, depression, potentiation) -> None:
    """The lockstep pair-STDP step shared by both rules, clamp included.

    ``depression(rows, post_traces)`` and ``potentiation(cols, pre_traces)``
    return the scalar rule's per-cell deltas for a gathered weight block;
    a zero ``rule.nu_pre`` / ``rule.nu_post`` skips that half, as in the
    scalar rule.  The spiking ``(variant, index)`` pairs are found once and
    each half is one gather/modify/scatter: depression over ``w[:, rows, :]``
    (uniform source, reusing the rows the drive gathered) or ``w[v, r, :]``
    (per-variant source), potentiation over a ``(live row, pair)`` block of
    ``w[v, :, c]`` cells, through flat indices into ``w``.

    The scalar step leaves every cell at ``clip(w - dep + pot)``, clipped
    once.  The depression block is clipped before its scatter, except for
    the cells potentiation also touches: a uniform source splices their
    unclipped ``w - dep`` into the potentiation block, a per-variant source
    leaves them out of its clip (``where=``).  The potentiation block is
    clipped before its scatter.

    ``live`` is every source row, or, on a sign-safe connection (see
    ``_ConnectionBatch``), only the rows with a nonzero pre-trace, which
    include every row that fired this step.  A skipped cell's scalar update
    is ``clip(w + 0.0)``; with no ``-0.0`` to flip, ``w + 0.0`` is ``w``, and
    its clip is the identity except where ``clamp()`` clips the whole stack.
    Cells outside both blocks are never written.
    """
    source, target, w = connection.source_batch, connection.target_batch, connection.w
    wmin, wmax = connection.wmin, connection.wmax
    post_v, post_c = np.nonzero(target.spikes[:, 0, :])
    potentiate = bool(rule.nu_post) and post_v.size > 0
    splice = None
    if rule.nu_pre:
        if source.uniform_across_variants:
            index, block = connection.source_rows()
            rows = (slice(None), index)
            block -= depression(block, target.traces)
            if potentiate:
                splice = index, block[post_v, :, post_c].T
            block.clip(wmin, wmax, out=block)
        else:
            rows = np.nonzero(source.spikes[:, 0, :])
            block = w[rows]
            block -= depression(block, target.traces[rows[0], 0])
            keep = target.spikes[rows[0], 0] if potentiate else np.False_
            block.clip(wmin, wmax, out=block, where=~keep)
        w[rows] = block
    if potentiate:
        _, n_pre, n_post = w.shape
        if connection.sign_safe:
            live = np.flatnonzero(source.traces[:, 0].any(axis=0))
        else:
            live = np.arange(n_pre)
        cells = (live * n_post)[:, None] + (post_v * (n_pre * n_post) + post_c)
        block = connection.flat_w.take(cells)
        if splice is not None:
            block[np.searchsorted(live, splice[0])] = splice[1]
        if source.uniform_across_variants:
            pre_traces = source.traces[0, 0, live, None]
        else:
            pre_traces = source.traces[post_v, 0, live[:, None]]
        block += potentiation(block, pre_traces)
        block.clip(wmin, wmax, out=block)
        connection.flat_w[cells] = block
