"""Lockstep dispatch of pipeline-tier sweeps onto the batched SNN engine.

The circuit tier batches topology-sharing netlists
(:class:`~repro.exec.circuits.CircuitSweepDispatcher`); the pipeline tier
has the same trick one level up: a sweep's grid points are *parameter
variants of one Diehl&Cook topology* (threshold scales, input gains), so a
serial batch of ``pipeline.run(attack)`` calls can instead train and
evaluate every point in one lockstep pass through
:meth:`~repro.core.pipeline.ClassificationPipeline.run_batch`.

:class:`PipelineBatchDispatcher` decides the route for the serial path of
:class:`~repro.exec.executor.SweepExecutor`: batched when the pipeline
exposes ``run_batch`` and resolves to the batched engine, per-run serial
otherwise (including a graceful fallback when the lockstep engine rejects
the network).  Parallel executors keep their per-task process fan-out —
each worker still runs the batched *inference* passes internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.snn.batched import BatchedNetworkError

#: Smallest batch worth a lockstep pass (a single pending task gains nothing
#: from variant batching).
MIN_BATCH = 2


@dataclass
class PipelineBatchDispatcher:
    """Routes a serial batch of attack evaluations through ``run_batch``.

    A batch takes the lockstep route whenever the pipeline supports it; a
    pipeline forced to ``engine="scalar"`` always takes the per-run serial
    path (the reference behaviour).  The ``batched_sweeps`` /
    ``serial_sweeps`` counters record which route each batch actually
    took; ``fallbacks`` counts lockstep passes the engine rejected at build
    time (the batch then re-ran serially).
    """

    batched_sweeps: int = 0
    serial_sweeps: int = 0
    fallbacks: int = 0
    _last_route: str = field(default="", repr=False)

    def supports(self, pipeline, n_tasks: int) -> bool:
        """Whether this batch should take the lockstep route."""
        return (
            n_tasks >= MIN_BATCH
            and callable(getattr(pipeline, "run_batch", None))
            and getattr(pipeline, "resolved_engine", "scalar") == "batched"
        )

    def run(self, pipeline, attacks: Sequence) -> Optional[List]:
        """One lockstep pass over ``attacks`` (``None`` = baseline).

        Returns the aligned results, or ``None`` when the batched engine
        rejected the network — the caller then falls back to per-run serial
        execution, which is always available.
        """
        try:
            results = pipeline.run_batch(list(attacks))
        except BatchedNetworkError:
            self.fallbacks += 1
            self._last_route = "serial"
            return None
        self.batched_sweeps += 1
        self._last_route = "batched"
        return results

    def note_serial(self) -> None:
        """Record a batch that took the per-run serial route."""
        self.serial_sweeps += 1
        self._last_route = "serial"
