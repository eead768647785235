"""Topology-aware dispatch of circuit-tier sweeps onto the batched engine.

The pipeline tier fans independent SNN training runs out over processes
(:class:`~repro.exec.executor.SweepExecutor`); the circuit tier has a much
cheaper trick available: a sweep whose points are *parameter variants of one
topology* (a VDD grid over one inverter, a sizing grid over one neuron) can
advance every point in lockstep through the batched engine of
:mod:`repro.analog.batch` — stacked ``(B, N, N)`` matrices, one vectorised
device evaluation for all points, one batched solve per Newton iteration.

:class:`CircuitSweepDispatcher` decides the route with one rule: a sweep
runs batched exactly when its engine is not ``"scalar"`` and it holds two
or more circuits of one topology; every other sweep runs one analysis per
circuit.  The figure runners and the
circuit helpers (``threshold_vs_vdd``, ``amplitude_vs_vdd``, ...) use this
to make the threshold/VDD sweeps of Figs. 5, 6 and the attack-calibration
maps one simulation pass each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analog.batch import (
    batched_dc_sweep,
    batched_operating_points,
    shares_topology,
)
from repro.analog.compiled import ENGINES
from repro.analog.dc import DCSweepResult, OperatingPoint, dc_operating_point, dc_sweep
from repro.analog.netlist import Circuit


@dataclass
class CircuitSweepDispatcher:
    """Routes a list of circuits to the batched or the serial engine.

    Parameters
    ----------
    engine:
        Solver backend, one of :data:`repro.analog.compiled.ENGINES`
        (checked on construction).  The serial route forwards it to every
        analysis (see :func:`repro.analog.compiled.make_system`);
        ``"scalar"`` forces the per-device reference path and so never
        batches, since the scalar engine has no lockstep mode.  The
        batched route always runs the compiled engine.

    The ``batched_sweeps`` / ``serial_sweeps`` counters record which route
    each sweep actually took.
    """

    engine: str = "auto"
    batched_sweeps: int = 0
    serial_sweeps: int = 0

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; use one of {', '.join(ENGINES)}"
            )

    def _use_batch(self, circuits: Sequence[Circuit]) -> bool:
        route_batched = (
            self.engine != "scalar"
            and len(circuits) > 1
            and shares_topology(circuits)
        )
        if route_batched:
            self.batched_sweeps += 1
        else:
            self.serial_sweeps += 1
        return route_batched

    def run_dc_sweep(
        self,
        circuits: Sequence[Circuit],
        source_name: str,
        values,
        *,
        options=None,
    ) -> List[DCSweepResult]:
        """Sweep one named source across every circuit, batched when possible.

        ``values`` is a shared ``(n_points,)`` grid or one row per circuit
        (``(B, n_points)``, e.g. VIN ramps scaled to each variant's VDD).
        """
        grid = np.asarray(values, dtype=float)
        if grid.ndim == 1:
            grid = np.broadcast_to(grid, (len(circuits), len(grid)))
        elif grid.ndim != 2 or grid.shape[0] != len(circuits):
            raise ValueError(
                "values must be (n_points,) or (n_circuits, n_points); got "
                f"shape {grid.shape} for {len(circuits)} circuits"
            )
        if self._use_batch(circuits):
            return batched_dc_sweep(circuits, source_name, grid, options=options)
        return [
            dc_sweep(circuit, source_name, grid[i], options=options, engine=self.engine)
            for i, circuit in enumerate(circuits)
        ]

    def run_operating_points(
        self,
        circuits: Sequence[Circuit],
        *,
        initial_guesses: Optional[Sequence[Dict[str, float]]] = None,
        options=None,
    ) -> List[OperatingPoint]:
        """DC operating points of every circuit, batched when possible.

        ``initial_guesses``, when given, holds one mapping per circuit.
        """
        if initial_guesses is None:
            initial_guesses = [None] * len(circuits)
        elif len(initial_guesses) != len(circuits):
            raise ValueError(
                f"initial_guesses must hold one mapping per circuit; got "
                f"{len(initial_guesses)} for {len(circuits)} circuits"
            )
        if self._use_batch(circuits):
            return batched_operating_points(
                circuits, initial_guesses=initial_guesses, options=options
            )
        return [
            dc_operating_point(
                circuit, initial_guess=guess, options=options, engine=self.engine
            )
            for circuit, guess in zip(circuits, initial_guesses)
        ]
