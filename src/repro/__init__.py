"""Reproduction of "Analysis of Power-Oriented Fault Injection Attacks on
Spiking Neural Networks" (Nagarajan et al., DATE 2022).

The library is organised in three tiers that mirror the paper:

* **Circuit tier** -- :mod:`repro.analog` (MNA circuit simulator),
  :mod:`repro.circuits` (netlists of every circuit in the paper) and
  :mod:`repro.neurons` (fast behavioural models of the analog neurons,
  calibrated against the circuit tier).
* **Network tier** -- :mod:`repro.snn` (a NumPy spiking-neural-network
  framework with the Diehl & Cook architecture) and :mod:`repro.datasets`
  (a synthetic MNIST-like digit task).
* **Attack tier** -- :mod:`repro.attacks` (the five power-oriented fault
  injection attacks), :mod:`repro.defenses` (the proposed countermeasures)
  and :mod:`repro.core` (the experiment pipeline that regenerates every
  figure in the paper's evaluation).

Cutting across the tiers, :mod:`repro.exec` fans independent sweep
evaluations out over a process pool with result caching and timing, and the
**reproduction tier** serves the paper's figures as first-class artifacts:
:mod:`repro.figures` (the registry of every figure as a
:class:`~repro.figures.FigureSpec`), :mod:`repro.store` (schema-versioned
JSON+NPZ artifacts with provenance, plus the persistent executor cache) and
:mod:`repro.cli` (``python -m repro list|run|report`` and
``python -m repro scenarios list|run|report``).  One level above the
figures, :mod:`repro.scenarios` is the declarative threat-scenario
subsystem: an attack DSL (:class:`~repro.scenarios.ScenarioSpec`,
YAML/JSON-loadable), composite/compound faults, adaptive bisection
search, a built-in scenario library and a sharded, resumable runner —
see ``docs/architecture.md`` and ``docs/scenarios.md`` for the full
picture.
"""

from repro.utils.lazy import attach

__version__ = "1.2.0"

__getattr__, __dir__, __all__ = attach(
    __name__,
    submodules=[
        "analog",
        "circuits",
        "neurons",
        "snn",
        "datasets",
        "attacks",
        "defenses",
        "core",
        "exec",
        "figures",
        "scenarios",
        "store",
        "utils",
    ],
)
