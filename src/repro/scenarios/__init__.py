"""Declarative threat-scenario subsystem (the attack DSL).

The paper evaluates a handful of hand-coded sweeps; this package makes the
full scenario space its threat model supports *declarative*:

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec`: one scenario as
  plain data (attack family, fixed parameters, swept grid, strategy,
  co-evaluated defenses, scale pin), loadable from YAML/JSON with
  strict validation.
* :mod:`repro.scenarios.composite` — :class:`CompositeScenario`: sequence
  or product composition; products fuse member grid points into compound
  :class:`~repro.attacks.attacks.CompositeAttack` faults on one network.
* :mod:`repro.scenarios.strategy` — dense grids plus the adaptive
  :class:`BisectionStrategy` that finds accuracy-collapse thresholds in at
  most ``max(1, ceil(log2(n - 1)) - 1)`` lockstep passes (2 for 8
  candidates), or ``2 + ceil(log2(n - 1))`` runs on the scalar engine or
  a process pool.
* :mod:`repro.scenarios.registry` — the name → scenario registry behind
  ``python -m repro scenarios list|run|report``.
* :mod:`repro.scenarios.library` — ≥8 registered scenarios beyond the
  paper's figures (droop asymmetry, compound faults, defense matrices,
  worst-case searches).
* :mod:`repro.scenarios.runner` — :class:`ScenarioRunner`: executes
  scenarios through the shared :class:`~repro.exec.executor.SweepExecutor`
  (lockstep batching, caching, process parallelism) with ``--shard i/n``
  splitting and persistent resume.
"""

from repro.utils.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    names={
        "composite": ["CompositeScenario"],
        "registry": [
            "Scenario",
            "get_scenario",
            "iter_scenarios",
            "register_scenario",
            "scenario_names",
            "unregister_scenario",
        ],
        "runner": ["ScenarioResult", "ScenarioRunner"],
        "spec": [
            "FAMILIES",
            "AttackFamily",
            "BisectionSettings",
            "ScenarioSpec",
            "ScenarioVariant",
            "load_scenario_file",
        ],
        "strategy": [
            "BisectionOutcome",
            "BisectionStrategy",
            "degradations_from_accuracies",
            "dense_collapse_index",
        ],
    },
)

# Importing the library registers the built-in scenarios as a side effect
# (mirroring how repro.figures registers the paper's figures on import).
from repro.scenarios import library  # noqa: E402,F401  (registration import)
