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
  :class:`BisectionStrategy` that finds accuracy-collapse thresholds in
  O(log n) pipeline runs.
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

from repro.scenarios.composite import CompositeScenario
from repro.scenarios.registry import (
    Scenario,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from repro.scenarios.runner import ScenarioResult, ScenarioRunner
from repro.scenarios.spec import (
    FAMILIES,
    AttackFamily,
    BisectionSettings,
    ScenarioSpec,
    ScenarioVariant,
    load_scenario_file,
)
from repro.scenarios.strategy import (
    BisectionOutcome,
    BisectionStrategy,
    degradations_from_accuracies,
    dense_collapse_index,
)

# Importing the library registers the built-in scenarios as a side effect
# (mirroring how repro.figures registers the paper's figures on import).
from repro.scenarios import library  # noqa: E402,F401  (registration import)

__all__ = [
    "AttackFamily",
    "BisectionOutcome",
    "BisectionSettings",
    "BisectionStrategy",
    "CompositeScenario",
    "FAMILIES",
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "ScenarioVariant",
    "degradations_from_accuracies",
    "dense_collapse_index",
    "get_scenario",
    "iter_scenarios",
    "load_scenario_file",
    "register_scenario",
    "scenario_names",
    "unregister_scenario",
]
