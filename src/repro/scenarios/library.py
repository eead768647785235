"""The built-in scenario library: threat space beyond the paper's figures.

The paper evaluates five hand-picked sweeps (Figs. 7b-9a).  Its threat
model — supply faults translated through circuit calibration into SNN
parameter corruption — supports a much richer space; this module registers
ready-to-run scenarios spanning it:

* per-layer droop asymmetry and partial laser reach,
* compound faults (driver gain + threshold corruption at once, the
  separate-domain Case-1 adversary),
* attack-under-defense matrices built from the Sec. V countermeasures,
* adaptive worst-case searches that locate accuracy-collapse thresholds
  in 2 lockstep passes (or at most 5 pipeline runs elsewhere) instead of
  an 8-point grid.

Every entry is pure declarative data (:class:`ScenarioSpec` /
:class:`CompositeScenario`); ``python -m repro scenarios list`` renders
this registry, and ``scenarios run`` executes it at any scale.
"""

from __future__ import annotations

from repro.scenarios.composite import CompositeScenario
from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import BisectionSettings, ScenarioSpec

# --------------------------------------------------------------------------
# Grid scenarios.
# --------------------------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="layer_droop_asymmetry",
        family="layer_threshold",
        title="Per-layer droop asymmetry",
        description="The same threshold droop applied to the excitatory vs "
        "the inhibitory layer: the inhibitory layer is the soft target.",
        tags=("attack", "asymmetry"),
        grid={
            "layer": ("excitatory", "inhibitory"),
            "threshold_change": (-0.2, -0.1, 0.1, 0.2),
        },
    )
)

register_scenario(
    ScenarioSpec(
        name="partial_glitch_reach",
        family="layer_threshold",
        title="Partial laser reach on the inhibitory layer",
        description="Accuracy vs the fraction of the inhibitory layer a "
        "localised glitch covers, for adjacent (contiguous) vs scattered "
        "(random) fault sites.",
        tags=("attack", "local-glitch"),
        fixed={"layer": "inhibitory", "threshold_change": 0.2},
        grid={
            "selection": ("random", "contiguous"),
            "fraction": (0.25, 0.5, 0.75, 1.0),
        },
    )
)

register_scenario(
    ScenarioSpec(
        name="vdd_droop_fine",
        family="global_vdd",
        title="Fine-grained global supply sweep",
        description="The black-box Attack-5 surface between the paper's "
        "five coarse VDD points.",
        tags=("attack", "black-box"),
        grid={"vdd": (0.8, 0.85, 0.9, 0.95, 1.05, 1.1, 1.15, 1.2)},
    )
)

register_scenario(
    ScenarioSpec(
        name="defense_sensitivity_matrix",
        family="both_thresholds",
        title="Threshold defenses vs attack severity",
        description="Attack-4 threshold corruption co-evaluated against the "
        "Sec. V threshold defenses: each defense's residual corruption runs "
        "through the pipeline next to the undefended attack.",
        tags=("defense", "matrix"),
        grid={"threshold_change": (-0.2, 0.2)},
        defenses=("sizing32", "comparator", "bandgap"),
    )
)

register_scenario(
    ScenarioSpec(
        name="driver_droop_under_robust_driver",
        family="input_gain",
        title="Driver droop under the robust current driver",
        description="Attack-1 theta corruption with and without the op-amp "
        "regulated driver: the defense leaves <1% of the excursion.",
        tags=("defense", "driver"),
        grid={"theta_change": (-0.2, -0.1, 0.1, 0.2)},
        defenses=("robust_driver",),
    )
)

# --------------------------------------------------------------------------
# Composite scenarios (compound faults on a single network).
# --------------------------------------------------------------------------

register_scenario(
    CompositeScenario(
        name="combined_gain_threshold",
        title="Compound driver-gain + threshold fault",
        description="A driver-domain droop (input-gain corruption) and a "
        "shared threshold droop injected into the same network — the "
        "compound white-box adversary the paper's per-figure sweeps never "
        "evaluate.",
        tags=("attack", "composite"),
        mode="product",
        members=(
            ScenarioSpec(
                name="combined_gain_threshold.gain",
                family="input_gain",
                grid={"theta_change": (-0.2, -0.1)},
            ),
            ScenarioSpec(
                name="combined_gain_threshold.threshold",
                family="both_thresholds",
                grid={"threshold_change": (-0.2, 0.2)},
            ),
        ),
    )
)

register_scenario(
    CompositeScenario(
        name="separate_domain_droop",
        title="Case-1 separate-domain asymmetric droop",
        description="The separate-power-domain adversary droops the driver "
        "domain and the excitatory layer by different amounts at once "
        "(threat-model Case 1).",
        tags=("attack", "composite", "case1"),
        mode="product",
        members=(
            ScenarioSpec(
                name="separate_domain_droop.drivers",
                family="input_gain",
                grid={"theta_change": (-0.2,)},
            ),
            ScenarioSpec(
                name="separate_domain_droop.excitatory",
                family="layer_threshold",
                fixed={"layer": "excitatory"},
                grid={"threshold_change": (-0.1, -0.2)},
            ),
        ),
    )
)

# --------------------------------------------------------------------------
# Adaptive worst-case searches (bisection).
# --------------------------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="inhibitory_collapse_search",
        family="layer_threshold",
        title="Inhibitory collapse threshold (adaptive)",
        description="Bisection for the smallest inhibitory threshold "
        "increase that halves the baseline accuracy — O(log n) pipeline "
        "runs instead of a dense Fig. 8b-style grid.",
        tags=("attack", "adaptive"),
        fixed={"layer": "inhibitory"},
        grid={
            "threshold_change": (
                0.025, 0.05, 0.075, 0.1, 0.125, 0.15, 0.175, 0.2,
            )
        },
        strategy="bisect",
        search=BisectionSettings(target_degradation=0.5),
    )
)

register_scenario(
    ScenarioSpec(
        name="excitatory_collapse_search",
        family="layer_threshold",
        title="Excitatory collapse threshold (adaptive)",
        description="The same search on the excitatory layer: expected "
        "outcome is *no collapse* (the paper's Fig. 8a worst case loses "
        "only ~7%), certified with a single probe of the severest value.",
        tags=("attack", "adaptive"),
        fixed={"layer": "excitatory"},
        grid={
            "threshold_change": (
                -0.025, -0.05, -0.075, -0.1, -0.125, -0.15, -0.175, -0.2,
            )
        },
        strategy="bisect",
        search=BisectionSettings(target_degradation=0.5),
    )
)

register_scenario(
    ScenarioSpec(
        name="global_droop_collapse_search",
        family="global_vdd",
        title="Global-VDD collapse threshold (adaptive)",
        description="How far the shared supply must droop before accuracy "
        "halves, searched adaptively over a fine VDD ladder (black box).",
        tags=("attack", "black-box", "adaptive"),
        grid={
            "vdd": (0.975, 0.95, 0.925, 0.9, 0.875, 0.85, 0.825, 0.8),
        },
        strategy="bisect",
        search=BisectionSettings(target_degradation=0.5),
    )
)
