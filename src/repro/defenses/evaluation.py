"""Accuracy-recovery evaluation of the threshold defenses (Fig. 9c, Fig. 10a).

The circuit-tier defense modules answer "how much threshold corruption
survives the defense"; this module closes the loop by running the *residual*
corruption through the classification pipeline and comparing the defended
accuracy against the undefended attack and the baseline.  All pipeline runs
are submitted as one batch through a
:class:`~repro.exec.executor.SweepExecutor`, so evaluating several defenses
shares the baseline and parallelises across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.attacks.attacks import Attack4BothLayerThreshold, PowerAttack
from repro.core.results import ExperimentResult
from repro.exec.executor import SweepExecutor


def residual_defense_factors(attack_vdd: float = 0.8) -> Dict[str, float]:
    """Fraction of an attack-induced parameter change surviving each defense.

    A factor of ``0.0`` means the defense removes the corruption entirely;
    ``1.0`` means it is useless.  The factors are derived from the
    circuit-tier defense models at the given attack supply voltage, so they
    carry the same calibration the paper's Sec. V evaluation uses.  The
    scenario subsystem (:mod:`repro.scenarios`) uses them to co-evaluate
    "attack under defense" variants: the defended variant of an attack
    scales the attacked parameter's excursion by the defense's factor.

    Returns a mapping from defense name (``robust_driver``, ``sizing32``,
    ``comparator``, ``bandgap``) to its residual factor.
    """
    from repro.defenses.bandgap_threshold import BandgapThresholdDefense
    from repro.defenses.comparator_neuron import ComparatorNeuronDefense
    from repro.defenses.robust_driver import RobustDriverDefense
    from repro.defenses.sizing import SizingDefense

    robust = RobustDriverDefense()
    sizing = SizingDefense()
    comparator = ComparatorNeuronDefense()
    bandgap = BandgapThresholdDefense()

    def _ratio(residual: float, undefended: float) -> float:
        if undefended == 0.0:
            return 0.0
        return float(residual / undefended)

    return {
        "robust_driver": _ratio(
            robust.residual_theta_change(attack_vdd),
            robust.undefended_theta_scale(attack_vdd) - 1.0,
        ),
        "sizing32": _ratio(
            sizing.threshold_change(32.0, attack_vdd),
            sizing.threshold_change(1.0, attack_vdd),
        ),
        "comparator": _ratio(
            comparator.threshold_scale(attack_vdd) - 1.0,
            comparator.undefended_threshold_scale(attack_vdd) - 1.0,
        ),
        "bandgap": _ratio(
            bandgap.residual_threshold_change(attack_vdd),
            bandgap.undefended_threshold_scale(attack_vdd) - 1.0,
        ),
    }


@dataclass
class DefendedAccuracyPoint:
    """Accuracy of one defense against the undefended attack and baseline."""

    defense_name: str
    residual_threshold_change: float
    defended: ExperimentResult
    undefended: ExperimentResult
    baseline: ExperimentResult

    @property
    def accuracy_recovered(self) -> float:
        """Accuracy regained by the defense over the undefended attack."""
        return self.defended.accuracy - self.undefended.accuracy

    @property
    def residual_degradation(self) -> float:
        """Accuracy still lost to the residual corruption, vs the baseline."""
        if self.baseline.accuracy == 0.0:
            return 0.0
        return (
            self.baseline.accuracy - self.defended.accuracy
        ) / self.baseline.accuracy

    def as_row(self) -> tuple:
        """Table row: (defense, residual change, defended acc, undefended acc)."""
        return (
            self.defense_name,
            f"{self.residual_threshold_change:+.2%}",
            f"{self.defended.accuracy:.4f}",
            f"{self.undefended.accuracy:.4f}",
        )


class DefenseAccuracyEvaluator:
    """Evaluates threshold defenses by their residual accuracy impact.

    Parameters
    ----------
    pipeline:
        The classification pipeline (campaign pipeline protocol).  It may be
        omitted when ``executor`` is given; the executor then builds its
        pipeline only when an attack is not in its cache.
    executor:
        Optional shared :class:`SweepExecutor`; results (in particular the
        baseline and the undefended attack) are cached across calls.
    workers:
        When ``executor`` is not given, build one with this many workers.
    """

    def __init__(
        self,
        pipeline=None,
        *,
        executor: Optional[SweepExecutor] = None,
        workers: int = 0,
    ) -> None:
        self.executor = executor or SweepExecutor(pipeline, workers=workers)

    @staticmethod
    def threshold_defense_attacks(
        residual_changes: Mapping[str, float],
        *,
        undefended_change: float = -0.2,
    ) -> List[PowerAttack]:
        """The unmitigated attack, then one attack per defense's residual."""
        return [
            Attack4BothLayerThreshold(threshold_change=undefended_change),
            *(
                Attack4BothLayerThreshold(threshold_change=float(change))
                for change in residual_changes.values()
            ),
        ]

    def evaluate_threshold_defenses(
        self,
        residual_changes: Mapping[str, float],
        *,
        undefended_change: float = -0.2,
    ) -> List[DefendedAccuracyPoint]:
        """Accuracy of each defense's residual corruption vs the raw attack.

        Parameters
        ----------
        residual_changes:
            Mapping from defense name to the signed threshold change that
            survives that defense (e.g. ``{"32x sizing": -0.0523}`` from
            ``SizingDefense.residual_threshold_scale(...) - 1``).
        undefended_change:
            The threshold change of the unmitigated attack (paper: −20 %).
        """
        baseline, undefended, *defended = self.executor.map(
            [
                None,
                *self.threshold_defense_attacks(
                    residual_changes, undefended_change=undefended_change
                ),
            ]
        )
        return [
            DefendedAccuracyPoint(
                defense_name=name,
                residual_threshold_change=float(change),
                defended=result,
                undefended=undefended,
                baseline=baseline,
            )
            for (name, change), result in zip(residual_changes.items(), defended)
        ]
