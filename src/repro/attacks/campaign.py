"""Attack sweep drivers that regenerate the paper's attack figures.

The campaign object wraps a classification pipeline (anything exposing
``run(attack)`` and ``run_baseline()``) and sweeps attack parameters:

* :meth:`AttackCampaign.sweep_attack1_theta` — Fig. 7b.
* :meth:`AttackCampaign.sweep_layer_threshold` — Fig. 8a (excitatory) and
  Fig. 8b (inhibitory).
* :meth:`AttackCampaign.sweep_both_layers` — Fig. 8c.
* :meth:`AttackCampaign.sweep_global_vdd` — Fig. 9a.

Every sweep has a plain attack-list builder (``attack1_theta_attacks``,
``layer_threshold_attacks``, ``both_layers_attacks``,
``global_vdd_attacks``) and submits that list, behind a leading ``None``
for the baseline, as one batch to a
:class:`~repro.exec.executor.SweepExecutor`.  Independent evaluations run
in parallel when the campaign is built with ``workers >= 2``, and the
baseline is computed exactly once per campaign (not once per sweep).  On
the serial path the executor routes whole batches through the lockstep
batched SNN engine (:mod:`repro.exec.snn_batch` →
``pipeline.run_batch``): the grid's variants — which differ only in the
per-neuron corruptions the fault injector writes — train and evaluate in
one stacked pass, with results bit-identical to per-run execution.

Because the executor caches by attack content, a caller can merge several
sweeps into one pass: map the concatenated builder lists once, then call
the sweep methods, which assemble their results from cache hits.  The
figure registry (:mod:`repro.figures`) does this for a whole reproduction:
each pipeline figure declares its attacks through these builders, and a
``FigureContext`` maps the union of its figures' lists as one batch before
the first pipeline figure runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.attacks import (
    Attack1InputSpikeCorruption,
    Attack2ExcitatoryThreshold,
    Attack3InhibitoryThreshold,
    Attack4BothLayerThreshold,
    Attack5GlobalSupply,
    PowerAttack,
)
from repro.attacks.injector import FaultSiteSelection
from repro.core.results import AttackGridResult, ExperimentResult
from repro.exec.executor import SweepExecutor
from repro.neurons.calibration import VddToParameterMap
from repro.snn.models import EXCITATORY_LAYER, INHIBITORY_LAYER
from repro.utils.validation import check_in_choices

#: Default parameter grids, matching the paper's figures.
DEFAULT_THRESHOLD_CHANGES = (-0.2, -0.1, 0.1, 0.2)
DEFAULT_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_THETA_CHANGES = (-0.2, -0.1, 0.0, 0.1, 0.2)
DEFAULT_VDD_VALUES = (0.8, 0.9, 1.0, 1.1, 1.2)


@dataclass
class AttackOutcome:
    """One attack configuration together with its measured result."""

    attack: PowerAttack
    result: ExperimentResult

    @property
    def accuracy(self) -> float:
        """Measured accuracy under this attack."""
        return self.result.accuracy


@dataclass
class AttackSweep:
    """A one-dimensional sweep (parameter value → outcome)."""

    name: str
    parameter: str
    values: np.ndarray
    outcomes: List[AttackOutcome] = field(default_factory=list)
    baseline_accuracy: float = 0.0

    def accuracies(self) -> np.ndarray:
        """Accuracy per swept value."""
        return np.array([outcome.accuracy for outcome in self.outcomes])

    def worst_case(self) -> AttackOutcome:
        """The most damaging configuration."""
        return min(self.outcomes, key=lambda outcome: outcome.accuracy)


class AttackCampaign:
    """Runs families of attacks against one classification pipeline.

    Pipeline protocol
    -----------------
    The wrapped ``pipeline`` must provide:

    * ``run(attack) -> ExperimentResult`` — train and evaluate one network
      with the given :class:`~repro.attacks.attacks.PowerAttack` injected
      (results must be a pure function of the pipeline config and the
      attack, independent of run order).
    * ``run_baseline() -> ExperimentResult`` — the attack-free run.
    * ``.config`` — the experiment configuration.  For parallel execution
      the config must be picklable and sufficient to rebuild an equivalent
      pipeline in a worker process (``ClassificationPipeline(config)``);
      pass a custom ``executor`` with a ``pipeline_factory`` otherwise.

    Parameters
    ----------
    pipeline:
        The evaluation pipeline (see protocol above).  It may be omitted
        when ``executor`` is given: the campaign then uses the executor's
        pipeline, which the executor builds only when a sweep has an
        uncached attack to train, so a fully cached campaign builds none.
    executor:
        Optional pre-configured :class:`SweepExecutor`.  It must wrap the
        *same* pipeline as the campaign (sweeps execute through the
        executor; a mismatch would attribute another experiment's results
        to this campaign's config, so it is rejected).  Sharing one
        executor across campaigns over the same pipeline shares its result
        cache too.
    workers:
        Convenience shortcut: when ``executor`` is not given, build one
        with this many worker processes (``0``/``1`` = serial).
    """

    def __init__(
        self,
        pipeline=None,
        *,
        executor: Optional[SweepExecutor] = None,
        workers: int = 0,
    ) -> None:
        if (
            executor is not None
            and pipeline is not None
            and executor._pipeline is not None
            and executor._pipeline is not pipeline
        ):
            raise ValueError(
                "the executor wraps a different pipeline than the campaign; "
                "sweeps run through the executor, so results would be "
                "attributed to the wrong experiment"
            )
        self.executor = executor or SweepExecutor(pipeline, workers=workers)

    # -------------------------------------------------------------- evaluation
    def _evaluate(
        self, attacks: Sequence[Optional[PowerAttack]]
    ) -> Tuple[ExperimentResult, List[ExperimentResult]]:
        """The baseline result plus one result per attack, from one batch.

        The leading ``None`` puts the baseline in the batch (it is evaluated
        first on the serial path), so every attacked result can carry its
        baseline accuracy regardless of execution mode, and the sweep reads
        the baseline from it instead of issuing a second lookup.
        """
        baseline, *results = self.executor.map([None, *attacks])
        return baseline, results

    # ------------------------------------------------------------ Fig. 7b
    @staticmethod
    def attack1_theta_attacks(
        theta_changes: Sequence[float] = DEFAULT_THETA_CHANGES,
    ) -> List[Optional[PowerAttack]]:
        """The Attack 1 grid; a zero theta change is the baseline (``None``)."""
        return [
            None if abs(change) < 1e-12
            else Attack1InputSpikeCorruption(theta_change=float(change))
            for change in theta_changes
        ]

    def sweep_attack1_theta(
        self,
        theta_changes: Sequence[float] = DEFAULT_THETA_CHANGES,
    ) -> AttackSweep:
        """Attack 1: accuracy vs per-spike membrane-charge (theta) change."""
        attacks = self.attack1_theta_attacks(theta_changes)
        baseline, results = self._evaluate(attacks)
        sweep = AttackSweep(
            name="attack1_theta_sweep",
            parameter="theta_change",
            values=np.asarray(theta_changes, dtype=float),
            baseline_accuracy=baseline.accuracy,
        )
        for attack, result in zip(attacks, results):
            if attack is None:
                attack = Attack1InputSpikeCorruption(theta_change=0.0)
            sweep.outcomes.append(AttackOutcome(attack=attack, result=result))
        return sweep

    # ------------------------------------------------------- Fig. 8a / Fig. 8b
    @staticmethod
    def layer_threshold_attacks(
        layer: str,
        threshold_changes: Sequence[float] = DEFAULT_THRESHOLD_CHANGES,
        fractions: Sequence[float] = DEFAULT_FRACTIONS,
        *,
        selection: FaultSiteSelection = FaultSiteSelection.RANDOM,
    ) -> List[Optional[PowerAttack]]:
        """The Attack 2/3 grid, row-major over (threshold change, fraction).

        A zero fraction corrupts no neuron, so it is the baseline (``None``).
        """
        check_in_choices(layer, "layer", (EXCITATORY_LAYER, INHIBITORY_LAYER))
        attack_cls = (
            Attack2ExcitatoryThreshold
            if layer == EXCITATORY_LAYER
            else Attack3InhibitoryThreshold
        )
        return [
            None if fraction == 0.0
            else attack_cls(
                threshold_change=float(change),
                fraction=float(fraction),
                selection=selection,
            )
            for change in threshold_changes
            for fraction in fractions
        ]

    def sweep_layer_threshold(
        self,
        layer: str,
        threshold_changes: Sequence[float] = DEFAULT_THRESHOLD_CHANGES,
        fractions: Sequence[float] = DEFAULT_FRACTIONS,
        *,
        selection: FaultSiteSelection = FaultSiteSelection.RANDOM,
    ) -> AttackGridResult:
        """Attack 2 or 3: accuracy vs threshold change x fraction of the layer."""
        attacks = self.layer_threshold_attacks(
            layer, threshold_changes, fractions, selection=selection
        )
        baseline, results = self._evaluate(attacks)
        accuracies = np.array([result.accuracy for result in results]).reshape(
            (len(threshold_changes), len(fractions))
        )
        return AttackGridResult(
            name=f"{layer}_threshold_sweep",
            row_parameter="threshold_change",
            column_parameter="fraction_affected",
            row_values=np.asarray(threshold_changes, dtype=float),
            column_values=np.asarray(fractions, dtype=float),
            accuracies=accuracies,
            baseline_accuracy=baseline.accuracy,
            scale_name=baseline.scale_name,
            metadata={"layer": layer, "selection": selection.value},
        )

    # ------------------------------------------------------------------ Fig. 8c
    @staticmethod
    def both_layers_attacks(
        threshold_changes: Sequence[float] = DEFAULT_THRESHOLD_CHANGES,
    ) -> List[PowerAttack]:
        """The Attack 4 grid: one attack per threshold change."""
        return [
            Attack4BothLayerThreshold(threshold_change=float(change))
            for change in threshold_changes
        ]

    def sweep_both_layers(
        self,
        threshold_changes: Sequence[float] = DEFAULT_THRESHOLD_CHANGES,
    ) -> AttackSweep:
        """Attack 4: accuracy vs threshold change applied to both layers."""
        attacks = self.both_layers_attacks(threshold_changes)
        baseline, results = self._evaluate(attacks)
        sweep = AttackSweep(
            name="attack4_both_layers",
            parameter="threshold_change",
            values=np.asarray(threshold_changes, dtype=float),
            baseline_accuracy=baseline.accuracy,
        )
        for attack, result in zip(attacks, results):
            sweep.outcomes.append(AttackOutcome(attack=attack, result=result))
        return sweep

    # ------------------------------------------------------------------ Fig. 9a
    @staticmethod
    def global_vdd_attacks(
        vdd_values: Sequence[float] = DEFAULT_VDD_VALUES,
        *,
        neuron_type: str = "if_amplifier",
        parameter_map: Optional[VddToParameterMap] = None,
    ) -> List[Optional[PowerAttack]]:
        """The Attack 5 grid; the nominal supply is the baseline (``None``)."""
        attacks: List[Optional[PowerAttack]] = []
        for vdd in vdd_values:
            attack = Attack5GlobalSupply(
                vdd=float(vdd), neuron_type=neuron_type, parameter_map=parameter_map
            )
            nominal = abs(float(vdd) - attack.threat_model.nominal_vdd) < 1e-9
            attacks.append(None if nominal else attack)
        return attacks

    def sweep_global_vdd(
        self,
        vdd_values: Sequence[float] = DEFAULT_VDD_VALUES,
        *,
        neuron_type: str = "if_amplifier",
        parameter_map: Optional[VddToParameterMap] = None,
    ) -> AttackSweep:
        """Attack 5: accuracy vs the shared supply voltage (black box)."""
        attacks = self.global_vdd_attacks(
            vdd_values, neuron_type=neuron_type, parameter_map=parameter_map
        )
        baseline, results = self._evaluate(attacks)
        sweep = AttackSweep(
            name="attack5_global_vdd",
            parameter="vdd",
            values=np.asarray(vdd_values, dtype=float),
            baseline_accuracy=baseline.accuracy,
        )
        for vdd, attack, result in zip(vdd_values, attacks, results):
            if attack is None:
                attack = Attack5GlobalSupply(
                    vdd=float(vdd), neuron_type=neuron_type, parameter_map=parameter_map
                )
            sweep.outcomes.append(AttackOutcome(attack=attack, result=result))
        return sweep
