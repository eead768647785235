"""Result containers for the attack experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class ExperimentResult:
    """Outcome of one train-and-evaluate run, possibly under attack.

    Attributes
    ----------
    attack_label:
        Label of the applied attack (``"baseline"`` when none).
    accuracy:
        Classification accuracy on the held-out images.
    baseline_accuracy:
        Accuracy of the matching attack-free run (same config and seed).
    mean_excitatory_spikes:
        Average number of excitatory spikes per evaluated example — the
        paper's qualitative explanations (inhibition collapse, silenced
        excitatory layer) show up directly in this number.
    fault_descriptions:
        Human-readable descriptions of the injected faults.
    """

    attack_label: str
    accuracy: float
    baseline_accuracy: Optional[float] = None
    mean_excitatory_spikes: float = 0.0
    fault_descriptions: List[str] = field(default_factory=list)
    scale_name: str = "benchmark"

    @property
    def accuracy_change(self) -> Optional[float]:
        """Absolute accuracy change vs the baseline (negative = degradation)."""
        if self.baseline_accuracy is None:
            return None
        return self.accuracy - self.baseline_accuracy

    @property
    def relative_degradation(self) -> Optional[float]:
        """Accuracy degradation as a fraction of the baseline accuracy.

        The paper reports degradations this way ("accuracy is reduced by
        85.65 %" means the attacked accuracy lost 85.65 % of the baseline).
        """
        if self.baseline_accuracy in (None, 0.0):
            return None
        return (self.baseline_accuracy - self.accuracy) / self.baseline_accuracy

    def as_row(self) -> tuple:
        """(label, accuracy, change) tuple for table printing."""
        change = self.accuracy_change
        return (
            self.attack_label,
            round(self.accuracy, 4),
            None if change is None else round(change, 4),
        )


@dataclass
class AttackGridResult:
    """A 2-D sweep of attack parameters (e.g. threshold change × fraction).

    ``accuracies[i, j]`` is the accuracy for ``row_values[i]`` and
    ``column_values[j]``.
    """

    name: str
    row_parameter: str
    column_parameter: str
    row_values: np.ndarray
    column_values: np.ndarray
    accuracies: np.ndarray
    baseline_accuracy: float
    scale_name: str = "benchmark"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.row_values = np.asarray(self.row_values, dtype=float)
        self.column_values = np.asarray(self.column_values, dtype=float)
        self.accuracies = np.asarray(self.accuracies, dtype=float)
        expected = (len(self.row_values), len(self.column_values))
        if self.accuracies.shape != expected:
            raise ValueError(
                f"accuracies must have shape {expected}, got {self.accuracies.shape}"
            )

    def degradation(self) -> np.ndarray:
        """Accuracy drop below the baseline (positive numbers = degradation)."""
        return self.baseline_accuracy - self.accuracies

    def worst_case(self) -> tuple:
        """(row_value, column_value, accuracy) of the most damaging point."""
        idx = np.unravel_index(np.argmin(self.accuracies), self.accuracies.shape)
        return (
            float(self.row_values[idx[0]]),
            float(self.column_values[idx[1]]),
            float(self.accuracies[idx]),
        )

    def worst_case_relative_degradation(self) -> float:
        """Largest accuracy loss as a fraction of the baseline accuracy."""
        if self.baseline_accuracy == 0:
            return 0.0
        return float(
            (self.baseline_accuracy - self.accuracies.min()) / self.baseline_accuracy
        )
