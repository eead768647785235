"""The supply-insensitive voltage reference of the threshold defenses.

The paper's defense for the I&F neuron replaces the VDD-divided threshold
with a bandgap reference (citing Sanborn's sub-1-V design, ±0.56 % output
variation for VDD between 0.85 V and 1 V).  :class:`BandgapReferenceModel`
is a behavioural model with the sensitivity reported in the cited bandgap
paper, used by the defense evaluation where only the reference's residual
sensitivity matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive


@dataclass
class BandgapReferenceModel:
    """Behavioural bandgap reference with a bounded VDD sensitivity.

    Parameters
    ----------
    nominal_output:
        Reference voltage at the nominal supply.
    nominal_vdd:
        Supply voltage at which the nominal output is produced.
    fractional_sensitivity:
        Worst-case fractional output change across the rated supply range
        (the cited design achieves ±0.56 % from 0.85 V to 1 V).
    minimum_supply:
        Below this supply the reference drops out and tracks VDD linearly.
    """

    nominal_output: float = 0.5
    nominal_vdd: float = 1.0
    fractional_sensitivity: float = 0.0056
    minimum_supply: float = 0.6

    def __post_init__(self) -> None:
        check_positive(self.nominal_output, "nominal_output")
        check_positive(self.nominal_vdd, "nominal_vdd")
        check_positive(self.minimum_supply, "minimum_supply")
        if not 0.0 <= self.fractional_sensitivity < 1.0:
            raise ValueError("fractional_sensitivity must be in [0, 1)")

    def output(self, vdd: float) -> float:
        """Reference output at supply ``vdd``.

        Within regulation the output moves linearly between
        ``±fractional_sensitivity`` across a ±20 % supply excursion; below
        ``minimum_supply`` the reference loses headroom and the output
        collapses proportionally with the supply.
        """
        if vdd < self.minimum_supply:
            return self.nominal_output * vdd / self.minimum_supply
        fractional_vdd_change = (vdd - self.nominal_vdd) / self.nominal_vdd
        # ±20 % VDD excursion maps to ±fractional_sensitivity output change.
        fractional_output_change = self.fractional_sensitivity * (
            fractional_vdd_change / 0.2
        )
        return self.nominal_output * (1.0 + fractional_output_change)
