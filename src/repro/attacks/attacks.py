"""The paper's five power-oriented attacks as configurable objects.

Each attack knows (a) its threat model, (b) which network parameters it
corrupts and by how much, and (c) how to apply itself to a
:class:`~repro.snn.models.DiehlAndCook2015` network through a
:class:`~repro.attacks.injector.FaultInjector`.

| Attack | Paper section | Knowledge | Corruption |
|--------|---------------|-----------|------------|
| 1      | IV-B          | white box | input-driver amplitude (``theta``)   |
| 2      | IV-C          | white box | EL threshold, 0-100 % of the layer   |
| 3      | IV-C          | white box | IL threshold, 0-100 % of the layer   |
| 4      | IV-C          | white box | EL + IL thresholds, whole layers     |
| 5      | IV-D          | black box | drivers + both layer thresholds via a shared VDD |
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional

from repro.attacks.injector import FaultInjector, FaultRecord, FaultSiteSelection
from repro.attacks.threat import (
    ThreatModel,
    black_box_external_adversary,
    white_box_laser_adversary,
)
from repro.neurons.calibration import VddToParameterMap, behavioural_parameter_map
from repro.snn.models import EXCITATORY_LAYER, INHIBITORY_LAYER
from repro.utils.validation import check_fraction, check_positive, check_range


@dataclass
class PowerAttack:
    """Base class: a named, parameterised power-fault attack."""

    name: str = "power_attack"
    description: str = ""
    threat_model: ThreatModel = field(default_factory=white_box_laser_adversary)

    def apply(self, injector: FaultInjector) -> List[FaultRecord]:
        """Inject this attack's faults and return the records."""
        raise NotImplementedError

    @property
    def is_black_box(self) -> bool:
        """True when the attack requires no architecture knowledge."""
        return self.threat_model.is_black_box

    def label(self) -> str:
        """Short label used in sweep tables."""
        return self.name


@dataclass
class NoAttack(PowerAttack):
    """The attack-free baseline (0 % of any layer affected)."""

    name: str = "baseline"
    description: str = "No supply manipulation; nominal operation."

    def apply(self, injector: FaultInjector) -> List[FaultRecord]:
        return []


@dataclass
class Attack1InputSpikeCorruption(PowerAttack):
    """Attack 1 — corrupt the input current drivers (paper Sec. IV-B).

    A VDD change at the drivers scales the input spike amplitude, which
    scales the membrane-voltage change per input spike (the paper's
    ``theta``).  ``theta_change`` is the fractional change (−0.2 … +0.2 in
    the paper's sweep).
    """

    name: str = "attack1_input_spike_corruption"
    description: str = "Driver-only VDD fault scales the per-spike membrane charge."
    theta_change: float = -0.2
    fraction: float = 1.0
    selection: FaultSiteSelection = FaultSiteSelection.RANDOM

    def __post_init__(self) -> None:
        check_range(self.theta_change, "theta_change", -0.9, 2.0)
        check_fraction(self.fraction, "fraction")

    def apply(self, injector: FaultInjector) -> List[FaultRecord]:
        scale = 1.0 + self.theta_change
        record = injector.inject_input_gain_fault(
            EXCITATORY_LAYER, scale, fraction=self.fraction, selection=self.selection
        )
        return [record]

    def label(self) -> str:
        return f"attack1(theta{self.theta_change:+.0%})"


@dataclass
class Attack2ExcitatoryThreshold(PowerAttack):
    """Attack 2 — corrupt the excitatory layer's membrane threshold."""

    name: str = "attack2_excitatory_threshold"
    description: str = "Laser-localised VDD fault on (part of) the excitatory layer."
    threshold_change: float = -0.2
    fraction: float = 1.0
    selection: FaultSiteSelection = FaultSiteSelection.RANDOM

    def __post_init__(self) -> None:
        check_range(self.threshold_change, "threshold_change", -0.9, 2.0)
        check_fraction(self.fraction, "fraction")

    def apply(self, injector: FaultInjector) -> List[FaultRecord]:
        scale = 1.0 + self.threshold_change
        record = injector.inject_threshold_fault(
            EXCITATORY_LAYER, scale, fraction=self.fraction, selection=self.selection
        )
        return [record]

    def label(self) -> str:
        return f"attack2(thr{self.threshold_change:+.0%},{self.fraction:.0%})"


@dataclass
class Attack3InhibitoryThreshold(PowerAttack):
    """Attack 3 — corrupt the inhibitory layer's membrane threshold."""

    name: str = "attack3_inhibitory_threshold"
    description: str = "Laser-localised VDD fault on (part of) the inhibitory layer."
    threshold_change: float = -0.2
    fraction: float = 1.0
    selection: FaultSiteSelection = FaultSiteSelection.RANDOM

    def __post_init__(self) -> None:
        check_range(self.threshold_change, "threshold_change", -0.9, 2.0)
        check_fraction(self.fraction, "fraction")

    def apply(self, injector: FaultInjector) -> List[FaultRecord]:
        scale = 1.0 + self.threshold_change
        record = injector.inject_threshold_fault(
            INHIBITORY_LAYER, scale, fraction=self.fraction, selection=self.selection
        )
        return [record]

    def label(self) -> str:
        return f"attack3(thr{self.threshold_change:+.0%},{self.fraction:.0%})"


@dataclass
class Attack4BothLayerThreshold(PowerAttack):
    """Attack 4 — corrupt both layer thresholds in full (paper Sec. IV-C)."""

    name: str = "attack4_both_layer_threshold"
    description: str = "VDD fault shared by the excitatory and inhibitory layers."
    threshold_change: float = -0.2

    def __post_init__(self) -> None:
        check_range(self.threshold_change, "threshold_change", -0.9, 2.0)

    def apply(self, injector: FaultInjector) -> List[FaultRecord]:
        scale = 1.0 + self.threshold_change
        return [
            injector.inject_threshold_fault(EXCITATORY_LAYER, scale, fraction=1.0),
            injector.inject_threshold_fault(INHIBITORY_LAYER, scale, fraction=1.0),
        ]

    def label(self) -> str:
        return f"attack4(thr{self.threshold_change:+.0%})"


@dataclass
class CompositeAttack(PowerAttack):
    """Several attacks applied to the *same* network as one compound fault.

    The scenario subsystem (:mod:`repro.scenarios`) uses this to express
    compound threat configurations the paper never swept — e.g. a driver
    VDD droop (input-gain corruption) *while* a laser glitch shifts a layer
    threshold.  Members are applied in order; every member's fault records
    are concatenated, so reporting and reversal see the full compound fault.

    The label concatenates the member labels.  The executor's cache key is
    content-based over every member field, so distinct combinations never
    alias; the pipeline's fault-site RNG stream is keyed on the label —
    combinations whose labels coincide (labels omit e.g. the site-selection
    mode) share a stream but consume it through their own injection paths,
    so results stay a pure function of the attack content.
    """

    name: str = "composite_attack"
    description: str = "Compound supply fault combining several attacks."
    attacks: tuple = ()

    def __post_init__(self) -> None:
        if not self.attacks:
            raise ValueError("a composite attack needs at least one member attack")
        for member in self.attacks:
            if not isinstance(member, PowerAttack):
                raise TypeError(
                    f"composite members must be PowerAttack instances, "
                    f"got {type(member).__name__}"
                )

    def apply(self, injector: FaultInjector) -> List[FaultRecord]:
        records: List[FaultRecord] = []
        for member in self.attacks:
            records.extend(member.apply(injector))
        return records

    @property
    def is_black_box(self) -> bool:
        """A composite is black box only if every member is."""
        return all(member.is_black_box for member in self.attacks)

    def label(self) -> str:
        return "+".join(member.label() for member in self.attacks)


@dataclass
class Attack5GlobalSupply(PowerAttack):
    """Attack 5 — black-box manipulation of the shared system supply.

    The adversary only chooses the supply voltage; the induced corruption of
    the per-spike drive (``theta``) and of both layers' thresholds is derived
    from the circuit-calibrated :class:`VddToParameterMap`.
    """

    name: str = "attack5_global_supply"
    description: str = "Black-box VDD fault on the whole system (drivers + all layers)."
    threat_model: ThreatModel = field(default_factory=black_box_external_adversary)
    vdd: float = 0.8
    neuron_type: str = "if_amplifier"
    parameter_map: Optional[VddToParameterMap] = None

    def __post_init__(self) -> None:
        if not math.isfinite(check_positive(self.vdd, "vdd")):
            raise ValueError(f"vdd must be finite, got {self.vdd!r}")
        # Resolve both scales now, so a supply outside the map's calibrated
        # range or an uncalibrated neuron type fails at construction (and a
        # scenario spec at load), not when the fault is applied.
        self.induced_theta_scale()
        self.induced_threshold_scale()

    def _map(self) -> VddToParameterMap:
        # Never mutate self: the attack object doubles as a cache/task key in
        # the execution subsystem, and must stay cheap to pickle.
        if self.parameter_map is None:
            return _default_parameter_map()
        return self.parameter_map

    def induced_theta_scale(self) -> float:
        """Driver-amplitude scale induced by the chosen supply."""
        return self._map().theta_scale(self.vdd)

    def induced_threshold_scale(self) -> float:
        """Threshold scale induced by the chosen supply."""
        return self._map().threshold_scale(self.vdd, self.neuron_type)

    def apply(self, injector: FaultInjector) -> List[FaultRecord]:
        theta_scale = self.induced_theta_scale()
        threshold_scale = self.induced_threshold_scale()
        return [
            injector.inject_input_gain_fault(EXCITATORY_LAYER, theta_scale, fraction=1.0),
            injector.inject_threshold_fault(EXCITATORY_LAYER, threshold_scale, fraction=1.0),
            injector.inject_threshold_fault(INHIBITORY_LAYER, threshold_scale, fraction=1.0),
        ]

    def label(self) -> str:
        return f"attack5(vdd={self.vdd:.2f}V)"


@lru_cache(maxsize=1)
def _default_parameter_map() -> VddToParameterMap:
    """The shared default calibration map (built once per process)."""
    return behavioural_parameter_map()
