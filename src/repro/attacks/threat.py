"""The paper's threat model (Sec. I and III-A).

The adversary manipulates the supply voltage of an analog-neuron SNN
accelerator, either globally (external power port) or locally (laser-induced
glitching of part of a die).  Three power-domain configurations determine
which components a given VDD manipulation can reach:

* **Case 1 — separate domains**: current drivers and neurons have their own
  supplies, so each can be corrupted independently.
* **Case 2 — single domain**: the whole SNN shares one supply; corrupting it
  affects drivers and every neuron layer at once (the black-box Attack 5).
* **Case 3 — local glitching**: the adversary has fine-grained (laser)
  control inside a domain and can hit a fraction of one layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from repro.utils.validation import check_fraction, check_range


class PowerDomainScheme(Enum):
    """How the SNN's supplies are partitioned (paper Sec. III-A)."""

    SEPARATE_DOMAINS = "separate_domains"
    SINGLE_DOMAIN = "single_domain"
    LOCAL_GLITCHING = "local_glitching"


class AdversaryAccess(Enum):
    """How the adversary reaches the supply."""

    EXTERNAL_POWER_PORT = "external_power_port"
    INSIDER_POWER_PORT = "insider_power_port"
    LASER_GLITCHING = "laser_glitching"


class PowerDomain(Enum):
    """The circuit blocks a fault can target."""

    CURRENT_DRIVERS = "current_drivers"
    EXCITATORY_LAYER = "excitatory_layer"
    INHIBITORY_LAYER = "inhibitory_layer"
    WHOLE_SYSTEM = "whole_system"


@dataclass
class ThreatModel:
    """A concrete adversary instantiation.

    Attributes
    ----------
    scheme:
        Power-domain partitioning of the victim.
    access:
        Physical access vector.
    targets:
        Which domains the adversary can corrupt.
    knows_architecture:
        White-box attacks require layout/architecture knowledge to aim the
        fault; the black-box Attack 5 does not.
    vdd_range:
        The supply excursion the adversary can impose (the paper studies
        ±20 % around the 1 V nominal).
    reachable_fraction:
        Largest fraction of a targeted layer a localised glitch can cover
        (1.0 for global manipulation).
    """

    scheme: PowerDomainScheme
    access: AdversaryAccess
    targets: Tuple[PowerDomain, ...]
    knows_architecture: bool
    vdd_range: Tuple[float, float] = (0.8, 1.2)
    nominal_vdd: float = 1.0
    reachable_fraction: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        low, high = self.vdd_range
        if low >= high:
            raise ValueError("vdd_range must be (low, high) with low < high")
        check_range(self.nominal_vdd, "nominal_vdd", low, high)
        check_fraction(self.reachable_fraction, "reachable_fraction")
        if not self.targets:
            raise ValueError("a threat model needs at least one target domain")

    @property
    def is_black_box(self) -> bool:
        """True when the attack needs no architecture knowledge."""
        return not self.knows_architecture


def black_box_external_adversary() -> ThreatModel:
    """The Attack-5 adversary: controls the shared external supply only."""
    return ThreatModel(
        scheme=PowerDomainScheme.SINGLE_DOMAIN,
        access=AdversaryAccess.EXTERNAL_POWER_PORT,
        targets=(PowerDomain.WHOLE_SYSTEM,),
        knows_architecture=False,
        description=(
            "External adversary with possession of the device or its power "
            "port; corrupts drivers and every neuron layer simultaneously."
        ),
    )


def white_box_laser_adversary(reachable_fraction: float = 1.0) -> ThreatModel:
    """The Attack 1-4 adversary: laser-induced local power glitching."""
    return ThreatModel(
        scheme=PowerDomainScheme.LOCAL_GLITCHING,
        access=AdversaryAccess.LASER_GLITCHING,
        targets=(
            PowerDomain.CURRENT_DRIVERS,
            PowerDomain.EXCITATORY_LAYER,
            PowerDomain.INHIBITORY_LAYER,
        ),
        knows_architecture=True,
        reachable_fraction=reachable_fraction,
        description=(
            "Insider adversary with layout knowledge and a focused laser; "
            "can glitch individual layers or peripherals, partially or fully."
        ),
    )
