"""Power-oriented fault-injection attacks on the Diehl&Cook SNN.

The package translates circuit-level supply-voltage corruption into
network-level parameter corruption and packages the paper's five attacks:

* :mod:`repro.attacks.threat` — the threat model (power domains, adversary
  capabilities, black-box vs white-box knowledge).
* :mod:`repro.attacks.injector` — the fault injector that corrupts per-neuron
  thresholds and input gains for a chosen fraction of a layer.
* :mod:`repro.attacks.attacks` — Attack 1-5 as configurable objects.
* :mod:`repro.attacks.campaign` — sweep drivers that regenerate the attack
  figures (accuracy vs theta change, vs threshold change x fraction, vs VDD).
"""

from repro.utils.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    names={
        "threat": ["AdversaryAccess", "PowerDomain", "PowerDomainScheme", "ThreatModel"],
        "injector": ["FaultInjector", "FaultRecord", "FaultSiteSelection"],
        "attacks": [
            "Attack1InputSpikeCorruption",
            "Attack2ExcitatoryThreshold",
            "Attack3InhibitoryThreshold",
            "Attack4BothLayerThreshold",
            "Attack5GlobalSupply",
            "CompositeAttack",
            "NoAttack",
            "PowerAttack",
        ],
        "campaign": ["AttackCampaign", "AttackOutcome", "AttackSweep"],
    },
)
