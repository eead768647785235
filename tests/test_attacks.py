"""Tests for the threat model, fault injector and the five attacks."""

import numpy as np
import pytest

from repro.attacks import (
    Attack1InputSpikeCorruption,
    Attack2ExcitatoryThreshold,
    Attack3InhibitoryThreshold,
    Attack4BothLayerThreshold,
    Attack5GlobalSupply,
    FaultInjector,
    FaultSiteSelection,
    NoAttack,
    PowerDomain,
)
from repro.attacks.threat import (
    AdversaryAccess,
    PowerDomainScheme,
    ThreatModel,
    black_box_external_adversary,
    white_box_laser_adversary,
)
from repro.snn.models import (
    DiehlAndCook2015,
    DiehlAndCookParameters,
    EXCITATORY_LAYER,
    INHIBITORY_LAYER,
)


@pytest.fixture
def network():
    return DiehlAndCook2015(DiehlAndCookParameters(n_inputs=16, n_neurons=20), rng=0)


@pytest.fixture
def injector(network):
    return FaultInjector(network, rng=0)


class TestThreatModel:
    def test_black_box_adversary(self):
        model = black_box_external_adversary()
        assert model.is_black_box
        assert model.targets == (PowerDomain.WHOLE_SYSTEM,)
        assert model.scheme is PowerDomainScheme.SINGLE_DOMAIN

    def test_white_box_adversary(self):
        model = white_box_laser_adversary(reachable_fraction=0.5)
        assert not model.is_black_box
        assert model.access is AdversaryAccess.LASER_GLITCHING
        assert model.reachable_fraction == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreatModel(
                scheme=PowerDomainScheme.SINGLE_DOMAIN,
                access=AdversaryAccess.EXTERNAL_POWER_PORT,
                targets=(),
                knows_architecture=False,
            )
        with pytest.raises(ValueError):
            ThreatModel(
                scheme=PowerDomainScheme.SINGLE_DOMAIN,
                access=AdversaryAccess.EXTERNAL_POWER_PORT,
                targets=(PowerDomain.WHOLE_SYSTEM,),
                knows_architecture=False,
                vdd_range=(1.2, 0.8),
            )


class TestFaultInjector:
    def test_select_fraction_counts(self, injector):
        for fraction, expected in [(0.0, 0), (0.25, 5), (0.5, 10), (1.0, 20)]:
            mask = injector.select_fault_sites(EXCITATORY_LAYER, fraction)
            assert mask.sum() == expected

    def test_contiguous_selection_is_a_block(self, injector):
        mask = injector.select_fault_sites(
            EXCITATORY_LAYER, 0.5, selection=FaultSiteSelection.CONTIGUOUS
        )
        indices = np.nonzero(mask)[0]
        assert len(indices) == 10
        gaps = np.diff(sorted(indices))
        # A contiguous block (possibly wrapping) has at most one gap > 1.
        assert (gaps > 1).sum() <= 1

    def test_threshold_fault_applies_to_selected_neurons(self, network, injector):
        record = injector.inject_threshold_fault(INHIBITORY_LAYER, 0.8, fraction=0.5)
        layer = network.inhibitory_layer
        assert record.n_affected == 10
        assert np.isclose(layer.threshold_scale[record.affected], 0.8).all()
        assert np.isclose(layer.threshold_scale[~record.affected], 1.0).all()

    def test_input_gain_fault(self, network, injector):
        injector.inject_input_gain_fault(EXCITATORY_LAYER, 1.3, fraction=1.0)
        assert np.allclose(network.excitatory_layer.input_gain, 1.3)

    def test_explicit_mask(self, network, injector):
        mask = np.zeros(20, dtype=bool)
        mask[:4] = True
        record = injector.inject_threshold_fault(EXCITATORY_LAYER, 0.9, mask=mask)
        assert record.fraction == pytest.approx(0.2)
        assert network.excitatory_layer.threshold_scale[:4].tolist() == [0.9] * 4

    def test_clear_restores_nominal(self, network, injector):
        injector.inject_threshold_fault(EXCITATORY_LAYER, 0.8)
        injector.inject_input_gain_fault(EXCITATORY_LAYER, 1.5)
        injector.clear()
        assert np.allclose(network.excitatory_layer.threshold_scale, 1.0)
        assert np.allclose(network.excitatory_layer.input_gain, 1.0)
        assert injector.records == []
        assert injector.describe() == "no faults injected"

    def test_invalid_layer_and_scale(self, injector):
        with pytest.raises(ValueError):
            injector.inject_threshold_fault("input", 0.8)
        with pytest.raises(ValueError):
            injector.inject_threshold_fault(EXCITATORY_LAYER, -0.5)

    def test_record_description(self, injector):
        record = injector.inject_threshold_fault(INHIBITORY_LAYER, 0.8, fraction=0.25)
        assert "inhibitory" in record.describe()
        assert "threshold" in record.describe()


class TestAttacks:
    def test_no_attack_is_empty(self, injector):
        assert NoAttack().apply(injector) == []

    def test_attack1_scales_input_gain(self, network, injector):
        records = Attack1InputSpikeCorruption(theta_change=-0.2).apply(injector)
        assert len(records) == 1
        assert np.allclose(network.excitatory_layer.input_gain, 0.8)

    def test_attack2_targets_excitatory(self, network, injector):
        Attack2ExcitatoryThreshold(threshold_change=-0.2, fraction=0.5).apply(injector)
        affected = np.isclose(network.excitatory_layer.threshold_scale, 0.8).sum()
        assert affected == 10
        assert np.allclose(network.inhibitory_layer.threshold_scale, 1.0)

    def test_attack3_targets_inhibitory(self, network, injector):
        Attack3InhibitoryThreshold(threshold_change=0.1, fraction=1.0).apply(injector)
        assert np.allclose(network.inhibitory_layer.threshold_scale, 1.1)
        assert np.allclose(network.excitatory_layer.threshold_scale, 1.0)

    def test_attack4_targets_both_layers(self, network, injector):
        records = Attack4BothLayerThreshold(threshold_change=-0.1).apply(injector)
        assert len(records) == 2
        assert np.allclose(network.excitatory_layer.threshold_scale, 0.9)
        assert np.allclose(network.inhibitory_layer.threshold_scale, 0.9)

    def test_attack5_uses_calibrated_map(self, network, injector):
        attack = Attack5GlobalSupply(vdd=0.8)
        records = attack.apply(injector)
        assert len(records) == 3
        assert attack.is_black_box
        assert attack.induced_theta_scale() == pytest.approx(0.65, abs=0.05)
        assert attack.induced_threshold_scale() == pytest.approx(0.8, abs=0.01)
        assert np.allclose(network.excitatory_layer.input_gain, attack.induced_theta_scale())

    def test_attack5_nominal_vdd_is_identity(self, injector, network):
        Attack5GlobalSupply(vdd=1.0).apply(injector)
        assert np.allclose(network.excitatory_layer.threshold_scale, 1.0, atol=1e-6)
        assert np.allclose(network.excitatory_layer.input_gain, 1.0, atol=1e-6)

    def test_attack_labels_are_informative(self):
        assert "theta" in Attack1InputSpikeCorruption(theta_change=0.1).label()
        assert "50%" in Attack2ExcitatoryThreshold(fraction=0.5).label()
        assert "0.80V" in Attack5GlobalSupply(vdd=0.8).label()

    def test_white_box_flags(self):
        assert not Attack2ExcitatoryThreshold().is_black_box
        assert Attack5GlobalSupply().is_black_box

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Attack2ExcitatoryThreshold(threshold_change=-0.95)
        with pytest.raises(ValueError):
            Attack3InhibitoryThreshold(fraction=1.5)
        with pytest.raises(ValueError):
            Attack5GlobalSupply(vdd=-1.0)

    @pytest.mark.parametrize("vdd", [float("nan"), float("inf"), float("-inf")])
    def test_attack5_rejects_non_finite_vdd(self, vdd):
        with pytest.raises(ValueError, match="vdd"):
            Attack5GlobalSupply(vdd=vdd)

    @pytest.mark.parametrize("vdd", [0.1, 0.79, 1.21, 5.0])
    def test_attack5_rejects_a_supply_outside_the_calibrated_range(self, vdd):
        # The default map samples 0.8-1.2 V; a clamped lookup would inject
        # the end point's fault under this supply's label.
        with pytest.raises(ValueError, match=r"outside the sampled range \[0\.8, 1\.2\]"):
            Attack5GlobalSupply(vdd=vdd)

    def test_attack5_rejects_an_uncalibrated_neuron_type(self):
        with pytest.raises(ValueError, match="neuron_type"):
            Attack5GlobalSupply(neuron_type="x")

    def test_attack5_finite_vdd_labels_are_unchanged(self):
        labels = [Attack5GlobalSupply(vdd=vdd).label() for vdd in (0.8, 1.0, 1.2)]
        assert labels == ["attack5(vdd=0.80V)", "attack5(vdd=1.00V)", "attack5(vdd=1.20V)"]
