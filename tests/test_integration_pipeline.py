"""Integration tests: full train/attack/evaluate runs at smoke scale.

These are the slowest tests in the suite (each pipeline run trains a small
SNN); the shared session-scoped fixtures in ``conftest.py`` keep the total
cost to a handful of training runs.
"""

import pytest

from repro.attacks import (
    Attack3InhibitoryThreshold,
    Attack5GlobalSupply,
    AttackCampaign,
    NoAttack,
)
from repro.core import ClassificationPipeline, ExperimentConfig


class TestBaseline:
    def test_baseline_learns_above_chance(self, smoke_baseline):
        # Ten balanced classes: chance is 10 %.  Even the small smoke-scale
        # network should comfortably exceed it.
        assert smoke_baseline.accuracy > 0.3
        assert smoke_baseline.attack_label == "baseline"
        assert smoke_baseline.mean_excitatory_spikes > 0

    def test_baseline_is_cached(self, smoke_pipeline, smoke_baseline):
        again = smoke_pipeline.run_baseline()
        assert again is smoke_baseline

    def test_baseline_reproducible_across_pipelines(self, smoke_config, smoke_baseline):
        other = ClassificationPipeline(smoke_config)
        result = other.run_baseline()
        assert result.accuracy == pytest.approx(smoke_baseline.accuracy, abs=1e-9)

    def test_dataset_split_sizes(self, smoke_pipeline, smoke_config):
        assert len(smoke_pipeline.train_images) == smoke_config.n_train
        assert len(smoke_pipeline.eval_images) <= smoke_config.n_eval
        assert len(smoke_pipeline.train_labels) == smoke_config.n_train


class TestAttackedRuns:
    def test_inhibitory_runaway_attack_collapses_accuracy(self, smoke_pipeline, smoke_baseline):
        # A +20 % signed-threshold change drops the inhibitory threshold below
        # the reset potential: the inhibitory layer fires continuously and
        # silences the excitatory layer (one of the catastrophic Fig. 8b cases).
        attacked = smoke_pipeline.run(
            Attack3InhibitoryThreshold(threshold_change=+0.2, fraction=1.0)
        )
        assert attacked.relative_degradation > 0.4
        assert attacked.mean_excitatory_spikes < smoke_baseline.mean_excitatory_spikes
        assert attacked.fault_descriptions

    def test_inhibitory_silencing_attack_disables_competition(self, smoke_pipeline, smoke_baseline):
        # A -20 % signed-threshold change raises the inhibitory firing barrier
        # above the one-to-one excitatory weight: lateral inhibition disappears
        # and excitatory activity balloons.  Accuracy must not improve.
        attacked = smoke_pipeline.run(
            Attack3InhibitoryThreshold(threshold_change=-0.2, fraction=1.0)
        )
        assert attacked.mean_excitatory_spikes > smoke_baseline.mean_excitatory_spikes
        assert attacked.accuracy <= smoke_baseline.accuracy + 0.08

    def test_global_vdd_attack_collapses_accuracy(self, smoke_pipeline, smoke_baseline):
        attacked = smoke_pipeline.run(Attack5GlobalSupply(vdd=0.8))
        assert attacked.accuracy < smoke_baseline.accuracy
        assert attacked.relative_degradation > 0.4

    def test_attack_runs_do_not_pollute_baseline(self, smoke_pipeline, smoke_baseline):
        # The attacked runs above used fresh networks; re-running the baseline
        # must give the identical cached result.
        assert smoke_pipeline.run(NoAttack()).accuracy == smoke_baseline.accuracy


class TestCampaign:
    def test_theta_sweep_reuses_baseline_for_zero_change(self, smoke_pipeline, smoke_baseline):
        campaign = AttackCampaign(smoke_pipeline)
        sweep = campaign.sweep_attack1_theta(theta_changes=(0.0,))
        assert sweep.outcomes[0].accuracy == smoke_baseline.accuracy
        assert sweep.baseline_accuracy == smoke_baseline.accuracy

    def test_layer_threshold_grid_shape_and_zero_fraction(self, smoke_pipeline, smoke_baseline):
        campaign = AttackCampaign(smoke_pipeline)
        grid = campaign.sweep_layer_threshold(
            "inhibitory", threshold_changes=(0.2,), fractions=(0.0, 1.0)
        )
        assert grid.accuracies.shape == (1, 2)
        assert grid.column_values.tolist() == [0.0, 1.0]
        assert grid.accuracies[0, 0] == smoke_baseline.accuracy
        assert grid.accuracies[0, 1] < smoke_baseline.accuracy
        assert grid.worst_case_relative_degradation() > 0.3
        assert grid.metadata["layer"] == "inhibitory"


class TestEncodingStreamCache:
    """Each pipeline draws its three attack-independent streams once."""

    @pytest.mark.parametrize("engine", ["batched", "scalar"])
    def test_two_batches_encode_each_stream_once(self, engine, monkeypatch):
        from repro.snn import encoding

        encoded = []
        original_batch = encoding.poisson_encode_batch
        original_one = encoding.poisson_encode

        def counting_batch(images, **kwargs):
            encoded.append(len(images))
            return original_batch(images, **kwargs)

        def counting_one(image, **kwargs):
            encoded.append(1)
            return original_one(image, **kwargs)

        monkeypatch.setattr(encoding, "poisson_encode_batch", counting_batch)
        monkeypatch.setattr(encoding, "poisson_encode", counting_one)
        # Smoke-sized splits (120 training, 45 held-out images), short rasters.
        config = ExperimentConfig.smoke().with_overrides(time_steps=30)
        attack = Attack5GlobalSupply(vdd=0.85)
        pipeline = ClassificationPipeline(config, engine=engine)
        first = pipeline.run_batch([None])
        second = pipeline.run_batch([attack])
        assert sum(encoded) == 2 * 120 + 45 == 285

        fresh = ClassificationPipeline(config, engine=engine)
        assert fresh.run_batch([None, attack]) == first + second
