"""Tests for the experiment configuration and the result containers."""

import numpy as np
import pytest

from repro.core import AttackGridResult, ExperimentConfig, ExperimentResult


class TestExperimentConfig:
    def test_presets_scale_sensibly(self):
        paper = ExperimentConfig.paper()
        benchmark = ExperimentConfig.benchmark()
        smoke = ExperimentConfig.smoke()
        assert paper.n_train == 1000 and paper.time_steps == 250
        assert smoke.n_train < benchmark.n_train < paper.n_train
        assert smoke.network.n_neurons < benchmark.network.n_neurons
        assert smoke.time_steps < benchmark.time_steps <= paper.time_steps

    def test_n_samples(self):
        config = ExperimentConfig(n_train=30, n_eval=10)
        assert config.n_samples == 40

    def test_with_overrides(self):
        config = ExperimentConfig.smoke().with_overrides(n_train=99)
        assert config.n_train == 99
        assert config.time_steps == ExperimentConfig.smoke().time_steps

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_train=0)
        with pytest.raises(ValueError):
            ExperimentConfig(test_fraction=2.0)

    def test_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert ExperimentConfig.from_environment().scale_name == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "nonsense")
        with pytest.raises(ValueError):
            ExperimentConfig.from_environment()
        monkeypatch.delenv("REPRO_SCALE")
        assert ExperimentConfig.from_environment().scale_name == "benchmark"


class TestExperimentResult:
    def test_degradation_metrics(self):
        result = ExperimentResult(
            attack_label="attack3", accuracy=0.10, baseline_accuracy=0.76
        )
        assert result.accuracy_change == pytest.approx(-0.66)
        assert result.relative_degradation == pytest.approx(0.868, abs=1e-3)

    def test_missing_baseline_gives_none(self):
        result = ExperimentResult(attack_label="x", accuracy=0.5)
        assert result.accuracy_change is None
        assert result.relative_degradation is None

    def test_as_row(self):
        result = ExperimentResult("a", 0.5, baseline_accuracy=0.75)
        label, accuracy, change = result.as_row()
        assert label == "a" and accuracy == 0.5 and change == -0.25


class TestAttackGridResult:
    def make_grid(self):
        return AttackGridResult(
            name="grid",
            row_parameter="threshold_change",
            column_parameter="fraction",
            row_values=[-0.2, 0.2],
            column_values=[0.0, 0.5, 1.0],
            accuracies=np.array([[0.76, 0.5, 0.1], [0.76, 0.7, 0.68]]),
            baseline_accuracy=0.76,
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AttackGridResult(
                name="bad",
                row_parameter="a",
                column_parameter="b",
                row_values=[1.0],
                column_values=[1.0, 2.0],
                accuracies=np.zeros((2, 2)),
                baseline_accuracy=0.5,
            )

    def test_worst_case(self):
        grid = self.make_grid()
        row, column, accuracy = grid.worst_case()
        assert (row, column, accuracy) == (-0.2, 1.0, 0.1)
        assert grid.worst_case_relative_degradation() == pytest.approx((0.76 - 0.1) / 0.76)

    def test_accuracy_at_and_degradation(self):
        grid = self.make_grid()
        # Row -0.2, column 0.5.
        assert grid.accuracies[0, 1] == 0.5
        assert grid.degradation().max() == pytest.approx(0.66)
