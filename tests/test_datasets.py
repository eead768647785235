"""Tests for the synthetic digit dataset and loaders."""

import numpy as np
import pytest

from repro.datasets import (
    DIGIT_SKELETONS,
    DataLoader,
    SyntheticDigits,
    render_digit,
    train_test_split,
)


class TestRenderDigit:
    def test_shape_and_intensity_range(self):
        image = render_digit(3)
        assert image.shape == (28, 28)
        assert image.min() >= 0.0 and image.max() <= 255.0
        assert image.max() == pytest.approx(255.0)

    def test_all_ten_classes_have_skeletons_and_render(self):
        assert set(DIGIT_SKELETONS) == set(range(10))
        for digit in range(10):
            assert render_digit(digit).sum() > 0

    def test_invalid_digit_rejected(self):
        with pytest.raises(ValueError):
            render_digit(10)

    def test_classes_are_visually_distinct(self):
        images = [render_digit(d) for d in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                difference = np.abs(images[i] - images[j]).mean()
                assert difference > 5.0, f"digits {i} and {j} look identical"

    def test_jitter_moves_pixels(self):
        base = render_digit(5)
        shifted = render_digit(5, shift=(0.1, 0.0))
        rotated = render_digit(5, rotation_deg=15.0)
        assert not np.allclose(base, shifted)
        assert not np.allclose(base, rotated)

    def test_noise_is_reproducible_with_seed(self):
        a = render_digit(7, noise_amplitude=10.0, rng=3)
        b = render_digit(7, noise_amplitude=10.0, rng=3)
        assert np.array_equal(a, b)

    def test_custom_size(self):
        assert render_digit(1, size=14).shape == (14, 14)


class TestSyntheticDigits:
    def test_deterministic_given_seed(self):
        a = SyntheticDigits(n_samples=20, seed=5)
        b = SyntheticDigits(n_samples=20, seed=5)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = SyntheticDigits(n_samples=20, seed=5)
        b = SyntheticDigits(n_samples=20, seed=6)
        assert not np.array_equal(a.images, b.images)

    def test_classes_balanced(self):
        dataset = SyntheticDigits(n_samples=100, seed=0)
        assert np.all(dataset.class_counts() == 10)

    def test_indexing_and_flattening(self):
        dataset = SyntheticDigits(n_samples=12, seed=0)
        image, label = dataset[3]
        assert image.shape == (28, 28)
        assert 0 <= label <= 9
        assert dataset.flattened().shape == (12, 784)
        assert len(dataset) == 12

    def test_no_jitter_mode_is_canonical(self):
        dataset = SyntheticDigits(n_samples=10, seed=0, jitter=False)
        reference = {d: render_digit(d) for d in range(10)}
        for image, label in zip(dataset.images, dataset.labels):
            assert np.allclose(image, reference[label])


class TestLoaders:
    def test_train_test_split_sizes_and_disjoint(self):
        dataset = SyntheticDigits(n_samples=50, seed=0)
        tr_x, tr_y, te_x, te_y = train_test_split(
            dataset.flattened(), dataset.labels, test_fraction=0.2, rng=0
        )
        assert len(te_x) == 10 and len(tr_x) == 40
        assert len(tr_y) == 40 and len(te_y) == 10

    def test_train_test_split_validation(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((3, 4)), np.zeros(2))

    def test_dataloader_batches_cover_dataset(self):
        dataset = SyntheticDigits(n_samples=25, seed=0)
        loader = DataLoader(dataset.flattened(), dataset.labels, batch_size=8, rng=0)
        batches = list(loader)
        assert len(loader) == 4
        assert sum(len(y) for _, y in batches) == 25

    def test_dataloader_shuffle_reproducible(self):
        dataset = SyntheticDigits(n_samples=16, seed=0)
        loader_a = DataLoader(dataset.flattened(), dataset.labels, batch_size=4, rng=3)
        loader_b = DataLoader(dataset.flattened(), dataset.labels, batch_size=4, rng=3)
        for (xa, ya), (xb, yb) in zip(loader_a, loader_b):
            assert np.array_equal(xa, xb) and np.array_equal(ya, yb)

    def test_dataloader_validation(self):
        with pytest.raises(ValueError):
            DataLoader(np.zeros((3, 4)), np.zeros(2))
