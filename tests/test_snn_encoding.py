"""Tests for the spike encoders."""

import numpy as np
import pytest

from repro.snn import NonFiniteIntensityError
from repro.snn.encoding import (
    bernoulli_encode,
    poisson_encode,
    poisson_encode_batch,
    regular_rate_encode,
)


def test_poisson_shape_and_dtype():
    image = np.full((28, 28), 128.0)
    spikes = poisson_encode(image, time_steps=50, rng=0)
    assert spikes.shape == (50, 784)
    assert spikes.dtype == bool


def test_poisson_rate_proportional_to_intensity():
    image = np.array([0.0, 255.0])
    spikes = poisson_encode(image, time_steps=20000, max_rate=100.0, rng=1)
    rates = spikes.mean(axis=0) / 1e-3  # spikes per second with dt = 1 ms
    assert rates[0] == 0.0
    assert rates[1] == pytest.approx(100.0, rel=0.1)


def test_poisson_is_reproducible_with_seed():
    image = np.full(10, 200.0)
    a = poisson_encode(image, time_steps=100, rng=42)
    b = poisson_encode(image, time_steps=100, rng=42)
    assert np.array_equal(a, b)


def test_poisson_rejects_negative_intensities():
    with pytest.raises(ValueError):
        poisson_encode(np.array([-1.0]), time_steps=10)


def test_all_nan_image_is_rejected_not_silent():
    with pytest.raises(NonFiniteIntensityError):
        poisson_encode(np.full(5, np.nan), time_steps=100, rng=0)
    with pytest.raises(NonFiniteIntensityError):
        poisson_encode_batch(np.full((2, 5), np.inf), time_steps=100, rng=0)


def test_poisson_zero_image_is_silent():
    spikes = poisson_encode(np.zeros(5), time_steps=100, rng=0)
    assert spikes.sum() == 0


def test_bernoulli_probability_bounds():
    image = np.array([255.0] * 4)
    spikes = bernoulli_encode(image, time_steps=2000, max_probability=0.25, rng=0)
    assert spikes.mean() == pytest.approx(0.25, abs=0.03)


def test_bernoulli_rejects_bad_probability():
    with pytest.raises(ValueError):
        bernoulli_encode(np.ones(4), time_steps=10, max_probability=0.0)


def test_regular_rate_encoding_is_deterministic_and_counts_match():
    image = np.array([255.0, 127.5, 0.0])
    spikes = regular_rate_encode(image, time_steps=1000, max_rate=100.0)
    counts = spikes.sum(axis=0)
    assert counts[0] == pytest.approx(100, abs=1)
    assert counts[1] == pytest.approx(50, abs=1)
    assert counts[2] == 0
    again = regular_rate_encode(image, time_steps=1000, max_rate=100.0)
    assert np.array_equal(spikes, again)


def test_regular_rate_encoding_caps_at_time_steps():
    spikes = regular_rate_encode(np.array([255.0]), time_steps=10, max_rate=10000.0)
    assert spikes.sum() <= 10
