"""Tests for the spike encoders."""

import tracemalloc

import numpy as np
import pytest

from repro.core import ExperimentConfig
from repro.snn import NonFiniteIntensityError
from repro.snn.encoding import (
    PackedRasters,
    bernoulli_encode,
    poisson_encode,
    poisson_encode_batch,
    regular_rate_encode,
)
from repro.utils.rng import RandomState

#: Every encoder as ``f(image, time_steps)``; the batch encoder gets a batch of one.
ENCODERS = {
    "poisson": lambda image, steps: poisson_encode(image, time_steps=steps, rng=1),
    "poisson_batch": lambda image, steps: poisson_encode_batch(
        image[None], time_steps=steps, rng=1
    ),
    "bernoulli": lambda image, steps: bernoulli_encode(image, time_steps=steps, rng=1),
    "regular_rate": lambda image, steps: regular_rate_encode(image, time_steps=steps),
}


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


@pytest.mark.parametrize("encoder", sorted(ENCODERS))
@pytest.mark.parametrize("steps", [0.5, 2.7, True, False, 0, -3, float("nan"), float("inf"), "5"])
def test_encoders_reject_malformed_time_steps(encoder, steps):
    with pytest.raises(ValueError, match="time_steps"):
        ENCODERS[encoder](np.full(4, 255.0), steps)


@pytest.mark.parametrize("encoder", sorted(ENCODERS))
def test_encoders_accept_integral_time_steps(encoder):
    for steps in (3, 3.0, np.int64(3)):
        assert ENCODERS[encoder](np.full(4, 255.0), steps).shape[-2:] == (3, 4)


def test_poisson_batch_rejects_an_empty_batch():
    with pytest.raises(ValueError, match="non-empty batch"):
        poisson_encode_batch(np.zeros((0, 4)), time_steps=3)


def test_poisson_batch_draws_one_image_at_a_time():
    """64 smoke-sized images peak below two single-image float draws.

    The output itself (one bool per spike) is excluded: the guard is on the
    transient memory, which a batch-sized ``rng.random`` block would make
    64 draws wide.
    """
    config = ExperimentConfig.smoke()
    images = np.random.default_rng(0).uniform(0.0, 255.0, size=(64, 784))
    single_draw = config.time_steps * images.shape[1] * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        rasters = poisson_encode_batch(images, time_steps=config.time_steps, rng=0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - rasters.nbytes < 2 * single_draw


def test_packed_rasters_replay_the_stream_bit_for_bit():
    images = np.random.default_rng(4).uniform(0.0, 255.0, size=(11, 13))
    expected = poisson_encode_batch(images, time_steps=6, rng=RandomState(2))
    packed = PackedRasters.encode(images, time_steps=6, rng=RandomState(2), chunk=4)
    assert len(packed) == 11
    assert packed.packed.nbytes == 11 * 6 * 2  # 13 pixels -> 2 bytes per step
    assert np.array_equal(np.stack(list(packed)), expected)
    blocks = list(packed.chunks(5))
    assert [len(block) for block in blocks] == [5, 5, 1]
    assert all(block.dtype == bool for block in blocks)
    assert np.array_equal(np.concatenate(blocks), expected)


def test_packed_rasters_reject_an_empty_batch():
    with pytest.raises(ValueError, match="non-empty batch"):
        PackedRasters.encode(np.zeros((0, 4)), time_steps=3)
