"""Spike encoders that turn image intensities into input spike trains.

The Diehl & Cook pipeline converts each 28×28 image into per-pixel Poisson
spike trains whose rates are proportional to the pixel intensities (the
paper feeds "Poisson-encoded training images" to the excitatory layer).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive


class NonFiniteIntensityError(ValueError):
    """Raised when an image handed to an encoder has a NaN or infinite pixel.

    Without the check a NaN pixel encodes to silence and an infinite one to
    the full rate, so a corrupted image would be scored as a plausible one.
    """


def _prepare_intensity(image: np.ndarray, max_intensity: float) -> np.ndarray:
    """Flatten an image (or a batch of them) and normalise intensities to [0, 1]."""
    flat = np.asarray(image, dtype=float).reshape(-1)
    if not np.isfinite(flat).all():
        raise NonFiniteIntensityError("pixel intensities must be finite (found NaN or inf)")
    if np.any(flat < 0):
        raise ValueError("pixel intensities must be non-negative")
    if max_intensity <= 0:
        raise ValueError("max_intensity must be positive")
    return np.clip(flat / max_intensity, 0.0, 1.0)


def poisson_encode(
    image: np.ndarray,
    *,
    time_steps: int,
    dt: float = 1.0,
    max_rate: float = 63.75,
    max_intensity: float = 255.0,
    rng: SeedLike = None,
) -> np.ndarray:
    """Poisson spike encoding of an image.

    Each pixel fires as an independent Poisson process whose rate is
    ``max_rate * intensity / max_intensity`` Hz (the Diehl&Cook convention of
    dividing the 0-255 intensity by 4 gives ``max_rate = 63.75`` Hz).

    Parameters
    ----------
    image:
        Array of pixel intensities (any shape; flattened).
    time_steps:
        Number of simulation steps to generate.
    dt:
        Simulation step in milliseconds.
    max_rate:
        Firing rate (Hz) of a full-intensity pixel.
    max_intensity:
        Intensity that maps to ``max_rate``.
    rng:
        Seed or random generator.

    Returns
    -------
    np.ndarray of bool, shape ``(time_steps, n_pixels)``.

    Raises
    ------
    NonFiniteIntensityError
        When a pixel is NaN or infinite (every encoder here checks this).
    ValueError
        When a pixel is negative.
    """
    check_positive(time_steps, "time_steps")
    check_positive(dt, "dt")
    check_positive(max_rate, "max_rate")
    rng = ensure_rng(rng, name="poisson_encode")
    intensity = _prepare_intensity(image, max_intensity)
    # Probability of a spike in one dt-millisecond bin.
    probability = np.clip(max_rate * intensity * (dt * 1e-3), 0.0, 1.0)
    draws = rng.random((int(time_steps), intensity.size))
    return draws < probability[None, :]


def poisson_encode_batch(
    images: np.ndarray,
    *,
    time_steps: int,
    dt: float = 1.0,
    max_rate: float = 63.75,
    max_intensity: float = 255.0,
    rng: SeedLike = None,
) -> np.ndarray:
    """Poisson-encode a batch of images with one RNG call.

    Bit-identical to encoding the images one by one through
    :func:`poisson_encode` from the same generator: NumPy fills the batched
    ``(n_images, time_steps, n_pixels)`` draw in C order, which consumes the
    generator's stream exactly as ``n_images`` sequential per-image draws
    would.  This is what lets the example-batched inference engine
    (:mod:`repro.snn.batched`) share the scalar pipeline's encoding streams.

    Parameters
    ----------
    images:
        Array of shape ``(n_images, ...)``; each image is flattened.
    time_steps, dt, max_rate, max_intensity, rng:
        As in :func:`poisson_encode`.

    Returns
    -------
    np.ndarray of bool, shape ``(n_images, time_steps, n_pixels)``.
    """
    check_positive(time_steps, "time_steps")
    check_positive(dt, "dt")
    check_positive(max_rate, "max_rate")
    rng = ensure_rng(rng, name="poisson_encode_batch")
    images = np.asarray(images, dtype=float)
    if images.ndim < 2:
        raise ValueError("poisson_encode_batch expects a batch of images")
    flat = images.reshape(len(images), -1)
    intensity = _prepare_intensity(flat, max_intensity).reshape(flat.shape)
    probability = np.clip(max_rate * intensity * (dt * 1e-3), 0.0, 1.0)
    draws = rng.random((len(flat), int(time_steps), flat.shape[1]))
    return draws < probability[:, None, :]


def bernoulli_encode(
    image: np.ndarray,
    *,
    time_steps: int,
    max_probability: float = 0.25,
    max_intensity: float = 255.0,
    rng: SeedLike = None,
) -> np.ndarray:
    """Bernoulli encoding: per-step spike probability proportional to intensity."""
    check_positive(time_steps, "time_steps")
    if not 0.0 < max_probability <= 1.0:
        raise ValueError("max_probability must be in (0, 1]")
    rng = ensure_rng(rng, name="bernoulli_encode")
    intensity = _prepare_intensity(image, max_intensity)
    probability = intensity * max_probability
    draws = rng.random((int(time_steps), intensity.size))
    return draws < probability[None, :]


def regular_rate_encode(
    image: np.ndarray,
    *,
    time_steps: int,
    dt: float = 1.0,
    max_rate: float = 63.75,
    max_intensity: float = 255.0,
) -> np.ndarray:
    """Deterministic rate encoding with evenly spaced spikes.

    Useful for tests that need reproducible spike counts without Poisson
    variance.
    """
    check_positive(time_steps, "time_steps")
    check_positive(dt, "dt")
    intensity = _prepare_intensity(image, max_intensity)
    expected_spikes = max_rate * intensity * (time_steps * dt * 1e-3)
    spikes = np.zeros((int(time_steps), intensity.size), dtype=bool)
    for pixel, count in enumerate(expected_spikes):
        n_spikes = int(round(count))
        if n_spikes <= 0:
            continue
        n_spikes = min(n_spikes, int(time_steps))
        positions = np.linspace(0, int(time_steps) - 1, n_spikes).astype(int)
        spikes[positions, pixel] = True
    return spikes
