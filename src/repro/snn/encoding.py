"""Spike encoders that turn image intensities into input spike trains.

The Diehl & Cook pipeline converts each 28×28 image into per-pixel Poisson
spike trains whose rates are proportional to the pixel intensities (the
paper feeds "Poisson-encoded training images" to the excitatory layer).
:class:`PackedRasters` holds the encoding of a whole image sequence, drawn
once and kept at one bit per spike, so a pipeline can replay its
attack-independent input streams on every training pass.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive, check_positive_int


class NonFiniteIntensityError(ValueError):
    """Raised when an image handed to an encoder has a NaN or infinite pixel.

    Without the check a NaN pixel encodes to silence and an infinite one to
    the full rate, so a corrupted image would be scored as a plausible one.
    """


def _checked_pixels(images: np.ndarray, max_intensity: float) -> np.ndarray:
    """``images`` as floats, once every pixel is known finite and non-negative."""
    values = np.asarray(images, dtype=float)
    if not np.isfinite(values).all():
        raise NonFiniteIntensityError("pixel intensities must be finite (found NaN or inf)")
    if np.any(values < 0):
        raise ValueError("pixel intensities must be non-negative")
    if max_intensity <= 0:
        raise ValueError("max_intensity must be positive")
    return values


def _prepare_intensity(image: np.ndarray, max_intensity: float) -> np.ndarray:
    """Flatten an image (or a batch of them) and normalise intensities to [0, 1]."""
    flat = _checked_pixels(image, max_intensity).reshape(-1)
    return np.clip(flat / max_intensity, 0.0, 1.0)


def _spike_probability(
    intensity: np.ndarray, max_rate: float, dt: float
) -> np.ndarray:
    """Probability of a spike in one ``dt``-millisecond bin, per pixel."""
    return np.clip(max_rate * intensity * (dt * 1e-3), 0.0, 1.0)


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
        When a pixel is negative, or ``time_steps`` is not a positive
        integer (every encoder here checks both).
    """
    time_steps = check_positive_int(time_steps, "time_steps")
    check_positive(dt, "dt")
    check_positive(max_rate, "max_rate")
    rng = ensure_rng(rng, name="poisson_encode")
    probability = _spike_probability(
        _prepare_intensity(image, max_intensity), max_rate, dt
    )
    return rng.random((time_steps, probability.size)) < probability


def poisson_encode_batch(
    images: np.ndarray,
    *,
    time_steps: int,
    dt: float = 1.0,
    max_rate: float = 63.75,
    max_intensity: float = 255.0,
    rng: SeedLike = None,
) -> np.ndarray:
    """Poisson-encode a batch of images, one ``(time_steps, n_pixels)`` draw each.

    Bit-identical to encoding the images one by one through
    :func:`poisson_encode` from the same generator: each image's draw fills
    its slice of a preallocated bool output, consuming the generator's
    stream in image order, so no batch-sized float block is ever allocated.
    This is what lets the example-batched inference engine
    (:mod:`repro.snn.batched`) share the scalar pipeline's encoding streams.
    Every pixel is checked before the first draw.

    Parameters
    ----------
    images:
        Non-empty array of shape ``(n_images, ...)``; each image is flattened.
    time_steps, dt, max_rate, max_intensity, rng:
        As in :func:`poisson_encode`.

    Returns
    -------
    np.ndarray of bool, shape ``(n_images, time_steps, n_pixels)``.
    """
    time_steps = check_positive_int(time_steps, "time_steps")
    check_positive(dt, "dt")
    check_positive(max_rate, "max_rate")
    rng = ensure_rng(rng, name="poisson_encode_batch")
    images = _checked_pixels(images, max_intensity)
    if images.ndim < 2:
        raise ValueError("poisson_encode_batch expects a batch of images")
    if len(images) == 0:
        raise ValueError("poisson_encode_batch expects a non-empty batch of images")
    flat = images.reshape(len(images), -1)
    spikes = np.empty((len(flat), time_steps, flat.shape[1]), dtype=bool)
    for image, out in zip(flat, spikes):
        intensity = np.clip(image / max_intensity, 0.0, 1.0)
        probability = _spike_probability(intensity, max_rate, dt)
        np.less(rng.random((time_steps, image.size)), probability, out=out)
    return spikes


class PackedRasters:
    """The Poisson rasters of an image sequence, kept at one bit per spike.

    :meth:`encode` draws every image once, in order, from one generator (the
    same stream as sequential :func:`poisson_encode` calls) and packs each
    raster along the pixel axis with :func:`numpy.packbits`.  Iterating
    yields one ``(time_steps, n_pixels)`` bool raster per image, and
    :meth:`chunks` yields ``(k, time_steps, n_pixels)`` blocks; both unpack
    on the fly, so only one raster or one block is ever held as bools.
    """

    def __init__(self, packed: np.ndarray, n_pixels: int) -> None:
        self.packed = packed
        self.n_pixels = int(n_pixels)

    @classmethod
    def encode(
        cls,
        images: np.ndarray,
        *,
        time_steps: int,
        max_rate: float = 63.75,
        rng: SeedLike = None,
        chunk: int = 64,
    ) -> "PackedRasters":
        """Poisson-encode ``images`` ``chunk`` at a time and pack the rasters."""
        images = np.asarray(images, dtype=float)
        if images.ndim < 2 or len(images) == 0:
            raise ValueError("PackedRasters.encode expects a non-empty batch of images")
        chunk = check_positive_int(chunk, "chunk")
        rng = ensure_rng(rng, name="packed_rasters")
        blocks = [
            np.packbits(
                poisson_encode_batch(
                    images[start : start + chunk],
                    time_steps=time_steps,
                    max_rate=max_rate,
                    rng=rng,
                ),
                axis=-1,
            )
            for start in range(0, len(images), chunk)
        ]
        return cls(np.concatenate(blocks), n_pixels=images[0].size)

    def __len__(self) -> int:
        return len(self.packed)

    def _unpack(self, packed: np.ndarray) -> np.ndarray:
        return np.unpackbits(packed, axis=-1, count=self.n_pixels).view(bool)

    def __iter__(self) -> Iterator[np.ndarray]:
        for packed in self.packed:
            yield self._unpack(packed)

    def chunks(self, size: int) -> Iterator[np.ndarray]:
        """Consecutive ``(k, time_steps, n_pixels)`` raster blocks, ``k <= size``."""
        for start in range(0, len(self.packed), size):
            yield self._unpack(self.packed[start : start + size])


def bernoulli_encode(
    image: np.ndarray,
    *,
    time_steps: int,
    max_probability: float = 0.25,
    max_intensity: float = 255.0,
    rng: SeedLike = None,
) -> np.ndarray:
    """Bernoulli encoding: per-step spike probability proportional to intensity."""
    time_steps = check_positive_int(time_steps, "time_steps")
    if not 0.0 < max_probability <= 1.0:
        raise ValueError("max_probability must be in (0, 1]")
    rng = ensure_rng(rng, name="bernoulli_encode")
    intensity = _prepare_intensity(image, max_intensity)
    probability = intensity * max_probability
    draws = rng.random((time_steps, intensity.size))
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
    time_steps = check_positive_int(time_steps, "time_steps")
    check_positive(dt, "dt")
    intensity = _prepare_intensity(image, max_intensity)
    expected_spikes = max_rate * intensity * (time_steps * dt * 1e-3)
    spikes = np.zeros((time_steps, intensity.size), dtype=bool)
    for pixel, count in enumerate(expected_spikes):
        n_spikes = int(round(count))
        if n_spikes <= 0:
            continue
        n_spikes = min(n_spikes, time_steps)
        positions = np.linspace(0, time_steps - 1, n_spikes).astype(int)
        spikes[positions, pixel] = True
    return spikes
