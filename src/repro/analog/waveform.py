"""Waveform post-processing.

The figure-level analyses in the paper are statements about waveforms: how
high the membrane voltage swings, and when the output spikes.
:class:`Waveform` wraps a (time, value) trace with those measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass
class Waveform:
    """A sampled time-domain trace."""

    time: np.ndarray
    values: np.ndarray
    name: str = "waveform"

    def __post_init__(self) -> None:
        self.time = np.asarray(self.time, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.time.shape != self.values.shape:
            raise ValueError(
                f"time and values must have the same shape, got {self.time.shape} "
                f"and {self.values.shape}"
            )
        if self.time.ndim != 1:
            raise ValueError("waveforms must be one-dimensional")
        if len(self.time) >= 2 and np.any(np.diff(self.time) <= 0):
            raise ValueError("waveform time axis must be strictly increasing")

    # --------------------------------------------------------------- summaries
    def __len__(self) -> int:
        return len(self.time)

    def maximum(self) -> float:
        """Maximum sample value."""
        return float(np.max(self.values))

    # --------------------------------------------------------------- crossings
    def threshold_crossings(
        self, level: float, *, direction: str = "rising"
    ) -> np.ndarray:
        """Interpolated times at which the trace crosses ``level``.

        ``direction`` is ``"rising"``, ``"falling"`` or ``"both"``.
        """
        return threshold_crossings(self.time, self.values, level, direction=direction)

    # ------------------------------------------------------------------ spikes
    def detect_spikes(
        self, threshold: float, *, min_separation: float = 0.0
    ) -> np.ndarray:
        """Times of rising threshold crossings, merged within ``min_separation``."""
        return detect_spikes(
            self.time, self.values, threshold, min_separation=min_separation
        )


def threshold_crossings(
    time: Sequence[float],
    values: Sequence[float],
    level: float,
    *,
    direction: str = "rising",
) -> np.ndarray:
    """Interpolated times at which ``values`` crosses ``level``."""
    if direction not in ("rising", "falling", "both"):
        raise ValueError("direction must be 'rising', 'falling' or 'both'")
    time = np.asarray(time, dtype=float)
    values = np.asarray(values, dtype=float)
    above = values >= level
    changes = np.diff(above.astype(int))
    crossings: List[float] = []
    for idx in np.nonzero(changes != 0)[0]:
        rising = changes[idx] > 0
        if direction == "rising" and not rising:
            continue
        if direction == "falling" and rising:
            continue
        v0, v1 = values[idx], values[idx + 1]
        t0, t1 = time[idx], time[idx + 1]
        if v1 == v0:
            crossings.append(float(t1))
        else:
            frac = (level - v0) / (v1 - v0)
            crossings.append(float(t0 + frac * (t1 - t0)))
    return np.asarray(crossings)


def detect_spikes(
    time: Sequence[float],
    values: Sequence[float],
    threshold: float,
    *,
    min_separation: float = 0.0,
) -> np.ndarray:
    """Spike times defined as rising crossings of ``threshold``.

    Crossings closer together than ``min_separation`` are merged into one
    spike (keeps noisy re-crossings of the threshold from double counting).
    """
    raw = threshold_crossings(time, values, threshold, direction="rising")
    if min_separation <= 0 or len(raw) == 0:
        return raw
    kept = [raw[0]]
    for t in raw[1:]:
        if t - kept[-1] >= min_separation:
            kept.append(t)
    return np.asarray(kept)
