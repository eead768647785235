"""Spike-timing metrics shared by the behavioural neuron models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass
class SpikeMetrics:
    """Summary of a neuron's spiking behaviour for one stimulus condition.

    Attributes
    ----------
    time_to_first_spike:
        Seconds from stimulus onset to the first output spike
        (None if the neuron never fires).
    inter_spike_interval:
        Steady-state period between output spikes (None if fewer than two
        spikes occur).
    spike_times:
        All spike times within the evaluated window.
    """

    time_to_first_spike: Optional[float]
    inter_spike_interval: Optional[float]
    spike_times: np.ndarray

    @property
    def spike_count(self) -> int:
        """Number of spikes in the evaluated window."""
        return int(len(self.spike_times))

    @property
    def spike_rate(self) -> float:
        """Steady-state firing rate in Hz (0 if the neuron never cycles)."""
        if self.inter_spike_interval is None or self.inter_spike_interval <= 0:
            return 0.0
        return 1.0 / self.inter_spike_interval

    @classmethod
    def from_spike_times(cls, spike_times: Sequence[float]) -> "SpikeMetrics":
        """Build metrics from a list of spike times."""
        times = np.asarray(spike_times, dtype=float)
        first = float(times[0]) if len(times) else None
        isi = float(np.mean(np.diff(times))) if len(times) >= 2 else None
        return cls(time_to_first_spike=first, inter_spike_interval=isi, spike_times=times)
