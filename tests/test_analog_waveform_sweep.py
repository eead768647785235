"""Tests for waveform post-processing."""

import numpy as np
import pytest

from repro.analog.waveform import Waveform, detect_spikes, threshold_crossings


def sawtooth_waveform(n_teeth=3, period=1.0, amplitude=1.0, points_per_tooth=100):
    time = np.linspace(0, n_teeth * period, n_teeth * points_per_tooth, endpoint=False)
    values = amplitude * (time % period) / period
    return Waveform(time, values, name="sawtooth")


class TestWaveform:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Waveform(np.arange(3), np.arange(4))
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    def test_summaries(self):
        wave = Waveform(np.linspace(0, 1, 11), np.linspace(0, 1, 11))
        assert wave.maximum() == 1.0
        assert len(wave) == 11

    def test_rising_crossings_interpolated(self):
        time = np.array([0.0, 1.0, 2.0, 3.0])
        values = np.array([0.0, 1.0, 0.0, 1.0])
        crossings = threshold_crossings(time, values, 0.5, direction="rising")
        assert crossings == pytest.approx([0.5, 2.5])

    def test_falling_and_both_crossings(self):
        time = np.array([0.0, 1.0, 2.0])
        values = np.array([1.0, 0.0, 1.0])
        falling = threshold_crossings(time, values, 0.5, direction="falling")
        both = threshold_crossings(time, values, 0.5, direction="both")
        assert len(falling) == 1 and len(both) == 2

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            threshold_crossings([0, 1], [0, 1], 0.5, direction="sideways")

    def test_spike_detection_counts_teeth(self):
        wave = sawtooth_waveform(n_teeth=5)
        assert len(wave.detect_spikes(0.5)) == 5

    def test_min_separation_merges_chatter(self):
        time = np.linspace(0, 1, 1000)
        noisy = (np.sin(2 * np.pi * 3 * time) > 0).astype(float)
        noisy[500] = 0.0  # brief dropout creates an extra crossing
        merged = detect_spikes(time, noisy, 0.5, min_separation=0.2)
        raw = detect_spikes(time, noisy, 0.5)
        assert len(merged) <= len(raw)
        assert len(merged) == 3

    def test_time_to_first_crossing_none_when_never(self):
        wave = Waveform(np.linspace(0, 1, 10), np.zeros(10))
        assert len(wave.threshold_crossings(0.5, direction="both")) == 0
        assert len(wave.detect_spikes(0.5)) == 0
