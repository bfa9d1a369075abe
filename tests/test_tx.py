"""Placement on the frequency grid and OFDM modulation."""

from __future__ import annotations

import numpy as np
import pytest

from ofdm_spm import (
    Policy,
    PowerPair,
    constellation_point,
    default_layout,
    ofdm_modulate,
    power_pair_for,
)


def _random_points(rng, pair, shape=(52,)):
    bits = rng.integers(0, 2, size=(2,) + shape)
    return constellation_point(bits[0], bits[1], pair)


def _grid(samples, cp_len=0):
    """All FFT bins of modulated samples, read back with an independent FFT."""
    return np.fft.fft(samples[..., cp_len:], norm="ortho")


class TestAssemble:
    def test_toy_grid(self):
        # fft 4, data on bins 1 and 3, guards on 0 and 2
        lay = default_layout(4, 2)
        np.testing.assert_array_equal(lay.guard_bins, [0, 2])
        pair = PowerPair(low=0.5, high=np.sqrt(1.75), budget=2.0)
        points = constellation_point([1, 0], [1, 1], pair)
        np.testing.assert_allclose(
            _grid(ofdm_modulate(points, lay, 0)),
            [0.0, np.sqrt(1.75), 0.0, 0.5],
            atol=1e-15,
        )

    def test_guards_stay_zero(self):
        lay = default_layout()
        pair = power_pair_for(Policy.POWER_SAVING, 1.35)
        points = _random_points(np.random.default_rng(70), pair)
        grid = _grid(ofdm_modulate(points, lay, 16), 16)
        np.testing.assert_allclose(grid[lay.guard_bins], 0.0, atol=1e-15)
        np.testing.assert_allclose(grid[lay.data_bins], points, atol=1e-14)
        assert np.all(np.abs(grid[lay.data_bins]) > 0.4)

    def test_frame_size_checked(self):
        lay = default_layout()
        with pytest.raises(ValueError):
            ofdm_modulate(np.ones(2), lay, 16)
        with pytest.raises(ValueError):
            ofdm_modulate(np.ones((3, 53)), lay, 16)

    def test_mean_grid_energy_is_half_budget_per_subcarrier(self):
        lay = default_layout()
        pair = power_pair_for(Policy.REALLOC_OPTIMIZED, 1.918)
        frames = 400
        points = _random_points(np.random.default_rng(71), pair, (frames, 52))
        samples = ofdm_modulate(points, lay, 0)
        # 52 data bins at budget/2 average energy each
        assert np.sum(np.abs(samples) ** 2) / frames == pytest.approx(52 * 2.0, rel=0.02)


class TestModulate:
    def test_dc_only_grid(self):
        # Energy only on bin 0 gives a constant time signal of 1/sqrt(N) scale.
        lay = default_layout(4, 4)
        samples = ofdm_modulate(np.array([0.5, 0, 0, 0], dtype=complex), lay, 0)
        np.testing.assert_allclose(samples, np.full(4, 0.25), atol=1e-15)

    def test_cp_is_tail_copy(self):
        lay = default_layout()
        pair = power_pair_for(Policy.POWER_SAVING, 1.35)
        samples = ofdm_modulate(_random_points(np.random.default_rng(72), pair), lay, 16)
        assert samples.shape == (80,)
        np.testing.assert_array_equal(samples[:16], samples[64:])

    def test_zero_cp(self):
        lay = default_layout()
        pair = power_pair_for(Policy.POWER_SAVING, 1.35)
        points = constellation_point(np.zeros(52), np.zeros(52), pair)
        assert ofdm_modulate(points, lay, 0).shape == (64,)

    def test_energy_preserved(self):
        lay = default_layout()
        pair = power_pair_for(Policy.REALLOC_NON_OPTIMIZED, 1.732)
        points = _random_points(np.random.default_rng(73), pair)
        samples = ofdm_modulate(points, lay, 0)
        assert np.sum(np.abs(samples) ** 2) == pytest.approx(np.sum(np.abs(points) ** 2))

    def test_cp_bounds_checked(self):
        lay = default_layout()
        points = np.ones(52)
        with pytest.raises(ValueError):
            ofdm_modulate(points, lay, 64)
        with pytest.raises(ValueError):
            ofdm_modulate(points, lay, -1)
