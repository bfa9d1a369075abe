"""Level pairs, bit handling, constellation mapping, and the subcarrier layout."""

from __future__ import annotations

import numpy as np
import pytest

from ofdm_spm import (
    Policy,
    PowerPair,
    constellation_point,
    default_layout,
    detection_threshold,
    map_bpsk,
    power_pair_for,
)
from ofdm_spm.core import DEFAULT_HIGH_FACTOR


class TestPolicy:
    def test_budgets(self):
        assert Policy.POWER_SAVING.budget == 2.0
        assert Policy.REALLOC_NON_OPTIMIZED.budget == 4.0
        assert Policy.REALLOC_OPTIMIZED.budget == 4.0

    def test_default_factors(self):
        assert DEFAULT_HIGH_FACTOR[Policy.POWER_SAVING] == 1.35
        assert DEFAULT_HIGH_FACTOR[Policy.REALLOC_NON_OPTIMIZED] == 1.732
        assert DEFAULT_HIGH_FACTOR[Policy.REALLOC_OPTIMIZED] == 1.918


class TestPowerPair:
    def test_saving_low_level(self):
        pair = power_pair_for(Policy.POWER_SAVING, 1.35)
        assert pair.high == 1.35
        assert pair.low == pytest.approx(0.4213074886588177, abs=1e-12)
        assert pair.low**2 + pair.high**2 == pytest.approx(2.0, abs=1e-12)

    def test_realloc_opt_low_level(self):
        pair = power_pair_for(Policy.REALLOC_OPTIMIZED, 1.918)
        assert pair.low == pytest.approx(0.5668121381904239, abs=1e-12)
        assert pair.budget == 4.0

    def test_realloc_nonopt_low_level(self):
        pair = power_pair_for(Policy.REALLOC_NON_OPTIMIZED, 1.732)
        assert pair.low == pytest.approx(1.0000879961283409, abs=1e-12)

    def test_high_factor_exhausting_budget_rejected(self):
        # H^2 >= budget leaves nothing for the low level.
        with pytest.raises(ValueError):
            power_pair_for(Policy.POWER_SAVING, 1.45)
        with pytest.raises(ValueError):
            power_pair_for(Policy.REALLOC_NON_OPTIMIZED, 2.1)
        # H at or below the equal-split point makes L >= H, also invalid.
        with pytest.raises(ValueError):
            power_pair_for(Policy.POWER_SAVING, 1.0)
        with pytest.raises(ValueError):
            power_pair_for(Policy.REALLOC_NON_OPTIMIZED, 1.4)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            PowerPair(low=1.3, high=0.5, budget=1.94)
        with pytest.raises(ValueError):
            PowerPair(low=-0.1, high=1.0, budget=1.01)

    def test_budget_consistency_enforced(self):
        with pytest.raises(ValueError):
            PowerPair(low=0.5, high=1.0, budget=2.0)

    def test_midpoint(self):
        pair = PowerPair(low=0.5, high=1.5, budget=2.5)
        assert pair.midpoint == pytest.approx(1.0)


class TestDetectionThreshold:
    def test_saving_pair_threshold(self):
        # Rounded levels as commonly quoted; budget follows from them.
        pair = PowerPair(low=0.4213, high=1.35, budget=0.4213**2 + 1.35**2)
        assert pair.midpoint == pytest.approx(0.88565, abs=1e-12)
        assert detection_threshold(pair) == pytest.approx(0.7843759225, abs=1e-10)

    def test_nonopt_pair_threshold(self):
        pair = PowerPair(low=1.0, high=1.732, budget=1.0 + 1.732**2)
        assert detection_threshold(pair) == pytest.approx(1.865956, abs=1e-10)

    def test_exact_saving_pair_threshold(self):
        pair = power_pair_for(Policy.POWER_SAVING, 1.35)
        assert detection_threshold(pair) == pytest.approx(0.784382554844702, abs=1e-12)


class TestBitHandling:
    def test_map_bpsk(self):
        np.testing.assert_array_equal(
            map_bpsk(np.array([0, 1, 1, 0], dtype=np.int8)),
            np.array([-1.0, 1.0, 1.0, -1.0]),
        )


class TestConstellation:
    def test_four_points(self):
        pair = PowerPair(low=0.5, high=1.5, budget=2.5)
        b_pow = np.array([0, 0, 1, 1], dtype=np.int8)
        b_phase = np.array([0, 1, 0, 1], dtype=np.int8)
        pts = constellation_point(b_pow, b_phase, pair)
        np.testing.assert_allclose(pts, [-0.5, 0.5, -1.5, 1.5])

    def test_vectorized_over_shape(self):
        pair = power_pair_for(Policy.POWER_SAVING, 1.35)
        rng = np.random.default_rng(12)
        bp = rng.integers(0, 2, size=(3, 52)).astype(np.int8)
        bb = rng.integers(0, 2, size=(3, 52)).astype(np.int8)
        pts = constellation_point(bp, bb, pair)
        assert pts.shape == (3, 52)
        amp = np.where(bp == 1, pair.high, pair.low)
        np.testing.assert_allclose(np.abs(pts), amp)
        np.testing.assert_array_equal(np.sign(pts), 2 * bb - 1)

    def test_mean_symbol_energy_is_half_budget(self):
        # Equiprobable power bits average the two level energies.
        pair = power_pair_for(Policy.REALLOC_NON_OPTIMIZED, 1.732)
        rng = np.random.default_rng(13)
        bp = rng.integers(0, 2, size=200_000).astype(np.int8)
        bb = rng.integers(0, 2, size=200_000).astype(np.int8)
        pts = constellation_point(bp, bb, pair)
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(2.0, rel=5e-3)


class TestLayout:
    def test_default_64_52(self):
        lay = default_layout()
        assert lay.fft_size == 64
        assert lay.data_bins.size == 52
        np.testing.assert_array_equal(
            np.sort(lay.guard_bins), [0, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37]
        )
        np.testing.assert_array_equal(
            np.sort(lay.data_bins),
            np.sort(np.concatenate([np.arange(1, 27), np.arange(38, 64)])),
        )

    @pytest.mark.parametrize("n,d", [(8, 3), (16, 10), (64, 52), (128, 100), (256, 200)])
    def test_partition(self, n, d):
        lay = default_layout(n, d)
        assert 0 in lay.guard_bins
        both = np.concatenate([lay.data_bins, lay.guard_bins])
        np.testing.assert_array_equal(np.sort(both), np.arange(n))

    def test_guard_split_centered(self):
        # 8 guards besides DC: 4 ending at the band edge, 4 after it.
        lay = default_layout(32, 23)
        guards = set(lay.guard_bins.tolist())
        assert guards == {0, 13, 14, 15, 16, 17, 18, 19, 20}

    def test_no_guards_uses_every_bin(self):
        lay = default_layout(8, 8)
        assert lay.guard_bins.size == 0
        np.testing.assert_array_equal(lay.data_bins, np.arange(8))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            default_layout(64, 65)
        with pytest.raises(ValueError):
            default_layout(64, 0)
