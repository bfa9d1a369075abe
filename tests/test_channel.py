"""Multipath profile, tap statistics, convolution, and noise."""

from __future__ import annotations

import numpy as np
import pytest

from ofdm_spm import SimConfig
from ofdm_spm.channel import (
    ChannelProfile,
    add_awgn,
    apply_channel,
    channel_frequency_response,
    draw_flat_rayleigh,
    draw_taps,
)


class TestProfile:
    def test_default_profile_values(self):
        cfg = SimConfig()
        prof = cfg.profile()
        assert cfg.powers_db == (0.0, -8.0, -17.0, -21.0, -25.0)
        np.testing.assert_array_equal(prof.delays, [0, 3, 5, 6, 8])
        assert prof.max_delay == 8
        # Linear powers renormalized to unit total energy.
        np.testing.assert_allclose(
            prof.powers,
            [0.84065579, 0.13323496, 0.01677329, 0.00667757, 0.00265839],
            atol=1e-8,
        )
        assert prof.powers.sum() == pytest.approx(1.0, abs=1e-12)
        # Relative dB spacings survive the normalization.
        np.testing.assert_allclose(
            prof.powers / prof.powers[0],
            10.0 ** (np.array(cfg.powers_db) / 10.0),
            rtol=1e-12,
        )

    def test_single_tap(self):
        prof = ChannelProfile([0], [0.0])
        np.testing.assert_allclose(prof.powers, [1.0])
        assert prof.max_delay == 0

    def test_equal_split(self):
        prof = ChannelProfile([0, 2], [-3.0, -3.0])
        np.testing.assert_allclose(prof.powers, [0.5, 0.5])

    def test_stores_delays_and_normalized_powers_only(self):
        prof = ChannelProfile((0, 3.0), (0.0, -10.0))
        assert prof.delays.dtype == np.intp
        np.testing.assert_array_equal(prof.delays, [0, 3])
        np.testing.assert_allclose(prof.powers, [10 / 11, 1 / 11])
        assert not hasattr(prof, "powers_db")
        with pytest.raises(TypeError):
            ChannelProfile([0], [0.0], powers=[1.0])

    @pytest.mark.parametrize("level", [-4000.0, 4000.0])
    def test_powers_far_from_0_db_stay_finite(self, level):
        # 10 ** (level / 10) underflows or overflows; the spacing is what counts
        prof = ChannelProfile([0, 2], [level, level])
        np.testing.assert_array_equal(prof.powers, [0.5, 0.5])
        prof = ChannelProfile([0, 2], [level, level - 4000.0])
        np.testing.assert_array_equal(prof.powers, [1.0, 0.0])

    def test_rejects_malformed(self):
        # the constructor is the one way in, so a directly built profile is checked
        for delays, powers_db in [
            ([0, 1], [0.0]),                   # lengths differ
            ([1, 2], [0.0, -3.0]),             # first tap not at 0
            ([3, 1], [0.0, 0.0]),              # decreasing, first tap not at 0
            ([0, 2, 1], [0.0, -1.0, -2.0]),    # decreasing
            ([0, 0], [0.0, -1.0]),             # repeated
            ([0, 1.5], [0.0, -1.0]),           # fractional
            ([], []),                          # no tap
        ]:
            with pytest.raises(ValueError) as info:
                ChannelProfile(delays, powers_db)
            assert "\n" not in str(info.value), (delays, powers_db)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_power(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ChannelProfile([0, 3, 5], [0.0, bad, -17.0])


class TestTaps:
    def test_shape_and_sparsity(self):
        prof = SimConfig().profile()
        taps = draw_taps(prof, 10, np.random.default_rng(0))
        assert taps.shape == (10, 9)
        assert taps.dtype == np.complex128
        silent = np.setdiff1d(np.arange(9), prof.delays)
        assert not taps[:, silent].any()
        assert taps[:, prof.delays].all()

    def test_mean_energy_is_unit(self):
        prof = SimConfig().profile()
        taps = draw_taps(prof, 100_000, np.random.default_rng(21))
        energy = np.sum(np.abs(taps) ** 2, axis=1)
        assert energy.mean() == pytest.approx(1.0, abs=0.01)
        # Per-tap variances track the profile.
        per_tap = np.mean(np.abs(taps[:, prof.delays]) ** 2, axis=0)
        np.testing.assert_allclose(per_tap, prof.powers, rtol=0.03)

    def test_deterministic_given_seed(self):
        prof = SimConfig().profile()
        a = draw_taps(prof, 5, np.random.default_rng(3))
        b = draw_taps(prof, 5, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            draw_taps(SimConfig().profile(), 0, np.random.default_rng(0))


class TestFrequencyResponse:
    def test_single_tap_is_flat(self):
        h = channel_frequency_response(np.array([0.7 - 0.2j]), 16)
        np.testing.assert_allclose(h, np.full(16, 0.7 - 0.2j), atol=1e-12)

    def test_pure_delay_is_phase_ramp(self):
        taps = np.zeros(4, dtype=complex)
        taps[3] = 1.0
        h = channel_frequency_response(taps, 8)
        k = np.arange(8)
        np.testing.assert_allclose(h, np.exp(-2j * np.pi * k * 3 / 8), atol=1e-12)

    def test_mean_bin_energy_is_unit(self):
        # Unit-energy taps spread to E|H_k|^2 = 1 on every bin.
        prof = SimConfig().profile()
        taps = draw_taps(prof, 50_000, np.random.default_rng(22))
        h = channel_frequency_response(taps, 64)
        np.testing.assert_allclose(np.mean(np.abs(h) ** 2, axis=0), 1.0, atol=0.02)

    def test_batch_matches_single(self):
        prof = SimConfig().profile()
        taps = draw_taps(prof, 4, np.random.default_rng(23))
        h = channel_frequency_response(taps, 64)
        for i in range(4):
            np.testing.assert_allclose(
                h[i], channel_frequency_response(taps[i], 64), atol=1e-12
            )

    def test_overlong_taps_rejected(self):
        with pytest.raises(ValueError):
            channel_frequency_response(np.ones(9, dtype=complex), 8)


class TestApplyChannel:
    def test_identity_tap(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=20) + 1j * rng.normal(size=20)
        np.testing.assert_allclose(apply_channel(x, np.array([1.0 + 0j])), x)

    def test_pure_delay_shifts(self):
        x = np.arange(1.0, 9.0) + 0j
        taps = np.array([0.0, 0.0, 1.0], dtype=complex)
        y = apply_channel(x, taps)
        np.testing.assert_allclose(y[:2], 0.0)
        np.testing.assert_allclose(y[2:], x[:-2])

    def test_matches_truncated_convolve(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=80) + 1j * rng.normal(size=80)
        taps = rng.normal(size=9) + 1j * rng.normal(size=9)
        y = apply_channel(x, taps)
        np.testing.assert_allclose(y, np.convolve(x, taps)[:80], atol=1e-12)

    def test_batch_rows(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=(6, 40)) + 1j * rng.normal(size=(6, 40))
        taps = draw_taps(SimConfig().profile(), 6, rng)
        y = apply_channel(x, taps)
        assert y.shape == (6, 40)
        for i in range(6):
            np.testing.assert_allclose(y[i], np.convolve(x[i], taps[i])[:40], atol=1e-12)

    def test_channel_longer_than_block_rejected(self):
        with pytest.raises(ValueError):
            apply_channel(np.ones(4, dtype=complex), np.ones(5, dtype=complex))


class TestNoise:
    def test_zero_density_is_identity(self):
        x = np.ones(10, dtype=complex)
        y = add_awgn(x, 0.0, np.random.default_rng(1))
        np.testing.assert_array_equal(y, x)

    def test_variance(self):
        rng = np.random.default_rng(40)
        y = add_awgn(np.zeros(1_000_000, dtype=complex), 0.25, rng)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.25, rel=0.01)
        # Circularly symmetric: half the power in each quadrature.
        assert np.mean(y.real**2) == pytest.approx(0.125, rel=0.02)
        assert np.mean(y.imag**2) == pytest.approx(0.125, rel=0.02)
        assert abs(np.mean(y)) < 0.002

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            add_awgn(np.zeros(4, dtype=complex), -0.1, np.random.default_rng(0))


class TestFlatFading:
    def test_statistics(self):
        g = draw_flat_rayleigh(1_000_000, np.random.default_rng(50))
        p = np.abs(g) ** 2
        assert p.mean() == pytest.approx(1.0, rel=0.005)
        # |g|^2 is Exp(1), so its median is ln 2.
        assert np.median(p) == pytest.approx(np.log(2.0), rel=0.01)
        assert abs(np.mean(g)) < 0.002

    def test_deterministic_given_seed(self):
        a = draw_flat_rayleigh(8, np.random.default_rng(5))
        b = draw_flat_rayleigh(8, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

