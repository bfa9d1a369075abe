"""Receiver chain, from CP removal through equalization to both detectors."""

from __future__ import annotations

import numpy as np
import pytest

from ofdm_spm import (
    Policy,
    SimConfig,
    SubcarrierLayout,
    constellation_point,
    detect_bpsk_bit,
    detect_power_bit,
    detection_threshold,
    equalize_symbols,
    ofdm_demodulate,
    ofdm_modulate,
    power_pair_for,
)
from ofdm_spm.channel import (
    add_awgn,
    apply_channel,
    channel_frequency_response,
    draw_taps,
)


def _random_bits(rng, frames, n=52):
    """Power and BPSK bits of `frames` symbols, shape (2, frames, n)."""
    return rng.integers(0, 2, size=(2, frames, n)).astype(np.int8)


def _receive(samples, gains, pair, lay, cp_len):
    """Demodulate, equalize and detect both streams, as the harness does."""
    symbols, _ = equalize_symbols(ofdm_demodulate(samples, lay, cp_len), gains)
    return np.stack(
        [detect_power_bit(symbols, detection_threshold(pair)), detect_bpsk_bit(symbols)]
    )


class TestDemodulate:
    def test_round_trip(self):
        lay = SubcarrierLayout(64, 52)
        pair = power_pair_for(Policy.POWER_SAVING, 1.35)
        bits = _random_bits(np.random.default_rng(80), 20)
        points = constellation_point(bits[0], bits[1], pair)
        back = ofdm_demodulate(ofdm_modulate(points, lay, 16), lay, 16)
        assert back.shape == (20, 52)
        np.testing.assert_allclose(back, points, atol=1e-12)

    def test_length_checked(self):
        lay = SubcarrierLayout(64, 52)
        with pytest.raises(ValueError):
            ofdm_demodulate(np.zeros(70, dtype=complex), lay, 16)
        with pytest.raises(ValueError):
            ofdm_demodulate(np.zeros((3, 79), dtype=complex), lay, 16)
        with pytest.raises(ValueError):
            ofdm_demodulate(np.zeros(128, dtype=complex), lay, 64)


class TestEqualize:
    def test_perfect_inversion(self):
        rng = np.random.default_rng(81)
        x = rng.normal(size=52) + 1j * rng.normal(size=52)
        h = rng.normal(size=52) + 1j * rng.normal(size=52)
        s, erased = equalize_symbols(x * h, h)
        np.testing.assert_allclose(s, x, atol=1e-12)
        assert not erased.any()

    def test_noise_scales_with_inverse_gain(self):
        # Hand-checked three-subcarrier case: S_hat = X + W / H.
        x = np.array([1.0, -1.0, 0.5], dtype=complex)
        h = np.array([2.0, 0.5j, -1.0], dtype=complex)
        w = np.array([0.1, 0.2 - 0.1j, -0.3j], dtype=complex)
        s, _ = equalize_symbols(h * x + w, h)
        np.testing.assert_allclose(s, x + w / h, atol=1e-14)

    def test_erasure_flagging(self):
        x = np.array([1.0, 1.0, 1.0], dtype=complex)
        h = np.array([1.0, 1e-13, 1.0], dtype=complex)
        s, erased = equalize_symbols(x, h)
        np.testing.assert_array_equal(erased, [False, True, False])
        assert s[1] == 0.0
        # Erased estimate decodes as bits (0, 0).
        assert detect_power_bit(s[1], 0.5) == 0
        assert detect_bpsk_bit(s[1]) == 0

    def test_erasure_broadcasts_over_the_batch(self):
        # gains broadcast against the symbols either way round
        h = np.array([[1.0, 1e-13, 2.0], [5e-13j, 1.0, -1.0]], dtype=complex)
        for y in (np.full((2, 3), 4.0 + 2.0j), np.full(3, 4.0 + 2.0j)):
            s, erased = equalize_symbols(y, h)
            assert s.shape == (2, 3) and erased.shape == (2, 3)
            np.testing.assert_array_equal(erased, [[False, True, False], [True, False, False]])
            np.testing.assert_array_equal(s, np.where(erased, 0.0, (4.0 + 2.0j) / h))


class TestPowerDetector:
    def test_reference_decisions(self):
        t = detection_threshold(
            power_pair_for(Policy.POWER_SAVING, 1.35)
        )
        assert detect_power_bit(np.array(1.35 + 0j), t) == 1
        assert detect_power_bit(np.array(0.4213 + 0j), t) == 0
        assert detect_power_bit(np.array(-1.35 + 0j), t) == 1
        assert detect_power_bit(np.array(-0.4213 + 0j), t) == 0

    def test_tie_resolves_to_zero(self):
        assert detect_power_bit(np.array(1.0 + 0j), 1.0) == 0
        assert detect_power_bit(np.array(-1.0 + 0j), 1.0) == 0

    def test_quadrature_part_ignored(self):
        # Decision statistic is the in-phase energy alone.
        t = 0.78438
        assert detect_power_bit(np.array(0.4213 + 5.0j), t) == 0
        assert detect_power_bit(np.array(1.35 - 5.0j), t) == 1

    def test_sign_and_conjugation_invariance(self):
        rng = np.random.default_rng(84)
        s = rng.normal(size=500) + 1j * rng.normal(size=500)
        t = 0.9
        base = detect_power_bit(s, t)
        np.testing.assert_array_equal(detect_power_bit(-s, t), base)
        np.testing.assert_array_equal(detect_power_bit(np.conj(s), t), base)


class TestBpskDetector:
    def test_reference_decisions(self):
        assert detect_bpsk_bit(np.array(0.3 + 9j)) == 1
        assert detect_bpsk_bit(np.array(-0.3 + 9j)) == 0
        assert detect_bpsk_bit(np.array(0.0 + 1j)) == 0

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(85)
        s = rng.normal(size=500) + 1j * rng.normal(size=500)
        np.testing.assert_array_equal(detect_bpsk_bit(s), detect_bpsk_bit(3.7 * s))


class TestDetectorIndependence:
    def test_amplitude_change_leaves_bpsk_alone(self):
        rng = np.random.default_rng(86)
        s = (rng.normal(size=300) + 1j * rng.normal(size=300)) + 2.0
        before = detect_bpsk_bit(s)
        np.testing.assert_array_equal(detect_bpsk_bit(0.01 * s), before)

    def test_sign_flip_leaves_power_alone(self):
        rng = np.random.default_rng(87)
        s = rng.normal(size=300) + 1j * rng.normal(size=300)
        t = 0.7
        np.testing.assert_array_equal(detect_power_bit(-s, t), detect_power_bit(s, t))


class TestFullReceiver:
    @pytest.mark.parametrize(
        "policy,factor",
        [
            (Policy.POWER_SAVING, 1.35),
            (Policy.REALLOC_NON_OPTIMIZED, 1.732),
            (Policy.REALLOC_OPTIMIZED, 1.918),
        ],
    )
    def test_noiseless_identity_loopback(self, policy, factor):
        lay = SubcarrierLayout(64, 52)
        pair = power_pair_for(policy, factor)
        bits = _random_bits(np.random.default_rng(88), 10)
        samples = ofdm_modulate(constellation_point(bits[0], bits[1], pair), lay, 16)
        np.testing.assert_array_equal(_receive(samples, 1.0, pair, lay, 16), bits)

    def test_noiseless_multipath_loopback(self):
        # CP covers the delay spread, so equalization is exact.
        lay = SubcarrierLayout(64, 52)
        pair = power_pair_for(Policy.POWER_SAVING, 1.35)
        rng = np.random.default_rng(89)
        bits = _random_bits(rng, 10)
        taps = draw_taps(SimConfig().profile(), 10, rng)
        samples = ofdm_modulate(constellation_point(bits[0], bits[1], pair), lay, 16)
        gains = channel_frequency_response(taps, 64)[:, lay.data_bins]
        out = _receive(apply_channel(samples, taps), gains, pair, lay, 16)
        np.testing.assert_array_equal(out, bits)

    def test_overwhelming_noise_gives_coin_flip_ber(self):
        lay = SubcarrierLayout(64, 52)
        pair = power_pair_for(Policy.POWER_SAVING, 1.35)
        rng = np.random.default_rng(90)
        bits = _random_bits(rng, 2000)
        samples = ofdm_modulate(constellation_point(bits[0], bits[1], pair), lay, 0)
        out = _receive(add_awgn(samples, 1e4, rng), 1.0, pair, lay, 0)
        err_p, err_b = np.mean(out != bits, axis=(1, 2))
        assert err_p == pytest.approx(0.5, abs=0.01)
        assert err_b == pytest.approx(0.5, abs=0.01)
