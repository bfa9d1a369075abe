"""The DFT pair at the ends of the link, against a direct O(n^2) DFT reference.

With every bin carrying data and no cyclic prefix, ofdm_modulate is the
unitary inverse DFT and ofdm_demodulate the unitary forward DFT. These
checks pin the sign and the 1/sqrt(N) scaling of both.
"""

from __future__ import annotations

import numpy as np
import pytest

from ofdm_spm import default_layout, ofdm_demodulate, ofdm_modulate


def direct_dft(x, inverse=False):
    """Textbook DFT matrix product with 1/sqrt(n) scaling.

    Deliberately naive so it shares no code with the implementation
    under test.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    k = np.arange(n)
    sign = 2.0j if inverse else -2.0j
    mat = np.exp(sign * np.pi * np.outer(k, k) / n)
    return x @ mat.T / np.sqrt(n)


def idft(x):
    """ofdm_modulate over an all-data layout with no cyclic prefix."""
    n = np.shape(x)[-1]
    return ofdm_modulate(x, default_layout(n, n), 0)


def dft(x):
    """ofdm_demodulate over an all-data layout with no cyclic prefix."""
    n = np.shape(x)[-1]
    return ofdm_demodulate(x, default_layout(n, n), 0)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64, 256])
def test_matches_direct_dft(n):
    rng = np.random.default_rng(100 + n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    np.testing.assert_allclose(dft(x), direct_dft(x), atol=1e-12)
    np.testing.assert_allclose(idft(x), direct_dft(x, inverse=True), atol=1e-12)


def test_round_trip():
    rng = np.random.default_rng(7)
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    np.testing.assert_allclose(idft(dft(x)), x, atol=1e-12)
    np.testing.assert_allclose(dft(idft(x)), x, atol=1e-12)


def test_unitary_preserves_energy():
    rng = np.random.default_rng(8)
    x = rng.normal(size=128) + 1j * rng.normal(size=128)
    for f in (dft, idft):
        y = f(x)
        assert np.sum(np.abs(y) ** 2) == pytest.approx(np.sum(np.abs(x) ** 2))


def test_known_values():
    # Unit impulse spreads to a flat 1/sqrt(n) line.
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    np.testing.assert_allclose(dft(x), np.full(8, 1 / np.sqrt(8)), atol=1e-15)
    # Constant input concentrates at DC.
    y = dft(np.ones(4, dtype=complex))
    np.testing.assert_allclose(y, [2.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_linearity():
    rng = np.random.default_rng(9)
    x = rng.normal(size=32) + 1j * rng.normal(size=32)
    y = rng.normal(size=32) + 1j * rng.normal(size=32)
    a, b = 1.7 - 0.3j, -2.2 + 0.9j
    np.testing.assert_allclose(dft(a * x + b * y), a * dft(x) + b * dft(y), atol=1e-12)


def test_batched_rows_match_single_calls():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 3, 64)) + 1j * rng.normal(size=(5, 3, 64))
    for f in (dft, idft):
        y = f(x)
        assert y.shape == x.shape
        for i in range(5):
            for j in range(3):
                np.testing.assert_allclose(y[i, j], f(x[i, j]), atol=1e-13)


def test_rejects_bad_sizes():
    full = default_layout(64, 64)
    with pytest.raises(ValueError):
        ofdm_modulate(np.zeros(48, dtype=complex), full, 0)
    with pytest.raises(ValueError):
        ofdm_modulate(np.zeros(0, dtype=complex), full, 0)
    with pytest.raises(ValueError):
        ofdm_demodulate(np.zeros(48, dtype=complex), full, 0)
    with pytest.raises(ValueError):
        ofdm_demodulate(np.zeros(64, dtype=complex), full, 16)


def test_real_input_promoted():
    x = np.arange(16.0)
    np.testing.assert_allclose(dft(x), direct_dft(x), atol=1e-12)
    np.testing.assert_allclose(idft(x), direct_dft(x, inverse=True), atol=1e-12)
