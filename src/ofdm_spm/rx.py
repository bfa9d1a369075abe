"""Receive side: CP removal, FFT, zero-forcing equalization, bit decisions.

Power and BPSK detection are deliberately independent per subcarrier: the
power bit looks only at the energy of the in-phase component against the
threshold T, the BPSK bit only at the sign of the in-phase component.
"""
from __future__ import annotations

import numpy as np

from .core import SubcarrierLayout

# gains below this magnitude are treated as unusable (erased subcarrier)
GAIN_FLOOR = 1e-12


def ofdm_demodulate(samples, layout: SubcarrierLayout, cp_len: int) -> np.ndarray:
    """Time samples (..., fft_size + cp_len) to data-bin values (..., n).

    Strips the cyclic prefix and applies the unitary DFT, the exact
    inverse of ofdm_modulate. Leading axes are a batch.
    """
    samples = np.asarray(samples)
    size = layout.fft_size
    if not 0 <= cp_len < size:
        raise ValueError(f"cp_len must be in [0, {size}), got {cp_len}")
    if samples.shape[-1:] != (size + cp_len,):
        raise ValueError(
            f"expected {size + cp_len} samples (N={size} + cp={cp_len}) "
            f"on the last axis, got shape {samples.shape}"
        )
    return np.fft.fft(samples[..., cp_len:], norm="ortho")[..., layout.data_bins]


def equalize_symbols(received, gains):
    """Array-level zero-forcing: S_hat = Y / H with an erasure guard.

    Subcarriers whose gain magnitude is below GAIN_FLOOR are flagged erased
    and their estimate forced to 0, which the detectors decode as (0, 0).
    Returns (symbols, erased); broadcasting over leading axes is fine.
    """
    y = np.asarray(received, dtype=np.complex128)
    h = np.asarray(gains, dtype=np.complex128)
    erased = np.abs(h) < GAIN_FLOOR
    symbols = np.zeros(np.broadcast_shapes(y.shape, h.shape), dtype=np.complex128)
    return np.divide(y, h, out=symbols, where=~erased), erased


def detect_power_bit(s, t: float):
    """Power-bit decision: 1 when the in-phase energy exceeds t, else 0.

    After equalization the constellation is real, so the quadrature part
    of s is noise only and stays out of the decision statistic; checking
    Re(s)^2 against the midpoint threshold is the matched 1-D rule.
    Exact ties and a NaN statistic resolve to 0. Vectorized over arrays.
    """
    s = np.asarray(s)
    return (np.square(s.real) > t).astype(np.int8)


def detect_bpsk_bit(s):
    """BPSK decision on the sign of the in-phase part: 1 if Re(s) > 0, so
    0 and a NaN statistic decode as 0."""
    s = np.asarray(s)
    return (s.real > 0).astype(np.int8)
