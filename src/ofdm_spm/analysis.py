"""Closed-form error rates over flat Rayleigh fading.

All rates are exact averages over a unit-mean exponential channel power.
The building block is the classical coherent-BPSK result

    P(snr) = (1/2) * (1 - sqrt(snr / (1 + snr)))

evaluated here in the algebraically identical form
0.5 / ((1 + snr) * (1 + sqrt(snr / (1 + snr)))) which does not cancel at
high SNR. Substituting a scaled SNR d^2 * snr gives the probability that
the fading-averaged in-phase noise crosses a boundary at distance d from
the transmitted amplitude, which is all that is needed for both substreams:

  BPSK stream   error distances L and H (one per power level),
  power stream  boundary crossings at (H-L)/2, (H+3L)/2 and (3H+L)/2
                combined with weights 1, +1/2, -1/2.

ber_breakdown is the one evaluation of these rates, and rayleigh_bpsk_ber
the plain OFDM-BPSK curve. Both take the linear detector SNR, which
SimConfig.detector_snr derives from an SNR axis value in dB.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PowerPair


def _fade_tail(x):
    """0.5 * (1 - sqrt(x/(1+x))) in a cancellation-free form; x >= 0."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.isnan(x)):
        raise ValueError("effective snr must not be NaN")
    if np.any(x < 0):
        raise ValueError("effective snr must be nonnegative")
    out = np.zeros(x.shape)
    finite = np.isfinite(x)  # +inf means noiseless, tail 0
    xf = x[finite]
    s = np.sqrt(xf / (1.0 + xf))
    out[finite] = 0.5 / ((1.0 + xf) * (1.0 + s))
    return out if out.ndim else float(out)


def rayleigh_bpsk_ber(snr) -> float:
    """Average BER of coherent BPSK over flat Rayleigh fading.

    `snr` is the linear per-symbol Eb/N0 at the detector. This is also the
    baseline curve for plain OFDM-BPSK on any unit-power channel.
    """
    return _fade_tail(snr)


@dataclass(frozen=True)
class BerBreakdown:
    """Closed-form rates of every stream at a linear SNR or an array of them."""

    ber_bpsk_low: float
    ber_bpsk_high: float
    ber_bpsk: float
    ber_power: float
    ber_total: float


def ber_breakdown(snr, pair: PowerPair) -> BerBreakdown:
    """Evaluate every closed-form rate at a linear SNR, elementwise on arrays.

    snr is the detector SNR that SimConfig.detector_snr maps an SNR axis
    value to. A scalar snr gives Python floats, an array gives arrays of
    its shape. The BPSK rate is the mean over the two equiprobable levels,
    and the total the mean of the two streams, which carry equal bit
    counts.
    """
    snr = np.asarray(snr, dtype=np.float64)
    low = _fade_tail(np.square(pair.low) * snr)
    high = _fade_tail(np.square(pair.high) * snr)
    bpsk = 0.5 * (low + high)
    d_mid = 0.5 * (pair.high - pair.low)       # level to midpoint
    d_far = 0.5 * (pair.high + 3.0 * pair.low)  # low level to opposite midpoint
    d_out = 0.5 * (3.0 * pair.high + pair.low)  # high level past the far boundary
    # both levels cross the midpoint; L crosses the opposite midpoint with
    # weight 1/2; H passing both boundaries is decided right again
    power = (
        _fade_tail(d_mid**2 * snr)
        + 0.5 * _fade_tail(d_far**2 * snr)
        - 0.5 * _fade_tail(d_out**2 * snr)
    )
    return BerBreakdown(
        ber_bpsk_low=low,
        ber_bpsk_high=high,
        ber_bpsk=bpsk,
        ber_power=power,
        ber_total=0.5 * (power + bpsk),
    )


def throughput(ber_power_rate, ber_bpsk_rate) -> float:
    """Correct bits per subcarrier use, (1 - P_power) + (1 - P_bpsk).

    Saturates at 2 bits/s/Hz when both streams are error free; plain
    OFDM-BPSK tops out at 1 by the same accounting.
    """
    bp = np.asarray(ber_power_rate, dtype=np.float64)
    bb = np.asarray(ber_bpsk_rate, dtype=np.float64)
    if np.any((bp < 0) | (bp > 1)) or np.any((bb < 0) | (bb > 1)):
        raise ValueError("error rates must lie in [0, 1]")
    result = (1.0 - bp) + (1.0 - bb)
    return result if result.ndim else float(result)
