"""Closed-form error rates over flat Rayleigh fading.

All rates are exact averages over a unit-mean exponential channel power.
The building block is the classical coherent-BPSK result

    P(snr) = (1/2) * (1 - sqrt(snr / (1 + snr)))

evaluated here in the algebraically identical form
0.5 / ((1 + snr) * (1 + sqrt(snr / (1 + snr)))) which does not cancel at
high SNR. rayleigh_bpsk_ber is that one fading tail; at np.square(d) * snr
it gives the probability that the fading-averaged in-phase noise crosses a
boundary at distance d from the amplitude sent, all both substreams need:

  BPSK stream   error distances L and H (one per power level),
  power stream  boundary crossings at (H-L)/2, (H+3L)/2 and (3H+L)/2
                combined with weights 1, +1/2, -1/2.

ber_breakdown evaluates the tail at these five distances; BerBreakdown's
fields, in order, are the theory table's columns. Both functions take the
linear detector SNR, which SimConfig.detector_snr derives from dB.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PowerPair


def rayleigh_bpsk_ber(snr):
    """Average BER of coherent BPSK over flat Rayleigh fading.

    `snr` is the linear per-symbol Eb/N0 at the detector, elementwise on
    arrays; +inf is the noiseless point. This is also the baseline curve
    for plain OFDM-BPSK on any unit-power channel.
    """
    x = np.asarray(snr, dtype=np.float64)
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


@dataclass(frozen=True)
class BerBreakdown:
    """Closed-form rates of every stream at a linear SNR or an array of them."""

    ber_power: float
    ber_bpsk_low: float
    ber_bpsk_high: float
    ber_bpsk: float
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
    low, high, mid, far, past = (
        rayleigh_bpsk_ber(np.square(d) * snr)
        for d in (
            pair.low,
            pair.high,
            0.5 * (pair.high - pair.low),       # level to midpoint
            0.5 * (pair.high + 3.0 * pair.low),  # low level to opposite midpoint
            0.5 * (3.0 * pair.high + pair.low),  # high level past the far boundary
        )
    )
    bpsk = 0.5 * (low + high)
    # both levels cross the midpoint; L crosses the opposite midpoint with
    # weight 1/2; H passing both boundaries is decided right again
    power = mid + 0.5 * far - 0.5 * past
    return BerBreakdown(power, low, high, bpsk, 0.5 * (power + bpsk))


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
