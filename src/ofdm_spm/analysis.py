"""Closed-form error rates over flat Rayleigh fading, plus sim bookkeeping.

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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import PowerPair, SpmFrameBits


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


def _naive_tail(x):
    """Direct transcription of the same tail, kept as a cross-check coding."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape)
    finite = np.isfinite(x)
    xf = x[finite]
    out[finite] = 0.5 * (1.0 - np.sqrt(xf / (1.0 + xf)))
    return out if out.ndim else float(out)


def rayleigh_bpsk_ber(snr) -> float:
    """Average BER of coherent BPSK over flat Rayleigh fading.

    `snr` is the linear per-symbol Eb/N0 at the detector. This is also the
    baseline curve for plain OFDM-BPSK on any unit-power channel.
    """
    return _fade_tail(snr)


def ber_level(snr, level_factor) -> float:
    """BPSK BER when the symbol amplitude is scaled by level_factor.

    The scaling multiplies the effective SNR by level_factor^2, nothing else.
    """
    factor = np.asarray(level_factor, dtype=np.float64)
    if np.any(factor <= 0):
        raise ValueError("level factor must be positive")
    return _fade_tail(factor**2 * np.asarray(snr))


def ber_bpsk_avg(snr, pair: PowerPair) -> float:
    """BPSK-stream BER with equiprobable power bits: mean of the two levels."""
    return 0.5 * (ber_level(snr, pair.low) + ber_level(snr, pair.high))


class PowerErrorTerms(NamedTuple):
    """Both decompositions of the power-stream error rate.

    a, b, c is the compact form (weights 1/2, 1/4, 1/4 baked in);
    e1..e4 are the four boundary-crossing events, each with weight 1/2,
    that the compact form collapses to (e3 duplicates e1). The two
    combinations below are algebraically identical.
    """

    a: float
    b: float
    c: float
    e1: float
    e2: float
    e3: float
    e4: float

    def total_compact(self):
        return self.a + self.b - self.c

    def total_crossings(self):
        return self.e1 + 0.5 * self.e2 - 0.5 * self.e4


def power_error_terms(snr, pair: PowerPair) -> PowerErrorTerms:
    """Evaluate every term of the power-stream BER at the given SNR."""
    snr = np.asarray(snr, dtype=np.float64)
    d_mid = 0.5 * (pair.high - pair.low)       # level to midpoint
    d_far = 0.5 * (pair.high + 3.0 * pair.low)  # low level to opposite midpoint
    d_out = 0.5 * (3.0 * pair.high + pair.low)  # high level past the far boundary
    a = _fade_tail(d_mid**2 * snr)
    b = 0.5 * _fade_tail(d_far**2 * snr)
    c = 0.5 * _fade_tail(d_out**2 * snr)
    # the crossing events, coded from their defining tails on purpose
    e1 = _naive_tail(d_mid**2 * snr)
    e2 = _naive_tail(d_far**2 * snr)
    e3 = _naive_tail(d_mid**2 * snr)
    e4 = _naive_tail(d_out**2 * snr)
    return PowerErrorTerms(a=a, b=b, c=c, e1=e1, e2=e2, e3=e3, e4=e4)


def ber_power(snr, pair: PowerPair) -> float:
    """Power-stream BER with equiprobable bits over flat Rayleigh fading."""
    return power_error_terms(snr, pair).total_compact()


def ber_total(snr, pair: PowerPair) -> float:
    """Overall BER: both substreams carry equal bit counts, so the mean."""
    return 0.5 * (ber_power(snr, pair) + ber_bpsk_avg(snr, pair))


@dataclass(frozen=True)
class BerBreakdown:
    """Closed-form rates of every stream at one SNR point."""

    snr: float
    ber_bpsk_low: float
    ber_bpsk_high: float
    ber_bpsk: float
    ber_power: float
    ber_total: float


def ber_breakdown(snr, pair: PowerPair) -> BerBreakdown:
    """Evaluate all closed-form rates at one linear SNR."""
    low = ber_level(snr, pair.low)
    high = ber_level(snr, pair.high)
    bpsk = 0.5 * (low + high)
    power = ber_power(snr, pair)
    return BerBreakdown(
        snr=float(snr),
        ber_bpsk_low=low,
        ber_bpsk_high=high,
        ber_bpsk=bpsk,
        ber_power=power,
        ber_total=0.5 * (power + bpsk),
    )


@dataclass(frozen=True)
class ErrorCounts:
    """Per-stream error tallies from a simulation run."""

    power_errors: int
    bpsk_errors: int
    power_bits: int
    bpsk_bits: int

    @property
    def ber_power(self) -> float:
        return self.power_errors / self.power_bits

    @property
    def ber_bpsk(self) -> float:
        return self.bpsk_errors / self.bpsk_bits

    @property
    def ber_total(self) -> float:
        return (self.power_errors + self.bpsk_errors) / (
            self.power_bits + self.bpsk_bits
        )


def count_errors(sent: SpmFrameBits, received: SpmFrameBits) -> ErrorCounts:
    """Compare two frames (or concatenated frame streams) bit by bit."""
    if sent.n != received.n:
        raise ValueError(f"frame sizes differ: {sent.n} vs {received.n}")
    if sent.n == 0:
        raise ValueError("cannot count errors on empty frames")
    return ErrorCounts(
        power_errors=int(np.count_nonzero(sent.power_bits != received.power_bits)),
        bpsk_errors=int(np.count_nonzero(sent.bpsk_bits != received.bpsk_bits)),
        power_bits=sent.n,
        bpsk_bits=sent.n,
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
