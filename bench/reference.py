"""Reference error rates for the benchmark's checks, computed without ofdm_spm.

Every rate is an average over the exponential fading power g ~ Exp(1) of
a Gaussian tail: after zero-forcing, the in-phase noise on a subcarrier
with power gain g has variance n0 / (2 g), so the probability of crossing
a decision boundary at amplitude distance d is Q(d sqrt(2 g snr)) with
snr = 1 / n0. The average over g,

    E[Q(sqrt(2 c g))] = (1/c) * integral_0^inf erfc(x) x exp(-x^2 / c) dx,
    c = d^2 snr,

is evaluated here by Gauss-Legendre quadrature; on c in [1e-5, 1e4] it
agrees with the paper's closed form to about 1e-14 relative. Nothing here
imports the package under test, so a fault in ofdm_spm.analysis cannot
hide in the reference.
"""
from __future__ import annotations

import math

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(200)
_ERFC = np.frompyfunc(math.erfc, 1, 1)

# the saving policy's operating point, (energy budget L^2 + H^2, high level H),
# and the budget of the reallocation policies
SAVING = (2.0, 1.35)
REALLOC_BUDGET = 4.0


def fade_tail(c: float) -> float:
    """E[Q(sqrt(2 c g))] over g ~ Exp(1), for c > 0."""
    if not c > 0:
        raise ValueError(f"tail argument must be positive, got {c!r}")
    # the integrand dies by erfc beyond x = 9 and by exp(-x^2/c) beyond 10 sqrt(c)
    span = min(9.0, 10.0 * math.sqrt(c))
    x = 0.5 * span * (_NODES + 1.0)
    f = _ERFC(x).astype(np.float64) * x * np.exp(-x * x / c)
    return float(0.5 * span * (_WEIGHTS @ f)) / c


def low_level(budget: float, high: float) -> float:
    """L from the energy budget L^2 + H^2 = budget."""
    return math.sqrt(budget - high * high)


def spm_rates(snr_db: float, budget: float, high: float):
    """(power, bpsk, total) BER of OFDM-SPM on flat Rayleigh fading.

    snr_db is the per-subcarrier symbol SNR with Eb = 1. Power bit 0 sends
    amplitude L and errs past the threshold (L + H) / 2 on either side;
    power bit 1 sends H and errs inside it. The BPSK bit errs on a sign
    flip of either level.
    """
    snr = 10.0 ** (snr_db / 10.0)
    low = low_level(budget, high)
    near = 0.5 * (high - low)        # either level to the threshold
    far = 0.5 * (high + 3.0 * low)   # L past the opposite threshold
    out = 0.5 * (3.0 * high + low)   # H past the opposite threshold
    power = (
        fade_tail(near**2 * snr)
        + 0.5 * fade_tail(far**2 * snr)
        - 0.5 * fade_tail(out**2 * snr)
    )
    bpsk = 0.5 * (fade_tail(low**2 * snr) + fade_tail(high**2 * snr))
    return power, bpsk, 0.5 * (power + bpsk)


def bpsk_rate(snr_db: float) -> float:
    """BER of plain BPSK on flat Rayleigh fading."""
    return fade_tail(10.0 ** (snr_db / 10.0))


def scan_candidates(budget: float, h_start: float = 1.05, h_step: float = 0.01):
    """The (H, L) pairs a level scan visits: H on the step grid with L < H < sqrt(budget)."""
    pairs = []
    k = 0
    while True:
        high = h_start + h_step * k
        k += 1
        if high * high >= budget:
            return pairs
        if high * high > budget / 2.0:
            pairs.append((high, low_level(budget, high)))


def counting_sigma(rate: float, bits: int, design_effect: float) -> float:
    """Standard deviation of a simulated error rate from counting noise.

    design_effect scales the binomial variance for errors that are not
    independent: on the multipath channel the subcarriers of one symbol
    share a single tap draw, so errors cluster in deep fades.
    """
    return math.sqrt(design_effect * rate * (1.0 - rate) / bits)
