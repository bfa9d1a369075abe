"""The simulated error counts against their expectation given the fading.

Given the drawn gain H of a data bin, the zero-forced decision statistic
is the level a sent (L or H, signed by the BPSK bit) plus N(0, sd^2)
noise, sd = sigma / |H|. So each decision errs with a known probability:

- BPSK: Q(a / sd);
- power bit, mid = (L + H) / 2: Q((mid - a) / sd) + Q((mid + a) / sd) at
  L, and one minus that at H;
- an erased bin decodes as (0, 0), so it errs exactly on its 1-bits.

The decisions are independent given the bits and the gains, so a run's
count has a known mean and variance, and its z-score is checked against
the noise alone. The gains come from conftest.time_domain_draws, which
shares the harness's seeds and draw order. The points of one run share a
draw, so each z-score is bounded on its own; none are combined.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import time_domain_draws

from ofdm_spm import SimConfig, run_sweep

GRID = (0.0, 10.0, 20.0)
SYMBOLS = 4000
# the time-domain chain's cyclic prefix, covering the default 8-sample delay spread
CP = 16
# each count may sit this many of its standard deviations from its mean
Z = 5.0

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _q(x):
    """Gaussian tail Q(x) = P(N(0, 1) > x), elementwise."""
    return 0.5 * _erfc(x / math.sqrt(2.0)).astype(np.float64)


def _no_points(bits):
    return np.zeros((bits.shape[0], bits.shape[-1]))


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("channel_mode", ["flat", "multipath"])
def test_counts_match_their_conditional_expectation(channel_mode, seed):
    cfg = SimConfig(channel_mode=channel_mode, ofdm_symbols=SYMBOLS, snr_db_grid=GRID,
                    master_seed=seed)
    pair = cfg.pair()
    draws = list(time_domain_draws(cfg, 0.0, 2, _no_points, CP))
    bits = np.concatenate([b for b, _, _, _ in draws])
    erased = np.concatenate([e for _, _, e, _ in draws])
    magnitude = np.where(erased, 1.0, np.abs(np.concatenate([g for _, _, _, g in draws])))
    power_bit, bpsk_bit = bits[:, 0], bits[:, 1]
    level = np.where(power_bit == 1, pair.high, pair.low)
    bits_per_stream = bits[:, 0].size
    for record in run_sweep(cfg):
        sd = math.sqrt(cfg.noise_density(record.snr_db, pair) / 2.0) / magnitude
        beyond = _q((pair.midpoint - level) / sd) + _q((pair.midpoint + level) / sd)
        p_power = np.where(power_bit == 1, 1.0 - beyond, beyond)
        p_bpsk = _q(level / sd)
        for rate, p, bit in [(record.ber_power_sim, p_power, power_bit),
                             (record.ber_bpsk_sim, p_bpsk, bpsk_bit)]:
            p = np.where(erased, bit, p)
            errors = round(rate * bits_per_stream)
            z = (errors - p.sum()) / math.sqrt(np.sum(p * (1.0 - p)))
            assert abs(z) <= Z, (record.snr_db, z)
