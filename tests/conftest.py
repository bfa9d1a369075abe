"""Shared pytest plumbing: acceptance lines repeated in the summary, a
second coding of the power-stream BER that the closed forms are checked
against, and the time-domain link chain the harness is checked against.

The harness draws the in-phase noise Re(W / H) of each data bin directly;
the time-domain chain draws white noise per sample and runs it through
the FFT and zero forcing. They share the bits, the fading and the
erasures, not the noise samples, so the tests compare them exactly on
the noiseless part and statistically on the noise."""

import math

import numpy as np

from ofdm_spm import (
    add_awgn,
    apply_channel,
    channel_frequency_response,
    draw_flat_rayleigh,
    draw_taps,
    equalize_symbols,
    ofdm_demodulate,
    ofdm_modulate,
)
from ofdm_spm.harness import _batch_plan, _batch_rng, _expand_blocks

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def naive_tail(x: float) -> float:
    """0.5 * (1 - sqrt(x / (1 + x))) as written; x = +inf (noiseless) gives 0."""
    if math.isinf(x):
        return 0.0
    return 0.5 * (1.0 - math.sqrt(x / (1.0 + x)))


def crossing_terms(snr: float, pair):
    """The four boundary-crossing events e1..e4 of the power stream.

    Each has weight 1/2: L crosses its near midpoint (e1) or the opposite
    one (e2), H crosses its near midpoint (e3, the same distance as e1) or
    passes both boundaries (e4). P_power = e1 + e2/2 - e4/2.
    """
    d_mid = 0.5 * (pair.high - pair.low)
    d_far = 0.5 * (pair.high + 3.0 * pair.low)
    d_out = 0.5 * (3.0 * pair.high + pair.low)
    return tuple(naive_tail(d**2 * snr) for d in (d_mid, d_far, d_mid, d_out))


def total_crossings(snr: float, pair) -> float:
    e1, e2, _, e4 = crossing_terms(snr, pair)
    return e1 + 0.5 * e2 - 0.5 * e4


def time_domain_draws(cfg, snr_index: int, n0: float, streams: int, mapper, cp_len: int):
    """harness._draws the long way, on the same seeds and in the same draw order.

    Each batch of points goes through the IFFT and a cyclic prefix of
    cp_len samples, which must cover the delay spread, the tap
    convolution (or the flat gains), AWGN of variance n0 per time sample,
    the FFT and zero forcing of signal plus noise. Yields (bits, equalized
    symbols, erased, gains). The complex symbols X + W / H already carry
    the points, so harness._error_counts scores (bits, symbols, erased)
    with a mapper that adds 0. gains are the data-bin responses H, or the
    scalar 1.0 on the identity channel. The bits, gains and erasures come
    from the same seeds and draw order as harness._draws; the noise
    samples do not.
    """
    layout = cfg.layout()
    n, block = layout.n, cfg.coherence_block
    profile = cfg.profile() if cfg.channel_mode == "multipath" else None
    for batch_index, count in _batch_plan(cfg.ofdm_symbols, cfg.batch_symbols, block):
        rng = _batch_rng(cfg.master_seed, snr_index, batch_index)
        bits = rng.integers(0, 2, size=(count, streams * n), dtype=np.int8)
        bits = bits.reshape(count, streams, n)
        points = mapper(bits)
        blocks = -(-count // block)
        gains = 1.0
        if cfg.channel_mode == "flat":
            # per-subcarrier gains act before the transform, which is the
            # same received signal as multiplying the bins after it
            per_block = draw_flat_rayleigh(blocks * n, rng).reshape(blocks, n)
            gains = _expand_blocks(per_block, block, count)
            points = points * gains
        x = ofdm_modulate(points, layout, cp_len)
        if profile is not None:
            taps = draw_taps(profile, blocks, rng)
            response = channel_frequency_response(taps, cfg.fft_size)[:, layout.data_bins]
            gains = _expand_blocks(response, block, count)
            x = apply_channel(x, _expand_blocks(taps, block, count))
        y = add_awgn(x, n0, rng)
        symbols, erased = equalize_symbols(ofdm_demodulate(y, layout, cp_len), gains)
        yield bits, symbols, erased, gains
