"""Property tests: config files round-trip, batch plans tile the symbols,
the noiseless link loops back, and the harness's draws agree with the
time-domain chain on the bits, the erasures and the noiseless symbols."""

from __future__ import annotations

import argparse
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from conftest import time_domain_draws  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

from ofdm_spm import (  # noqa: E402
    Policy,
    SimConfig,
    apply_channel,
    channel_frequency_response,
    constellation_point,
    detect_bpsk_bit,
    detect_power_bit,
    detection_threshold,
    draw_taps,
    equalize_symbols,
    ofdm_demodulate,
    ofdm_modulate,
)
from ofdm_spm import harness  # noqa: E402
from ofdm_spm.cli import _build_config  # noqa: E402
from ofdm_spm.harness import CHANNEL_MODES, _batch_plan  # noqa: E402

FEW = settings(max_examples=40, deadline=None)
# the SNR axis values SimConfig takes: any dB value whose linear SNR is a
# finite float (up to about 3082.5 dB), -inf, and +inf for no noise
SNR_DB = st.floats(allow_nan=False, max_value=3082.5) | st.just(float("inf"))


@st.composite
def link_fields(draw, channels=CHANNEL_MODES):
    """SimConfig fields of a valid link: layout, channel, profile, pair."""
    fft_size = 2 ** draw(st.integers(1, 10))
    policy = draw(st.sampled_from(list(Policy)))
    # a valid H satisfies budget/2 < H^2 < budget; keep clear of both ends
    budget = policy.budget
    high = draw(st.none() | st.floats(1.001 * (budget / 2) ** 0.5, 0.999 * budget**0.5))
    channel = draw(st.sampled_from(channels))
    # tap delays strictly increasing from 0, the last one below fft_size
    taps = draw(st.integers(1, min(fft_size, 6)))
    widest = max(1, min(3, (fft_size - 1) // max(taps - 1, 1)))
    gaps = draw(st.lists(st.integers(1, widest), min_size=taps - 1, max_size=taps - 1))
    delays = tuple(sum(gaps[:i]) for i in range(taps))
    return dict(
        fft_size=fft_size,
        data_subcarriers=draw(st.integers(1, fft_size)),
        policy=policy,
        high_factor=high,
        channel_mode=channel,
        delays=delays,
        powers_db=tuple(draw(st.lists(st.floats(-60.0, 20.0), min_size=taps,
                                      max_size=taps))),
        master_seed=draw(st.integers(0, 2**63)),
    )


@st.composite
def sim_configs(draw):
    return SimConfig(
        ofdm_symbols=draw(st.integers(1, 10**6)),
        snr_db_grid=tuple(draw(st.lists(SNR_DB, min_size=1, max_size=5))),
        coherence_block=draw(st.integers(1, 64)),
        snr_convention=draw(st.sampled_from(["subcarrier", "per_bit"])),
        batch_symbols=draw(st.integers(1, 10**5)),
        workers=draw(st.integers(1, 8)),
        **draw(link_fields()),
    )


@st.composite
def short_links(draw, channels=CHANNEL_MODES):
    """A valid link config over a few symbols, small enough to simulate,
    and a cyclic prefix for the time-domain chain: any length from the
    delay spread (0 off multipath) to fft_size - 1."""
    cfg = SimConfig(
        ofdm_symbols=draw(st.integers(1, 16)),
        coherence_block=draw(st.integers(1, 4)),
        batch_symbols=draw(st.integers(1, 8)),
        **draw(link_fields(channels)),
    )
    spread = cfg.profile().max_delay if cfg.channel_mode == "multipath" else 0
    return cfg, draw(st.integers(spread, cfg.fft_size - 1))


def _config_text(cfg: SimConfig) -> str:
    def text(value):
        if isinstance(value, Policy):
            return value.value
        if isinstance(value, str):
            return value
        if isinstance(value, tuple):
            return ", ".join(text(v) for v in value)
        return repr(value)

    lines = []
    for name in SimConfig.__dataclass_fields__:
        value = getattr(cfg, name)
        if value is not None:  # None means "use the default", which is not writable
            lines.append(f"{name} = {text(value)}")
    return "\n".join(lines) + "\n"


@FEW
@given(sim_configs())
def test_config_file_round_trip(cfg):
    # _build_config reads the file through _load_config_file
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "run.cfg")
        with open(path, "w") as handle:
            handle.write(_config_text(cfg))
        assert _build_config(argparse.Namespace(config=path)) == cfg


@FEW
@given(st.integers(1, 10**5), st.integers(1, 5000), st.integers(1, 300))
def test_batch_plan_tiles_the_symbols(total, batch, block):
    plan = list(_batch_plan(total, batch, block))
    assert [index for index, _ in plan] == list(range(len(plan)))
    counts = [count for _, count in plan]
    assert sum(counts) == total
    assert all(count > 0 for count in counts)
    assert all(count % block == 0 for count in counts[:-1])


@FEW
@given(short_links(channels=("multipath",)))
def test_noiseless_loopback_has_no_errors(link):
    cfg, cp = link
    rng = np.random.default_rng(cfg.master_seed)
    layout, pair = cfg.layout(), cfg.pair()
    bits = rng.integers(0, 2, size=(2, cfg.ofdm_symbols, layout.n), dtype=np.int8)
    taps = draw_taps(cfg.profile(), cfg.ofdm_symbols, rng)
    samples = ofdm_modulate(constellation_point(bits[0], bits[1], pair), layout, cp)
    received = ofdm_demodulate(apply_channel(samples, taps), layout, cp)
    gains = channel_frequency_response(taps, cfg.fft_size)[:, layout.data_bins]
    symbols, erased = equalize_symbols(received, gains)
    assert not erased.any()
    np.testing.assert_array_equal(detect_power_bit(symbols, detection_threshold(pair)), bits[0])
    np.testing.assert_array_equal(detect_bpsk_bit(symbols), bits[1])


@FEW
@given(short_links())
def test_frequency_domain_chain_matches_time_domain(link):
    # the noise samples differ by design (test_golden checks their law);
    # with n0 = 0 both chains draw the same bits and erasures and give the
    # points on every bin they keep, whatever prefix covers the spread
    cfg, cp = link
    mapper, _ = harness._spm_link(cfg.pair())
    fast = list(harness._draws(cfg, 0, 0.0, 2))
    slow = list(time_domain_draws(cfg, 0, 0.0, 2, mapper, cp))
    assert len(fast) == len(slow)
    for (bits, noise, erased), (slow_bits, slow_symbols, slow_erased, _) in zip(fast, slow):
        np.testing.assert_array_equal(bits, slow_bits)
        np.testing.assert_array_equal(erased, slow_erased)
        assert not noise.any()
        fast_symbols = np.where(erased, 0.0, mapper(bits))
        np.testing.assert_allclose(fast_symbols, slow_symbols, rtol=1e-9, atol=1e-9)
