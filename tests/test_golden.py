"""Golden output: SHA-256 of the sweep CSV bytes for a fixed set of runs.

The closed-form theory table, the optimizer's trace and stdout, and the
Monte Carlo level scan are pinned the same way, through the command line.

Any change to the link chain, the RNG call order or the CSV formatting
that alters a single simulated error count shows up here. A change that
alters these digests on purpose must say why and show that the
acceptance criteria still pass.

The harness draws the in-phase noise Re(W / H) of each data bin directly,
so the time-domain reference chain (conftest.time_domain_draws), which
transforms white noise per sample, shares its bits and fading but not its
noise samples. On the same configs its noise must be the distribution the
harness draws from, and at a larger symbol count its error rates must
agree with the sweeps' within counting noise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest
from conftest import time_domain_draws

from ofdm_spm import (
    Policy,
    SimConfig,
    run_baseline_ofdm_bpsk,
    run_sweep,
    write_csv,
)
from ofdm_spm import harness
from ofdm_spm.cli import main

GRID = (0.0, 10.0, 20.0, 30.0)

# name -> (config overrides, sweep function, digest of the write_csv bytes)
RUNS = {
    "flat": (
        dict(channel_mode="flat"),
        run_sweep,
        "38d7f8cc62cc11125609501b84351c301696ecd9b44e103453e45721c5a68f82",
    ),
    "multipath": (
        dict(),
        run_sweep,
        "4014c3418ebd45cfe4abd9e741bb838339509d8e1f6fd215d02c56e1ac5fa560",
    ),
    "baseline": (
        dict(),
        run_baseline_ofdm_bpsk,
        "9777024cf9a7f85a19745b3adae1a1c40d77bc09ee721b99002ffd91ff334b2f",
    ),
    "per_bit": (
        dict(policy=Policy.REALLOC_OPTIMIZED, snr_convention="per_bit"),
        run_sweep,
        "b45093602faa64d169c60cdfa3d399107f86da930b462ce358182bde4ebc0e8f",
    ),
    "coherence_block": (
        dict(coherence_block=4),
        run_sweep,
        "e947569c8aae80e9d663e26997a82377fe42335dfd2f5ae5abc23ab6b1ce0cf2",
    ),
    # the determinism contract: same bytes as the one-worker multipath run
    "workers": (
        dict(workers=2),
        run_sweep,
        "4014c3418ebd45cfe4abd9e741bb838339509d8e1f6fd215d02c56e1ac5fa560",
    ),
}


def _config(overrides) -> SimConfig:
    return SimConfig(ofdm_symbols=3000, snr_db_grid=GRID, master_seed=7, **overrides)


def _digest(overrides, sweep) -> str:
    buf = io.StringIO()
    write_csv(sweep(_config(overrides)), buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", list(RUNS))
def test_csv_digest(name):
    overrides, sweep, expected = RUNS[name]
    assert _digest(overrides, sweep) == expected


def _pair(sweep, cfg):
    """The sweep's pair; the baseline has none."""
    return cfg.pair() if sweep is run_sweep else None


def _no_points(bits):
    return np.zeros((bits.shape[0], bits.shape[-1]))


# the worker count changes no draw
DRAWN = [name for name in RUNS if name != "workers"]
# the time-domain chain's cyclic prefix, covering the default 8-sample delay spread
CP = 16
# each statistic may sit this many of its standard errors from its value
# under N(0, 1); 1.1 times the noise amplitude moves the second moment by
# over 50 of them
Z = 5.0


@pytest.mark.parametrize("name", DRAWN)
def test_time_domain_noise_is_iid_standard_normal(name):
    # Re(W / H) |H| / sqrt(n0 / 2) on every data bin, at every point; the
    # points scale one draw, so each is checked on its own
    overrides, sweep, _ = RUNS[name]
    cfg = _config(overrides)
    pair = _pair(sweep, cfg)
    streams = len(harness._link(pair)[1])
    for snr_db in cfg.snr_db_grid:
        n0 = cfg.noise_density(snr_db, pair)
        z, neighbours = [], []
        for _, symbols, erased, gains in time_domain_draws(cfg, n0, streams, _no_points, CP):
            assert not erased.any()
            scaled = symbols.real * np.abs(gains) / math.sqrt(n0 / 2.0)
            z.append(scaled.ravel())
            neighbours.append((scaled[:, :-1] * scaled[:, 1:]).ravel())
        z, neighbours = np.concatenate(z), np.concatenate(neighbours)
        size = z.size
        assert abs(z.mean()) <= Z / math.sqrt(size)
        assert abs(np.mean(z**2) - 1.0) <= Z * math.sqrt(2.0 / size)
        tail = math.erfc(math.sqrt(2.0))  # P(|z| > 2)
        assert abs(np.mean(np.abs(z) > 2.0) - tail) <= Z * math.sqrt(tail * (1 - tail) / size)
        # adjacent data bins: E[z_k z_k+1] = 0 with unit variance
        assert abs(neighbours.mean()) <= Z / math.sqrt(neighbours.size)


# the engine comparison runs the golden configs at this many symbols
ENGINE_SYMBOLS = 20_000
# On multipath the bits of one symbol share one tap draw, which inflates
# the counting variance; 12 is the benchmark's design effect for it
# (bench/workloads.py DESIGN_EFFECT_MULTIPATH). The two engines also share
# the bits and the fading, so their difference spreads less than this.
DESIGN_EFFECT = {"multipath": 12.0, "flat": 1.0}


@pytest.mark.parametrize("name", list(RUNS))
def test_error_counts_match_the_time_domain_chain(name):
    # each stream's simulated BER within Z sigma of the time-domain chain's
    overrides, sweep, _ = RUNS[name]
    cfg = dataclasses.replace(_config(overrides), ofdm_symbols=ENGINE_SYMBOLS)
    pair = _pair(sweep, cfg)
    mapper, detectors = harness._link(pair)
    bits = cfg.data_subcarriers * cfg.ofdm_symbols
    design_effect = DESIGN_EFFECT[cfg.channel_mode]
    for record in sweep(cfg):
        n0 = cfg.noise_density(record.snr_db, pair)
        draws = time_domain_draws(cfg, n0, len(detectors), mapper, CP)
        slow = np.sum([harness._error_counts((b, s), [1.0], lambda bits: 0.0, detectors)[0]
                       for b, s, _, _ in draws], axis=0).tolist()
        fast = [record.ber_power_sim, record.ber_bpsk_sim][-len(detectors):]
        for rate, errors in zip(fast, slow):
            mean = 0.5 * (rate + errors / bits)
            sigma = math.sqrt(2.0 * design_effect * mean * (1.0 - mean) / bits)
            assert 0 < errors and abs(rate - errors / bits) <= Z * sigma, record


@pytest.mark.parametrize("channel_mode", ["flat", "multipath"])
@pytest.mark.parametrize("pair_of", [SimConfig.pair, lambda cfg: None], ids=["spm", "baseline"])
def test_partly_erased_batches_count_like_the_time_domain_chain(channel_mode, pair_of,
                                                                monkeypatch):
    # a floor near the median |H| erases some bins of every unit and keeps
    # the rest; with no noise the counts must equal the time-domain chain's
    # decisions, where equalize_symbols sets each erased bin to 0
    monkeypatch.setattr(harness.rx, "GAIN_FLOOR", 0.8)
    monkeypatch.setattr(harness, "_UNIT_ROWS", 128)
    cfg = SimConfig(channel_mode=channel_mode, ofdm_symbols=300, master_seed=4,
                    snr_db_grid=(math.inf,))
    pair = pair_of(cfg)
    mapper, detectors = harness._link(pair)
    slow = np.zeros(len(detectors), dtype=int)
    for bits, symbols, erased, _ in time_domain_draws(cfg, 0.0, len(detectors), mapper, CP):
        assert 0.2 < erased.mean() < 0.8
        slow += [np.count_nonzero(detect(symbols) != bits[:, stream])
                 for stream, detect in enumerate(detectors)]
    assert harness._errors(cfg, [pair]) == [[slow.tolist()]]


SCAN_MC = (
    "optimize --policy realloc_opt --objective monte_carlo --channel multipath "
    "--snr-grid 0,10,20,30 --symbols 1000 --seed 1"
).split()

# name -> (argv, digest of stdout, digest of the --out file or None for stdout only)
CLI_RUNS = {
    "theory": (
        ["theory"],
        "7dc158c95d2b20f3a98df8adac4c1cd093ebb1645c82893230fa3c616a21f817",
        None,
    ),
    "theory_realloc_opt": (
        ["theory", "--policy", "realloc_opt", "--snr-grid=-inf,0,7.5,inf"],
        "268149b04e6ee4db3d2cffa10afd3d19053c57d7712fb1dc1eef53dcac8fc45d",
        None,
    ),
    "optimize_closed_form": (
        ["optimize", "--policy", "realloc_opt"],
        "a1e74d77236b0d61375597cd7ba4aec5f3934caafd199ed1bc9564a868eff24e",
        "9839083510fe2b0f8b5c0c05c132fd68849d7e145495e37e2cf87fc408b37c7b",
    ),
    "scan_mc": (
        SCAN_MC,
        "c89984c0b81686a577683d9a9c30f726c18e00266879b253d3a90c434faed501",
        "122022cf56624d7aa8d9f51f9109a2c4a6f41e28f4b4de2d6dfb0ac5c183024c",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(CLI_RUNS))
def test_cli_output_digest(name, tmp_path, capsys):
    argv, stdout_digest, file_digest = CLI_RUNS[name]
    out = tmp_path / "out.csv"
    if file_digest is not None:
        argv = [*argv, "--out", str(out)]
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out.encode()) == stdout_digest
    if file_digest is not None:
        assert _sha256(out.read_bytes()) == file_digest
