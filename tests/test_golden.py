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
    detect_bpsk_bit,
    map_bpsk,
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
        "1a37d5ac265c06be62bf787e4199497eb4cf7761f4d4836d976f10bb43ec1220",
    ),
    "multipath": (
        dict(),
        run_sweep,
        "6ca064f0b98f50632ce2b33298f2433c9c875b9ffac53e2832ce4ba2634a43c1",
    ),
    "baseline": (
        dict(),
        run_baseline_ofdm_bpsk,
        "377646cb1d4b3f4b9c51297b813c56cb58d25f2cc6e77e631d33bad9c49cf880",
    ),
    "per_bit": (
        dict(policy=Policy.REALLOC_OPTIMIZED, snr_convention="per_bit"),
        run_sweep,
        "aefe1810df7932bee66092a371b6e257929069c4866d935b6eb352fdb68345a9",
    ),
    "coherence_block": (
        dict(coherence_block=4),
        run_sweep,
        "1a334a3ee80a9a5246df85e8bdf7ae3fbaae94a33abfc2412d49de2fcb3dd989",
    ),
    # the determinism contract: same bytes as the one-worker multipath run
    "workers": (
        dict(workers=2),
        run_sweep,
        "6ca064f0b98f50632ce2b33298f2433c9c875b9ffac53e2832ce4ba2634a43c1",
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


def _link(sweep, cfg):
    """(pair, mapper, detectors) of the sweep; the baseline has no pair."""
    if sweep is run_sweep:
        return (cfg.pair(), *harness._spm_link(cfg.pair()))
    return None, lambda bits: map_bpsk(bits[:, 0]), (detect_bpsk_bit,)


def _no_points(bits):
    return np.zeros((bits.shape[0], bits.shape[-1]))


# the worker count changes no draw
DRAWN = [name for name in RUNS if name != "workers"]
# the time-domain chain's cyclic prefix, covering the default 8-sample delay spread
CP = 16
# each statistic may sit this many of its standard errors from its value
# under N(0, 1); 1.1 times the noise amplitude moves the second moment by
# over 100 of them
Z = 5.0


@pytest.mark.parametrize("name", DRAWN)
def test_time_domain_noise_is_iid_standard_normal(name):
    # Re(W / H) |H| / sqrt(n0 / 2) on every data bin of every point
    overrides, sweep, _ = RUNS[name]
    cfg = _config(overrides)
    pair, _, detectors = _link(sweep, cfg)
    z, neighbours = [], []
    for snr_index, snr_db in enumerate(cfg.snr_db_grid):
        n0 = cfg.noise_density(snr_db, pair)
        draws = time_domain_draws(cfg, snr_index, n0, len(detectors), _no_points, CP)
        for _, symbols, erased, gains in draws:
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
    pair, mapper, detectors = _link(sweep, cfg)
    bits = cfg.data_subcarriers * cfg.ofdm_symbols
    design_effect = DESIGN_EFFECT[cfg.channel_mode]
    for snr_index, record in enumerate(sweep(cfg)):
        n0 = cfg.noise_density(record.snr_db, pair)
        draws = time_domain_draws(cfg, snr_index, n0, len(detectors), mapper, CP)
        slow = harness._error_counts(((b, s, e) for b, s, e, _ in draws),
                                     lambda bits: 0.0, detectors)
        fast = [record.ber_power_sim, record.ber_bpsk_sim][-len(detectors):]
        for rate, errors in zip(fast, slow):
            mean = 0.5 * (rate + errors / bits)
            sigma = math.sqrt(2.0 * design_effect * mean * (1.0 - mean) / bits)
            assert 0 < errors and abs(rate - errors / bits) <= Z * sigma, record


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
        "b1edf0a58a6ec2a0ee44a6ef0a71293f5cdb47cd334abef3283b43c2da5bca2c",
        "2862ed2d4b90de88271d8e33bc043cbe1e2f9f2ba705073917c12b848b8f3362",
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
