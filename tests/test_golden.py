"""Golden output: SHA-256 of the sweep CSV bytes for a fixed set of runs.

The closed-form theory table, the optimizer's trace and stdout, and the
Monte Carlo level scan are pinned the same way, through the command line.

Any change to the link chain, the RNG call order or the CSV formatting
that alters a single simulated error count shows up here. A change that
alters these digests on purpose must say why and show that the
acceptance criteria still pass.

The same configs also run through the time-domain reference chain
(conftest.time_domain_draws), which must give the harness's error counts.
"""

from __future__ import annotations

import hashlib
import io

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
        "98f37b1fa1aa578d24723fd9a3196cbb37097a452f33391893122c2e004ccc15",
    ),
    "multipath": (
        dict(),
        run_sweep,
        "3fc9c3814a2ca25f2cf2d9185faeec33cd25078412a91b4d5cd31c30de3b35dd",
    ),
    "baseline": (
        dict(),
        run_baseline_ofdm_bpsk,
        "39a3bffb4e53220570d458b9a0044d24a8f13975c161fe1352d51a5e6e330e90",
    ),
    "per_bit": (
        dict(policy=Policy.REALLOC_OPTIMIZED, snr_convention="per_bit"),
        run_sweep,
        "a2ad0e32e58012e3622e5465294961f914596bc004ca430e4073c87ca6b62b39",
    ),
    "coherence_block": (
        dict(coherence_block=4),
        run_sweep,
        "9b1ba34de4e2ec8f3e70455a56bd23f00b5f573bd3c80393a7624f57e0d8a703",
    ),
    # the determinism contract: same bytes as the one-worker multipath run
    "workers": (
        dict(workers=2),
        run_sweep,
        "3fc9c3814a2ca25f2cf2d9185faeec33cd25078412a91b4d5cd31c30de3b35dd",
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


@pytest.mark.parametrize("name", list(RUNS))
def test_error_counts_match_the_time_domain_chain(name):
    overrides, sweep, _ = RUNS[name]
    cfg = _config(overrides)
    if sweep is run_sweep:
        pair = cfg.pair()
        mapper, detectors = harness._spm_link(pair)
    else:
        pair, mapper, detectors = None, lambda bits: map_bpsk(bits[:, 0]), (detect_bpsk_bit,)
    for snr_index, snr_db in enumerate(cfg.snr_db_grid):
        n0 = cfg.noise_density(snr_db, pair)
        streams = len(detectors)
        fast = harness._draws(cfg, snr_index, n0, streams)
        slow = time_domain_draws(cfg, snr_index, n0, streams, mapper)
        counts = harness._error_counts(fast, mapper, detectors)
        assert counts == harness._error_counts(slow, lambda bits: 0.0, detectors)
        assert 0 < sum(counts)


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
        "6ea69e7aeb0313e191cbd3483fb13502678be13aa93dad8395cdedefa55d6d17",
    ),
    "scan_mc": (
        SCAN_MC,
        "72c59dadf85c9a74329e0858f41d65256efaf435ef0dd33d1fbaf4c54c565bde",
        "929820e9c9e63b2d65afacdc0cc37f79d7af0fb0e7c4b9a1408ccb7d19955d9b",
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
