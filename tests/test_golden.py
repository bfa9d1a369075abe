"""Golden output: SHA-256 of the sweep CSV bytes for a fixed set of runs.

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
