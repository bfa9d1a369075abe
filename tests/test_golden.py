"""Golden output: SHA-256 of the sweep CSV bytes for a fixed set of runs.

Any change to the link chain, the RNG call order or the CSV formatting
that alters a single simulated error count shows up here. A change that
alters these digests on purpose must say why and show that the
acceptance criteria still pass.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from ofdm_spm import Policy, SimConfig, run_baseline_ofdm_bpsk, run_sweep, write_csv

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


def _digest(overrides, sweep) -> str:
    cfg = SimConfig(ofdm_symbols=3000, snr_db_grid=GRID, master_seed=7, **overrides)
    buf = io.StringIO()
    write_csv(sweep(cfg), buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", list(RUNS))
def test_csv_digest(name):
    overrides, sweep, expected = RUNS[name]
    assert _digest(overrides, sweep) == expected
