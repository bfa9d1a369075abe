"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line (repeated in the
terminal summary) and then asserts. Tolerances are stated inline; the
statistical ones come from binomial counting noise at the configured
symbol counts.
"""

from __future__ import annotations

import concurrent.futures
import io
import math
import time

import numpy as np
import pytest

import conftest
from ofdm_spm import (
    Policy,
    PowerPair,
    SimConfig,
    ber_breakdown,
    mean_ber_objective,
    reference_pair,
    run_baseline_ofdm_bpsk,
    run_sweep,
    scan_levels,
    write_csv,
)

GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
SYMBOLS = 50_000
INF = float("inf")


def _criterion(num: int, ok: bool, detail: str):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _cfg(**kw) -> SimConfig:
    base = dict(ofdm_symbols=SYMBOLS, snr_db_grid=GRID_DB)
    base.update(kw)
    return SimConfig(**base)


def _sigma(p: float, bits: int) -> float:
    return math.sqrt(p * (1.0 - p) / bits)


def _snr_at_ber(snr_db, ber, target: float) -> float:
    """Log-linear interpolation of the SNR where a falling curve hits target."""
    logs = np.log10(np.asarray(ber, dtype=float))
    goal = math.log10(target)
    for i in range(len(snr_db) - 1):
        lo, hi = logs[i], logs[i + 1]
        if (lo - goal) * (hi - goal) <= 0.0 and lo != hi:
            frac = (goal - lo) / (hi - lo)
            return snr_db[i] + frac * (snr_db[i + 1] - snr_db[i])
    raise AssertionError(f"BER {target} not bracketed by the sweep grid")


# -- shared sweeps (module scope keeps the total runtime down) --------------

@pytest.fixture(scope="module")
def baseline_flat():
    cfg = _cfg(channel_mode="flat", master_seed=301)
    t0 = time.perf_counter()
    recs = run_baseline_ofdm_bpsk(cfg)
    return recs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def saving_flat():
    return run_sweep(_cfg(channel_mode="flat", master_seed=401))


@pytest.fixture(scope="module")
def saving_multipath():
    return run_sweep(_cfg(channel_mode="multipath", master_seed=501))


CROSS_GRID = (6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0)
GAP_GRID = (12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0)


@pytest.fixture(scope="module")
def crossing_baseline():
    cfg = _cfg(channel_mode="multipath", snr_db_grid=CROSS_GRID, master_seed=701)
    return run_baseline_ofdm_bpsk(cfg)


@pytest.fixture(scope="module")
def crossing_nonopt():
    cfg = _cfg(
        channel_mode="multipath",
        policy=Policy.REALLOC_NON_OPTIMIZED,
        snr_db_grid=CROSS_GRID,
        master_seed=702,
    )
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def gap_saving():
    cfg = _cfg(channel_mode="multipath", snr_db_grid=GAP_GRID, master_seed=901)
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def gap_opt():
    cfg = _cfg(
        channel_mode="multipath",
        policy=Policy.REALLOC_OPTIMIZED,
        snr_db_grid=GAP_GRID,
        master_seed=902,
    )
    return run_sweep(cfg)


# -- the criteria -----------------------------------------------------------

def test_criterion_01_noiseless_loopback():
    t0 = time.perf_counter()
    rates = []
    for policy in Policy:
        (rec,) = run_sweep(_cfg(channel_mode="identity", ofdm_symbols=1000,
                                policy=policy, snr_db_grid=(INF,)))
        rates += [rec.ber_power_sim, rec.ber_bpsk_sim]
    (base,) = run_baseline_ofdm_bpsk(
        _cfg(channel_mode="identity", ofdm_symbols=1000, snr_db_grid=(INF,))
    )
    rates.append(base.ber_bpsk_sim)
    elapsed = time.perf_counter() - t0
    ok = all(r == 0.0 for r in rates) and elapsed < 1.0
    _criterion(1, ok, f"all BER exactly 0, {elapsed:.2f} s for 4 runs of 1e3 symbols")


def test_criterion_02_closed_form_self_consistency():
    rng = np.random.default_rng(2026)
    worst = 0.0
    e_identity = True
    for _ in range(1000):
        budget = 2.0 if rng.random() < 0.5 else 4.0
        lo_h = math.sqrt(budget / 2.0) * 1.001
        hi_h = math.sqrt(budget) * 0.999
        h = rng.uniform(lo_h, hi_h)
        pair = PowerPair(low=math.sqrt(budget - h * h), high=h, budget=budget)
        snr = 10.0 ** rng.uniform(-1.0, 4.0)
        e1, _, e3, _ = conftest.crossing_terms(snr, pair)
        compact = ber_breakdown(snr, pair).ber_power
        worst = max(worst, abs(compact - conftest.total_crossings(snr, pair)))
        e_identity &= e1 == e3
    ok = worst <= 1e-12 and e_identity
    _criterion(2, ok, f"max |compact - crossings| = {worst:.2e} over 1000 triples, E1==E3")


def test_criterion_03_baseline_oracle(baseline_flat):
    recs, elapsed = baseline_flat
    bits = 52 * SYMBOLS
    worst = 0.0
    for rec in recs:
        dev = abs(rec.ber_bpsk_sim - rec.ber_bpsk_theory)
        worst = max(worst, dev / _sigma(rec.ber_bpsk_theory, bits))
    ok = worst <= 3.0 and elapsed < 120.0
    _criterion(3, ok, f"max deviation {worst:.2f} sigma, sweep took {elapsed:.1f} s")


def test_criterion_04_spm_statistical_oracle(saving_flat):
    bits = 52 * SYMBOLS
    worst_ratio = 0.0
    for rec in saving_flat:
        for sim, theory, n in [
            (rec.ber_bpsk_sim, rec.ber_bpsk_theory, bits),
            (rec.ber_power_sim, rec.ber_power_theory, bits),
            (rec.ber_total_sim, rec.ber_total_theory, 2 * bits),
        ]:
            tol = max(0.10 * theory, 3.0 * _sigma(theory, n))
            worst_ratio = max(worst_ratio, abs(sim - theory) / tol)
    ok = worst_ratio <= 1.0
    _criterion(4, ok, f"worst deviation at {worst_ratio:.2f} of tolerance")


def test_criterion_05_multipath_consistency(saving_multipath):
    worst = 0.0
    checked = 0
    for rec in saving_multipath:
        if rec.ber_total_theory >= 1e-3:
            checked += 1
            worst = max(
                worst,
                abs(rec.ber_total_sim - rec.ber_total_theory) / rec.ber_total_theory,
            )
    ok = checked >= 5 and worst <= 0.20
    _criterion(5, ok, f"max relative gap {worst:.1%} over {checked} points")


def test_criterion_06_power_saving_throughput(saving_multipath):
    by_snr = {rec.snr_db: rec.throughput for rec in saving_multipath}
    ok = by_snr[20.0] >= 1.90 and by_snr[30.0] >= 1.98
    _criterion(
        6, ok, f"throughput {by_snr[20.0]:.4f} at 20 dB, {by_snr[30.0]:.4f} at 30 dB"
    )


def test_criterion_07_bpsk_stream_gain(crossing_baseline, crossing_nonopt):
    snrs = [r.snr_db for r in crossing_baseline]
    base = _snr_at_ber(snrs, [r.ber_bpsk_sim for r in crossing_baseline], 1e-2)
    spm = _snr_at_ber(snrs, [r.ber_bpsk_sim for r in crossing_nonopt], 1e-2)
    gain = base - spm
    ok = 1.5 <= gain <= 4.0
    _criterion(
        7, ok, f"BER=1e-2 at {base:.2f} dB baseline vs {spm:.2f} dB, gain {gain:.2f} dB"
    )


def test_criterion_08_reallocation_throughput():
    (non,) = run_sweep(
        _cfg(
            channel_mode="multipath",
            policy=Policy.REALLOC_NON_OPTIMIZED,
            snr_db_grid=(15.0,),
            master_seed=801,
        )
    )
    (opt,) = run_sweep(
        _cfg(
            channel_mode="multipath",
            policy=Policy.REALLOC_OPTIMIZED,
            snr_db_grid=(10.0,),
            master_seed=802,
        )
    )
    ok = non.throughput >= 1.90 and opt.throughput >= 1.90
    _criterion(
        8,
        ok,
        f"non-opt {non.throughput:.4f} at 15 dB, opt {opt.throughput:.4f} at 10 dB",
    )


def test_criterion_09_policy_gap(gap_saving, gap_opt):
    snrs = list(GAP_GRID)
    saving = _snr_at_ber(snrs, [r.ber_total_sim for r in gap_saving], 1e-2)
    opt = _snr_at_ber(snrs, [r.ber_total_sim for r in gap_opt], 1e-2)
    gap = saving - opt
    ok = 2.0 <= gap <= 4.0
    _criterion(
        9, ok, f"total BER=1e-2 at {saving:.2f} dB saving vs {opt:.2f} dB opt, gap {gap:.2f} dB"
    )


def test_criterion_10_optimizer_dominance():
    t0 = time.perf_counter()
    results = {}
    for policy in (Policy.POWER_SAVING, Policy.REALLOC_OPTIMIZED):
        res = scan_levels(policy, h_start=1.05, h_step=0.01)
        ref_value = mean_ber_objective(SimConfig(policy=policy))([reference_pair(policy)])[0]
        results[policy] = (res, ref_value)
    elapsed = time.perf_counter() - t0
    dominated = all(
        res.objective <= ref_value + 1e-9 for res, ref_value in results.values()
    )
    ok = dominated and elapsed < 10.0
    highs = {p.value: round(res.pair.high, 4) for p, (res, _) in results.items()}
    _criterion(10, ok, f"winners {highs}, both <= published objective, {elapsed:.2f} s")


def test_criterion_11_deterministic_csv(tmp_path, monkeypatch):
    # 4 batches of 500 symbols, so the 2-worker run starts a pool
    small = dict(
        channel_mode="flat",
        ofdm_symbols=2000,
        batch_symbols=500,
        snr_db_grid=(0.0, 10.0),
        master_seed=11,
    )
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    outputs = []
    for name, workers in [("a", 1), ("b", 1), ("c", 2)]:
        buf = io.StringIO()
        write_csv(run_sweep(SimConfig(workers=workers, **small)), buf)
        path = tmp_path / f"{name}.csv"
        path.write_text(buf.getvalue())
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2] and pools == [2]
    _criterion(11, ok, f"two runs and a 2-worker run byte-identical, pools started {pools}")
