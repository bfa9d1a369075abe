"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line (repeated in the
terminal summary) and then asserts. Criteria 3-9 are statistical: each is
one statistic of the SWEEPS records and the bounds it must lie in, both
listed in STATISTICS, whose tolerances come from binomial counting noise
at the configured symbol counts. tests/audit_criteria.py evaluates the
same statistics at other seeds to measure how often each criterion fails
on correct code.
"""

from __future__ import annotations

import concurrent.futures
import functools
import io
import math
import time

import numpy as np

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
CROSS_GRID = (6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0)
GAP_GRID = (12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0)
SYMBOLS = 50_000
BITS = SimConfig().data_subcarriers * SYMBOLS  # bits of one stream at one point
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


# -- the sweeps of criteria 3-9 ---------------------------------------------

# sweep name -> (run, SimConfig fields over _cfg's, the suite's master seed)
SWEEPS = {
    "baseline_flat": (run_baseline_ofdm_bpsk, dict(channel_mode="flat"), 301),
    "saving_flat": (run_sweep, dict(channel_mode="flat"), 401),
    "saving_multipath": (run_sweep, dict(channel_mode="multipath"), 501),
    "crossing_baseline": (run_baseline_ofdm_bpsk,
                          dict(channel_mode="multipath", snr_db_grid=CROSS_GRID), 701),
    "crossing_nonopt": (run_sweep, dict(channel_mode="multipath", snr_db_grid=CROSS_GRID,
                                        policy=Policy.REALLOC_NON_OPTIMIZED), 702),
    "nonopt_15db": (run_sweep, dict(channel_mode="multipath", snr_db_grid=(15.0,),
                                    policy=Policy.REALLOC_NON_OPTIMIZED), 801),
    "opt_10db": (run_sweep, dict(channel_mode="multipath", snr_db_grid=(10.0,),
                                 policy=Policy.REALLOC_OPTIMIZED), 802),
    "gap_saving": (run_sweep, dict(channel_mode="multipath", snr_db_grid=GAP_GRID), 901),
    "gap_opt": (run_sweep, dict(channel_mode="multipath", snr_db_grid=GAP_GRID,
                                policy=Policy.REALLOC_OPTIMIZED), 902),
}


class Sweeps(dict):
    """The SWEEPS records by name. Each sweep runs on first use, on master
    seed offset + its suite seed with fields added to its config, and
    seconds keeps how long it took."""

    def __init__(self, offset: int = 0, **fields):
        super().__init__()
        self.offset, self.fields, self.seconds = offset, fields, {}

    def __missing__(self, name: str):
        run, fields, seed = SWEEPS[name]
        t0 = time.perf_counter()
        self[name] = run(_cfg(master_seed=self.offset + seed, **fields, **self.fields))
        self.seconds[name] = time.perf_counter() - t0
        return self[name]


# the suite's own sweeps; every test that reads one, in any module, shares its run
SUITE = Sweeps()


# -- the statistics of criteria 3-9 -----------------------------------------

def spm_checks(runs):
    """Criterion 4's checks: (simulated, closed form, sigma, tolerance) of
    each stream and of the total at every point of the flat saving sweep.
    The tolerance is 10 % of the closed form or 3 sigma, the wider."""
    for r in runs["saving_flat"]:
        for sim, theory, bits in [(r.ber_bpsk_sim, r.ber_bpsk_theory, BITS),
                                  (r.ber_power_sim, r.ber_power_theory, BITS),
                                  (r.ber_total_sim, r.ber_total_theory, 2 * BITS)]:
            sigma = _sigma(theory, bits)
            yield sim, theory, sigma, max(0.10 * theory, 3.0 * sigma)


def multipath_points(runs):
    """Criterion 5's points: the multipath saving sweep's, where the closed
    form's total BER is at least 1e-3."""
    return [r for r in runs["saving_multipath"] if r.ber_total_theory >= 1e-3]


# criterion -> its throughput floors as (sweep, SNR in dB, floor)
FLOORS = {
    6: [("saving_multipath", 20.0, 1.90), ("saving_multipath", 30.0, 1.98)],
    8: [("nonopt_15db", 15.0, 1.90), ("opt_10db", 10.0, 1.90)],
}


def floor_checks(runs, number: int):
    """(record, floor) for each of FLOORS[number]."""
    return [({r.snr_db: r for r in runs[name]}[snr_db], floor)
            for name, snr_db, floor in FLOORS[number]]


# criterion -> (sweep, sweep, the BER column whose crossings of 1e-2 it compares)
CROSSINGS = {
    7: ("crossing_baseline", "crossing_nonopt", "ber_bpsk_sim"),
    9: ("gap_saving", "gap_opt", "ber_total_sim"),
}


def crossings(runs, number: int):
    """The SNRs in dB at which the two sweeps of CROSSINGS[number] reach 1e-2."""
    first, second, column = CROSSINGS[number]
    snrs = [r.snr_db for r in runs[first]]
    return tuple(_snr_at_ber(snrs, [getattr(r, column) for r in runs[name]], 1e-2)
                 for name in (first, second))


def _baseline_sigmas(runs):
    return max(abs(r.ber_bpsk_sim - r.ber_bpsk_theory) / _sigma(r.ber_bpsk_theory, BITS)
               for r in runs["baseline_flat"])


def _spm_tolerances(runs):
    return max(abs(sim - theory) / tol for sim, theory, _, tol in spm_checks(runs))


def _relative_gap(runs):
    return max((abs(r.ber_total_sim - r.ber_total_theory) / r.ber_total_theory
                for r in multipath_points(runs)), default=0.0)


def _floor_margin(runs, number: int):
    return min(r.throughput - floor for r, floor in floor_checks(runs, number))


def _crossing_gap(runs, number: int):
    first, second = crossings(runs, number)
    return first - second


# criterion -> (its statistic of the sweeps, the bounds (lo, hi) it must lie in)
STATISTICS = {
    3: (_baseline_sigmas, (-INF, 3.0)),
    4: (_spm_tolerances, (-INF, 1.0)),
    5: (_relative_gap, (-INF, 0.20)),
    6: (functools.partial(_floor_margin, number=6), (0.0, INF)),
    7: (functools.partial(_crossing_gap, number=7), (1.5, 4.0)),
    8: (functools.partial(_floor_margin, number=8), (0.0, INF)),
    9: (functools.partial(_crossing_gap, number=9), (2.0, 4.0)),
}


def _statistic(number: int):
    """Criterion number's statistic on the suite's sweeps, and whether it
    lies within its bounds."""
    statistic, (lo, hi) = STATISTICS[number]
    value = statistic(SUITE)
    return value, lo <= value <= hi


# -- the criteria -----------------------------------------------------------

def test_criterion_01_noiseless_loopback():
    """Design false-alarm rate 0: with no noise every count is exactly 0;
    only the 1 s timing bound can fail on correct code."""
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
    """Design false-alarm rate 0: a deterministic identity of the closed
    forms, to 1e-12."""
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


def test_criterion_03_baseline_oracle():
    """Design false-alarm rate 1.9 %: on flat fading each point's count is
    binomial around the closed form, so a point passes 3 sigma with
    probability 99.73 %, and the union bound over the 7 points gives
    7 x 0.27 %. tests/audit_criteria.py measures it."""
    worst, ok = _statistic(3)
    elapsed = SUITE.seconds["baseline_flat"]
    ok = ok and elapsed < 120.0
    _criterion(3, ok, f"max deviation {worst:.2f} sigma, sweep took {elapsed:.1f} s")


def test_criterion_04_spm_statistical_oracle():
    """Design false-alarm rate 7.6e-6: binomial counts, union bound over
    the 21 checks; the 10 % floor is the wider tolerance at every check,
    4.5 sigma or more. tests/audit_criteria.py measures it."""
    worst_ratio, ok = _statistic(4)
    _criterion(4, ok, f"worst deviation at {worst_ratio:.2f} of tolerance")


def test_criterion_05_multipath_consistency():
    """Design false-alarm rate below 1e-12 (2.2e-13): the 20 % gap is over
    7 standard errors of each checked point's total BER at a design effect
    of 12 over the binomial, union bound. tests/audit_criteria.py measures
    it."""
    worst, ok = _statistic(5)
    checked = len(multipath_points(SUITE))
    ok = checked >= 5 and ok
    _criterion(5, ok, f"max relative gap {worst:.1%} over {checked} points")


def test_criterion_06_power_saving_throughput():
    """Design false-alarm rate below 1e-15: the closed-form throughput
    clears each floor by tens of standard errors at a design effect of 12
    (0.018 at 30 dB). tests/audit_criteria.py measures it."""
    _, ok = _statistic(6)
    (at_20, _), (at_30, _) = floor_checks(SUITE, 6)
    _criterion(
        6, ok, f"throughput {at_20.throughput:.4f} at 20 dB, {at_30.throughput:.4f} at 30 dB"
    )


def test_criterion_07_bpsk_stream_gain():
    """Design false-alarm rate below 1e-4: a normal law fitted to the gain
    at 40 audit seeds (1.65-1.91 dB) puts that little mass outside [1.5,
    4.0]. tests/audit_criteria.py measures it."""
    gain, ok = _statistic(7)
    base, spm = crossings(SUITE, 7)
    _criterion(
        7, ok, f"BER=1e-2 at {base:.2f} dB baseline vs {spm:.2f} dB, gain {gain:.2f} dB"
    )


def test_criterion_08_reallocation_throughput():
    """Design false-alarm rate below 1e-15: the closed-form throughputs
    clear 1.90 by 0.044 and 0.015, tens of standard errors at a design
    effect of 12. tests/audit_criteria.py measures it."""
    _, ok = _statistic(8)
    (non, _), (opt, _) = floor_checks(SUITE, 8)
    _criterion(
        8,
        ok,
        f"non-opt {non.throughput:.4f} at 15 dB, opt {opt.throughput:.4f} at 10 dB",
    )


def test_criterion_09_policy_gap():
    """Design false-alarm rate below 1e-15: a normal law fitted to the gap
    at 40 audit seeds (2.87-3.10 dB) puts no measurable mass outside [2,
    4]. tests/audit_criteria.py measures it."""
    gap, ok = _statistic(9)
    saving, opt = crossings(SUITE, 9)
    _criterion(
        9, ok, f"total BER=1e-2 at {saving:.2f} dB saving vs {opt:.2f} dB opt, gap {gap:.2f} dB"
    )


def test_criterion_10_optimizer_dominance():
    """Design false-alarm rate 0: closed forms only; only the 10 s timing
    bound can fail on correct code."""
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
    """Design false-alarm rate 0: the determinism contract is exact."""
    # 2000 symbols are 2 units, so the 2-worker run starts a pool; the
    # batch_symbols field has no effect
    small = dict(
        channel_mode="flat",
        ofdm_symbols=2000,
        batch_symbols=500,
        snr_db_grid=(0.0, 10.0),
        master_seed=11,
    )
    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    outputs = []
    for name, workers in [("a", 1), ("b", 1), ("c", 2)]:
        buf = io.StringIO()
        write_csv(run_sweep(SimConfig(workers=workers, **small)), buf)
        path = tmp_path / f"{name}.csv"
        path.write_text(buf.getvalue())
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2] and pools == [2]
    _criterion(11, ok, f"two runs and a 2-worker run byte-identical, pools started {pools}")
