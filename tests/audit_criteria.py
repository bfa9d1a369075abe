"""Audit of the statistical acceptance criteria: how often each one fails
when the simulator is correct.

pytest does not collect this file, since its name does not start with
test_. For each audit seed it reruns the sweeps behind criteria 3-9 of
test_acceptance.py, each on its own master seed (1000 * audit seed + the
suite's seed for that sweep), and recomputes each criterion's statistic.
Per criterion it prints the statistic's distribution over the seeds, the
number of seeds past the bound and the design false-alarm rate that the
criterion's docstring states. The suite's seeds and tolerances are
neither read from the tests nor changed.

The design rates come from three models:

- "binomial": on flat fading every bit errs independently, so each
  count is binomial around the closed form; the union bound over the
  checked points gives the rate;
- "design effect": on multipath the bins of one symbol share a tap draw,
  so the count's variance is taken as DESIGN_EFFECT times the binomial
  one, again with the union bound;
- "normal fit": a dB crossing has no simple count model, so a normal law
  is fitted to this audit's values and its mass past the bounds is the
  rate.

Run from the repository root (about 30 s on 2 cores):

    PYTHONPATH=src python tests/audit_criteria.py
"""

from __future__ import annotations

import math
import statistics

import test_acceptance as acc
from ofdm_spm import Policy, run_baseline_ofdm_bpsk, run_sweep

# the count variance over the binomial one on multipath at coherence block
# 1, as test_golden.py and bench/workloads.py allow
DESIGN_EFFECT = 12.0
BITS = 52 * acc.SYMBOLS
INF = math.inf
SEEDS = range(10000, 10040)
# threads per sweep; the determinism contract makes the output independent of it
WORKERS = 2

# sweep name -> (run, SimConfig fields, the suite's master seed)
SWEEPS = {
    "baseline_flat": (run_baseline_ofdm_bpsk, dict(channel_mode="flat"), 301),
    "saving_flat": (run_sweep, dict(channel_mode="flat"), 401),
    "saving_multipath": (run_sweep, dict(channel_mode="multipath"), 501),
    "crossing_baseline": (run_baseline_ofdm_bpsk,
                          dict(channel_mode="multipath", snr_db_grid=acc.CROSS_GRID), 701),
    "crossing_nonopt": (run_sweep, dict(channel_mode="multipath", snr_db_grid=acc.CROSS_GRID,
                                        policy=Policy.REALLOC_NON_OPTIMIZED), 702),
    "nonopt_15db": (run_sweep, dict(channel_mode="multipath", snr_db_grid=(15.0,),
                                    policy=Policy.REALLOC_NON_OPTIMIZED), 801),
    "opt_10db": (run_sweep, dict(channel_mode="multipath", snr_db_grid=(10.0,),
                                 policy=Policy.REALLOC_OPTIMIZED), 802),
    "gap_saving": (run_sweep, dict(channel_mode="multipath", snr_db_grid=acc.GAP_GRID), 901),
    "gap_opt": (run_sweep, dict(channel_mode="multipath", snr_db_grid=acc.GAP_GRID,
                                policy=Policy.REALLOC_OPTIMIZED), 902),
}


def _q(x: float) -> float:
    """Gaussian tail P(N(0, 1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _throughput_alarm(record, floor: float) -> float:
    """P(simulated throughput < floor) around its closed form, at the
    multipath design effect; the throughput is 2 - 2 * ber_total."""
    p = record.ber_total_theory
    sigma = 2.0 * math.sqrt(DESIGN_EFFECT * p * (1.0 - p) / (2 * BITS))
    return _q((2.0 - 2.0 * p - floor) / sigma)


# Each criterion maps the sweeps to (statistic, design rate); a rate of
# None is fitted to the audit's values.

def _criterion_3(runs):
    recs = runs["baseline_flat"]
    worst = max(abs(r.ber_bpsk_sim - r.ber_bpsk_theory) / acc._sigma(r.ber_bpsk_theory, BITS)
                for r in recs)
    return worst, len(recs) * 2.0 * _q(3.0)


def _criterion_4(runs):
    worst = rate = 0.0
    for r in runs["saving_flat"]:
        for sim, theory, n in [(r.ber_bpsk_sim, r.ber_bpsk_theory, BITS),
                               (r.ber_power_sim, r.ber_power_theory, BITS),
                               (r.ber_total_sim, r.ber_total_theory, 2 * BITS)]:
            sigma = acc._sigma(theory, n)
            tol = max(0.10 * theory, 3.0 * sigma)
            worst = max(worst, abs(sim - theory) / tol)
            rate += 2.0 * _q(tol / sigma)
    return worst, rate


def _criterion_5(runs):
    worst = rate = 0.0
    for r in runs["saving_multipath"]:
        p = r.ber_total_theory
        if p >= 1e-3:
            worst = max(worst, abs(r.ber_total_sim - p) / p)
            rate += 2.0 * _q(0.20 / math.sqrt(DESIGN_EFFECT * (1.0 - p) / (p * 2 * BITS)))
    return worst, rate


def _criterion_6(runs):
    by_snr = {r.snr_db: r for r in runs["saving_multipath"]}
    checks = [(by_snr[20.0], 1.90), (by_snr[30.0], 1.98)]
    margin = min(r.throughput - floor for r, floor in checks)
    return margin, sum(_throughput_alarm(r, floor) for r, floor in checks)


def _criterion_7(runs):
    base, spm = runs["crossing_baseline"], runs["crossing_nonopt"]
    snrs = [r.snr_db for r in base]
    gain = (acc._snr_at_ber(snrs, [r.ber_bpsk_sim for r in base], 1e-2)
            - acc._snr_at_ber(snrs, [r.ber_bpsk_sim for r in spm], 1e-2))
    return gain, None


def _criterion_8(runs):
    checks = [(runs["nonopt_15db"][0], 1.90), (runs["opt_10db"][0], 1.90)]
    margin = min(r.throughput - floor for r, floor in checks)
    return margin, sum(_throughput_alarm(r, floor) for r, floor in checks)


def _criterion_9(runs):
    snrs = list(acc.GAP_GRID)
    gap = (acc._snr_at_ber(snrs, [r.ber_total_sim for r in runs["gap_saving"]], 1e-2)
           - acc._snr_at_ber(snrs, [r.ber_total_sim for r in runs["gap_opt"]], 1e-2))
    return gap, None


# number -> (statistic, its bounds (lo, hi), model, function)
CRITERIA = {
    3: ("max abs(BER - theory) / sigma, 7 points", (-INF, 3.0), "binomial", _criterion_3),
    4: ("worst abs(BER - theory) / tolerance, 21 checks", (-INF, 1.0), "binomial", _criterion_4),
    5: ("max relative gap of total BER", (-INF, 0.20), "design effect", _criterion_5),
    6: ("least throughput margin, 20 and 30 dB", (0.0, INF), "design effect", _criterion_6),
    7: ("BPSK gain at BER 1e-2, dB", (1.5, 4.0), "normal fit", _criterion_7),
    8: ("least throughput margin, 15 and 10 dB", (0.0, INF), "design effect", _criterion_8),
    9: ("policy gap at total BER 1e-2, dB", (2.0, 4.0), "normal fit", _criterion_9),
}


def _runs(seed: int):
    return {name: run(acc._cfg(master_seed=1000 * seed + suite_seed, workers=WORKERS, **fields))
            for name, (run, fields, suite_seed) in SWEEPS.items()}


def main() -> None:
    values = {number: [] for number in CRITERIA}
    rates = {}
    for seed in SEEDS:
        runs = _runs(seed)
        for number, (_, _, _, criterion) in CRITERIA.items():
            # a model rate reads only the closed forms, so every seed gives the same
            value, rates[number] = criterion(runs)
            values[number].append(value)

    print(f"{len(SEEDS)} seeds, {SEEDS[0]} to {SEEDS[-1]}")
    print("| criterion | statistic | bound | min | q1 | median | q3 | max | past bound"
          " | design rate | model |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for number, (statistic, (lo, hi), model, _) in CRITERIA.items():
        seen = values[number]
        if rates[number] is None:
            mean, sd = statistics.mean(seen), statistics.stdev(seen)
            rates[number] = _q((mean - lo) / sd) + _q((hi - mean) / sd)
        bound = (f"<= {hi:g}" if lo == -INF else f">= {lo:g}" if hi == INF
                 else f"[{lo:g}, {hi:g}]")
        q1, median, q3 = statistics.quantiles(seen, n=4)
        past = sum(not lo <= value <= hi for value in seen)
        cells = " | ".join(f"{v:.4g}" for v in (min(seen), q1, median, q3, max(seen)))
        rate = f"{rates[number]:.2g}" if rates[number] >= 1e-15 else "< 1e-15"
        print(f"| {number} | {statistic} | {bound} | {cells} | {past} of {len(seen)}"
              f" | {rate} | {model} |")


if __name__ == "__main__":
    main()
