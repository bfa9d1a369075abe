"""Audit of the statistical acceptance criteria: how often each one fails
when the simulator is correct.

pytest does not collect this file, since its name does not start with
test_; test_audit_criteria.py evaluates its criteria once on the suite's
own sweeps. For each audit seed it runs test_acceptance.SWEEPS, each
sweep on its own master seed (1000 * audit seed + the suite's seed for
that sweep), and evaluates test_acceptance.STATISTICS on them: the
suite's sweeps, statistics and bounds, at other seeds. Per criterion it
prints the statistic's distribution over the seeds, the number of seeds
past the bounds and the design false-alarm rate that the criterion's
docstring states.

The design rates come from three models:

- "binomial": on flat fading every bit errs independently, so each
  count is binomial around the closed form; the union bound over the
  checked points gives the rate;
- "design effect": on multipath the bins of one symbol share a tap draw,
  so the count's variance is taken as MULTIPATH_DESIGN_EFFECT times the
  binomial one, again with the union bound;
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
from conftest import MULTIPATH_DESIGN_EFFECT

SEEDS = range(10000, 10040)
# threads per sweep; the determinism contract makes the output independent of it
WORKERS = 2


def _q(x: float) -> float:
    """Gaussian tail P(N(0, 1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# Each model maps the sweeps and a criterion number to its design rate.

def _binomial_sigmas(runs, number):
    """Union bound over the flat baseline's points, each past hi sigma
    with probability 2 Q(hi)."""
    _, (_, hi) = acc.STATISTICS[number]
    return len(runs["baseline_flat"]) * 2.0 * _q(hi)


def _binomial_tolerances(runs, number):
    """Union bound over criterion 4's checks, each past its tolerance with
    probability 2 Q(tolerance / sigma)."""
    return sum(2.0 * _q(tol / sigma) for _, _, sigma, tol in acc.spm_checks(runs))


def _design_effect_gaps(runs, number):
    """Union bound over criterion 5's points, each with a relative gap
    past hi at the multipath design effect."""
    _, (_, hi) = acc.STATISTICS[number]
    return sum(2.0 * _q(hi / math.sqrt(MULTIPATH_DESIGN_EFFECT * (1.0 - p) / (p * 2 * acc.BITS)))
               for p in (r.ber_total_theory for r in acc.multipath_points(runs)))


def _design_effect_floors(runs, number):
    """Union bound over the floors of FLOORS[number]: P(simulated
    throughput < floor) around its closed form 2 - 2 * ber_total, at the
    multipath design effect."""
    alarm = 0.0
    for record, floor in acc.floor_checks(runs, number):
        p = record.ber_total_theory
        sigma = 2.0 * math.sqrt(MULTIPATH_DESIGN_EFFECT * p * (1.0 - p) / (2 * acc.BITS))
        alarm += _q((2.0 - 2.0 * p - floor) / sigma)
    return alarm


# number -> (statistic, model, its design rate; None is fitted to the audit's values)
CRITERIA = {
    3: ("max abs(BER - theory) / sigma, 7 points", "binomial", _binomial_sigmas),
    4: ("worst abs(BER - theory) / tolerance, 21 checks", "binomial", _binomial_tolerances),
    5: ("max relative gap of total BER", "design effect", _design_effect_gaps),
    6: ("least throughput margin, 20 and 30 dB", "design effect", _design_effect_floors),
    7: ("BPSK gain at BER 1e-2, dB", "normal fit", None),
    8: ("least throughput margin, 15 and 10 dB", "design effect", _design_effect_floors),
    9: ("policy gap at total BER 1e-2, dB", "normal fit", None),
}


def evaluate(number: int, runs):
    """Criterion number's statistic on the sweeps and its model's design
    rate, None for a normal fit."""
    statistic, _ = acc.STATISTICS[number]
    _, _, rate = CRITERIA[number]
    return statistic(runs), None if rate is None else rate(runs, number)


def main() -> None:
    values = {number: [] for number in CRITERIA}
    rates = {}
    for seed in SEEDS:
        runs = acc.Sweeps(offset=1000 * seed, workers=WORKERS)
        for number in CRITERIA:
            # a model rate reads only the closed forms, so every seed gives the same
            value, rates[number] = evaluate(number, runs)
            values[number].append(value)

    print(f"{len(SEEDS)} seeds, {SEEDS[0]} to {SEEDS[-1]}")
    print("| criterion | statistic | bound | min | q1 | median | q3 | max | past bound"
          " | design rate | model |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for number, (statistic, model, _) in CRITERIA.items():
        _, (lo, hi) = acc.STATISTICS[number]
        seen = values[number]
        if rates[number] is None:
            mean, sd = statistics.mean(seen), statistics.stdev(seen)
            rates[number] = _q((mean - lo) / sd) + _q((hi - mean) / sd)
        bound = (f"<= {hi:g}" if lo == -math.inf else f">= {lo:g}" if hi == math.inf
                 else f"[{lo:g}, {hi:g}]")
        q1, median, q3 = statistics.quantiles(seen, n=4)
        past = sum(not lo <= value <= hi for value in seen)
        cells = " | ".join(f"{v:.4g}" for v in (min(seen), q1, median, q3, max(seen)))
        rate = f"{rates[number]:.2g}" if rates[number] >= 1e-15 else "< 1e-15"
        print(f"| {number} | {statistic} | {bound} | {cells} | {past} of {len(seen)}"
              f" | {rate} | {model} |")


if __name__ == "__main__":
    main()
