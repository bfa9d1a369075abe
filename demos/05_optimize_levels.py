"""Scan the high level H for the best pair under each budget.

The optimizer walks H upward in 0.01 steps with L derived from the
budget at each step, keeping the pair that minimizes the mean
closed-form total BER over the standard grid. The same scan accepts a
Monte Carlo objective; common random numbers keep that variant
deterministic too. It draws each unit of the link once for the whole
SNR grid and scores every candidate on that one draw, so a candidate
costs a detection pass, not a simulation.
"""

import numpy as np

from ofdm_spm import (
    Policy,
    SimConfig,
    mean_ber_objective,
    monte_carlo_objective,
    reference_pair,
    scan_levels,
)


def main():
    for policy in (Policy.POWER_SAVING, Policy.REALLOC_OPTIMIZED):
        res = scan_levels(policy)
        ref = reference_pair(policy)
        objective = mean_ber_objective(SimConfig(policy=policy))
        print(f"# {policy.value}, closed-form objective")
        print(f"  candidates scanned: {res.trace_high.size}")
        print(f"  winner: H = {res.pair.high:.2f}, L = {res.pair.low:.4f}, "
              f"objective = {res.objective:.6f}")
        print(f"  documented point H = {ref.high}: objective = "
              f"{objective([ref])[0]:.6f}")
        # a taste of the trace around the winner
        i = int(np.argmin(res.trace_objective))
        lo, hi = max(0, i - 2), min(res.trace_high.size, i + 3)
        for j in range(lo, hi):
            mark = " <-" if j == i else ""
            print(f"    H = {res.trace_high[j]:.2f}  obj = "
                  f"{res.trace_objective[j]:.6f}{mark}")
        print()

    print("# power saving, Monte Carlo objective (coarse, 0.05 steps)")
    cfg = SimConfig(
        channel_mode="flat",
        ofdm_symbols=2000,
        snr_db_grid=(5.0, 10.0, 15.0),
        master_seed=7,
    )
    res = scan_levels(
        Policy.POWER_SAVING, objective=monte_carlo_objective(cfg), h_step=0.05
    )
    print(f"  winner: H = {res.pair.high:.2f}, simulated objective = "
          f"{res.objective:.6f}")


if __name__ == "__main__":
    main()
