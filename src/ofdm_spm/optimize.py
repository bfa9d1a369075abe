"""Grid scan over the high level H to pick the best (L, H) operating point."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .analysis import ber_breakdown
from .core import Policy, PowerPair, power_pair_for
from .harness import SimConfig

# stop the scan when H^2 comes within this margin of the budget: the
# implied L would be numerically meaningless beyond it
BUDGET_MARGIN = 1e-6
# the longest walk scan_levels takes: a step that H absorbs never ends it
MAX_CANDIDATES = 10**6


def mean_ber_objective(cfg: SimConfig) -> Callable[[PowerPair], float]:
    """Default objective: mean closed-form ber_total over cfg.snr_db_grid.

    Each grid value maps to the candidate's detector SNR under
    cfg.snr_convention, as in the theory table and the sweeps.
    """

    def objective(pair: PowerPair) -> float:
        snrs = [cfg.detector_snr(snr_db, pair) for snr_db in cfg.snr_db_grid]
        return float(np.mean(ber_breakdown(snrs, pair).ber_total))

    return objective


@dataclass(eq=False)
class ScanResult:
    """Winning pair plus the full scan trace for inspection or plotting."""

    pair: PowerPair
    objective: float
    trace_high: np.ndarray = field(repr=False)
    trace_low: np.ndarray = field(repr=False)
    trace_objective: np.ndarray = field(repr=False)


def scan_levels(
    policy: Policy,
    objective: Callable[[PowerPair], float] | None = None,
    h_start: float = 1.05,
    h_step: float = 0.01,
) -> ScanResult:
    """Walk H upward in fixed steps and return the objective's argmin.

    Candidates are power_pair_for(policy, H) for H = h_start +
    k*h_step, k = 0, 1, ... while H^2 < budget - 1e-6; a walk of more
    than MAX_CANDIDATES steps is rejected up front. Steps whose implied
    L would not satisfy 0 < L < H are skipped (the low end of the walk can
    be infeasible under the larger budget); the scan fails only when no
    candidate at all is feasible. Ties resolve to the smaller H. The
    default objective is mean_ber_objective over SimConfig's default grid;
    it is deterministic (closed form), so the result is too.
    """
    if not (h_start > 0 and h_step > 0):  # NaN fails too: it would never end the walk
        raise ValueError(f"h_start and h_step must be positive, got {h_start!r}, {h_step!r}")
    if objective is None:
        objective = mean_ber_objective(SimConfig(policy=policy))
    budget = policy.budget
    walk = ((budget - BUDGET_MARGIN) ** 0.5 - h_start) / h_step
    if walk > MAX_CANDIDATES:
        raise ValueError(
            f"h_step={h_step!r} from h_start={h_start!r} walks about {walk:.3g} "
            f"candidates, more than the cap of {MAX_CANDIDATES}"
        )
    pairs, values = [], []
    k = 0
    while True:
        h = h_start + h_step * k
        k += 1
        if h * h >= budget - BUDGET_MARGIN:
            break
        try:
            pair = power_pair_for(policy, h)
        except ValueError:  # L >= H, not a usable pair yet
            continue
        pairs.append(pair)
        values.append(float(objective(pair)))
    if not values:
        raise ValueError(
            f"no feasible (L, H) candidate with h_start={h_start!r}, "
            f"h_step={h_step!r} under budget {budget!r}"
        )
    best = int(np.argmin(values))  # first minimum = smallest H on ties
    return ScanResult(
        pair=pairs[best],
        objective=values[best],
        trace_high=np.array([p.high for p in pairs]),
        trace_low=np.array([p.low for p in pairs]),
        trace_objective=np.asarray(values),
    )
