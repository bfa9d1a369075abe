"""Domain types and constellation geometry for subcarrier power modulation.

Every data subcarrier carries two bits at once: a conventional BPSK bit in
the sign of the symbol and an extra power bit in its amplitude, which is
either L*sqrt(Eb) (power bit 0) or H*sqrt(Eb) (power bit 1). The (L, H)
amplitude pair is tied together by a per-policy energy budget, so the four
constellation points are {-H, -L, +L, +H} scaled by sqrt(Eb).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# relative slack allowed when checking L^2 + H^2 against the budget
BUDGET_RTOL = 1e-9


class Policy(Enum):
    """Power budget rule that ties the low level to the high level.

    POWER_SAVING keeps the average subcarrier energy at the plain-BPSK
    level (L^2 + H^2 = 2 Eb), the reallocation policies borrow the energy
    of a second BPSK subcarrier (L^2 + H^2 = 4 Eb). The two reallocation
    policies share a budget and differ only in the operating point used.
    """

    POWER_SAVING = "saving"
    REALLOC_NON_OPTIMIZED = "realloc_nonopt"
    REALLOC_OPTIMIZED = "realloc_opt"

    @property
    def budget(self) -> float:
        """Energy budget L^2 + H^2 in units of Eb."""
        return 2.0 if self is Policy.POWER_SAVING else 4.0


# Reference operating points (high-level amplitude factor) for each policy.
# The low level follows from the budget, see power_pair_for().
DEFAULT_HIGH_FACTOR = {
    Policy.POWER_SAVING: 1.35,
    Policy.REALLOC_NON_OPTIMIZED: 1.732,
    Policy.REALLOC_OPTIMIZED: 1.918,
}


@dataclass(frozen=True)
class PowerPair:
    """Amplitude pair (L, H) plus the budget it was built against."""

    low: float
    high: float
    budget: float

    def __post_init__(self):
        if not (0.0 < self.low < self.high):
            raise ValueError(
                f"need 0 < L < H, got L={self.low!r}, H={self.high!r}"
            )
        if self.budget <= 0.0:
            raise ValueError(f"budget must be positive, got {self.budget!r}")
        residual = abs(self.low**2 + self.high**2 - self.budget)
        if residual > BUDGET_RTOL * self.budget:
            raise ValueError(
                f"L^2 + H^2 = {self.low**2 + self.high**2!r} does not meet "
                f"the budget {self.budget!r}"
            )

    @property
    def midpoint(self) -> float:
        """Amplitude halfway between the two levels, (L + H) / 2."""
        return 0.5 * (self.low + self.high)


def power_pair_for(policy: Policy, high_factor: float) -> PowerPair:
    """Build the (L, H) pair for a policy from its high-level factor.

    L is derived from the budget, L = sqrt(budget - H^2), so the pair
    always satisfies the policy constraint exactly. Raises ValueError when
    H exhausts the budget (no valid L) or when the implied L would not sit
    strictly below H (degenerate pair, threshold detection impossible).
    """
    budget = policy.budget
    low_sq = budget - high_factor**2
    if low_sq <= 0.0:
        raise ValueError(
            f"high factor {high_factor!r} exhausts the budget {budget!r}, "
            "no valid low level exists"
        )
    low = float(np.sqrt(low_sq))
    if low >= high_factor:
        raise ValueError(
            f"degenerate pair: L={low!r} >= H={high_factor!r} "
            f"(need H^2 > budget/2 = {budget / 2.0!r})"
        )
    return PowerPair(low=low, high=float(high_factor), budget=budget)


def map_bpsk(bits):
    """Antipodal map 0 -> -1, 1 -> +1 (applied to the sign of the symbol)."""
    return 2 * np.asarray(bits).astype(np.int8) - 1


def constellation_point(power_bit, bpsk_bit, pair: PowerPair):
    """Real constellation point for one (power bit, BPSK bit) pair.

    Vectorized: arrays of bits give an array of points. The amplitude is
    pair.high for power bit 1 and pair.low for power bit 0, the sign comes
    from the BPSK bit.
    """
    amplitude = np.where(np.asarray(power_bit) == 1, pair.high, pair.low)
    return amplitude * map_bpsk(bpsk_bit)


def detection_threshold(pair: PowerPair) -> float:
    """Power threshold T = ((L + H) / 2)^2 separating the two levels.

    L^2 < T < H^2 holds for every valid pair, so comparing the received
    symbol energy against T decides the power bit.
    """
    return float(pair.midpoint**2)


@dataclass(frozen=True, eq=False)
class SubcarrierLayout:
    """Assignment of FFT bins to data and guard roles.

    data_bins and guard_bins together cover all fft_size bins exactly once.
    Bin k for k > fft_size/2 represents the negative frequency k - fft_size.
    """

    fft_size: int
    data_bins: np.ndarray = field(repr=False)
    guard_bins: np.ndarray = field(repr=False)

    def __post_init__(self):
        data = np.asarray(self.data_bins, dtype=np.intp)
        guard = np.asarray(self.guard_bins, dtype=np.intp)
        object.__setattr__(self, "data_bins", data)
        object.__setattr__(self, "guard_bins", guard)
        if self.fft_size < 1:
            raise ValueError(f"fft_size must be positive, got {self.fft_size}")
        merged = np.concatenate([data, guard])
        if merged.size != self.fft_size or np.unique(merged).size != self.fft_size:
            raise ValueError(
                "data and guard bins must partition the FFT bins exactly"
            )
        if merged.min() < 0 or merged.max() >= self.fft_size:
            raise ValueError("bin indices out of range")

    @property
    def n(self) -> int:
        """Number of data subcarriers."""
        return int(self.data_bins.size)


def default_layout(fft_size: int = 64, data_count: int = 52) -> SubcarrierLayout:
    """Standard layout: DC null, remaining guards split around the band edge.

    With the 64/52 default this nulls bin 0, the six uppermost positive
    bins (27..32) and the five lowermost negative bins (33..37), leaving
    data on bins +-1..+-26.
    """
    if data_count < 1 or data_count > fft_size:
        raise ValueError(
            f"data_count must be in [1, {fft_size}], got {data_count}"
        )
    guards = fft_size - data_count
    guard_bins = []
    if guards >= 1:
        guard_bins.append(0)
        rest = guards - 1
        upper = (rest + 1) // 2
        lower = rest - upper
        half = fft_size // 2
        guard_bins.extend(range(half - upper + 1, half + 1))
        guard_bins.extend(range(half + 1, half + 1 + lower))
    guard = np.array(sorted(guard_bins), dtype=np.intp)
    data = np.setdiff1d(np.arange(fft_size, dtype=np.intp), guard)
    return SubcarrierLayout(fft_size=fft_size, data_bins=data, guard_bins=guard)
