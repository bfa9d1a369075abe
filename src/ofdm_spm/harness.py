"""Monte-Carlo link simulation: configuration, per-point runs, sweeps, CSV.

Reproducibility contract: every batch of symbols draws from its own RNG
seeded by (master_seed, snr_index, batch_index), and batch boundaries
depend only on the configuration. The per-point reduction sums integer
error counts, so results are byte-identical across repeat runs and across
worker counts.
"""
from __future__ import annotations

import concurrent.futures
import csv
import math
import os
from dataclasses import astuple, dataclass, fields

import numpy as np

from .analysis import ber_breakdown, rayleigh_bpsk_ber, throughput
from . import rx
from .channel import channel_frequency_response, draw_flat_rayleigh, draw_taps, make_profile
from .core import (
    DEFAULT_HIGH_FACTOR,
    Policy,
    PowerPair,
    SubcarrierLayout,
    constellation_point,
    default_layout,
    detection_threshold,
    map_bpsk,
    power_pair_for,
)
from .rx import detect_bpsk_bit, detect_power_bit

CHANNEL_MODES = ("multipath", "flat", "identity")
SNR_CONVENTIONS = ("subcarrier", "per_bit")


def _linear_snr(snr_db: float) -> float:
    """10^(snr_db / 10); +inf is the noiseless point, NaN and overflow fail."""
    snr_db = float(snr_db)
    if math.isnan(snr_db):
        raise ValueError("snr_db must not be NaN")
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(
            f"snr_db = {snr_db!r} overflows the linear SNR (inf is the noiseless point)"
        ) from None


@dataclass(frozen=True)
class SimConfig:
    """Everything a sweep needs; validated on construction.

    high_factor = None selects the reference operating point of the
    policy. The fft_size - data_subcarriers bins left over are guards.
    snr_convention picks how the x axis maps to the detector SNR, which
    the closed forms take, and to the noise density, its inverse:
    "subcarrier" treats it as per-subcarrier symbol SNR with Eb = 1,
    "per_bit" charges the full budget to the two bits each subcarrier
    carries.
    """

    fft_size: int = 64
    data_subcarriers: int = 52
    cp_len: int = 16
    ofdm_symbols: int = 50_000
    policy: Policy = Policy.POWER_SAVING
    high_factor: float | None = None
    snr_db_grid: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    channel_mode: str = "multipath"
    delays: tuple = (0, 3, 5, 6, 8)
    powers_db: tuple = (0.0, -8.0, -17.0, -21.0, -25.0)
    coherence_block: int = 1
    master_seed: int = 0
    snr_convention: str = "subcarrier"
    batch_symbols: int = 2048
    workers: int = 1

    def __post_init__(self):
        # annotations are postponed, so an int field's type is the text "int"
        for name in (f.name for f in fields(self) if f.type == "int"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        n = self.fft_size
        if n < 2 or n & (n - 1):
            raise ValueError(f"fft_size must be a power of two >= 2, got {n}")
        if not 1 <= self.data_subcarriers <= n:
            raise ValueError(f"data_subcarriers out of range: {self.data_subcarriers}")
        if not 0 <= self.cp_len < n:
            raise ValueError(f"cp_len must be in [0, {n}), got {self.cp_len}")
        if self.ofdm_symbols < 1:
            raise ValueError("ofdm_symbols must be positive")
        if len(self.snr_db_grid) == 0:
            raise ValueError("snr_db_grid must not be empty")
        for snr_db in self.snr_db_grid:
            _linear_snr(snr_db)
        if self.channel_mode not in CHANNEL_MODES:
            raise ValueError(
                f"channel_mode must be one of {CHANNEL_MODES}, got {self.channel_mode!r}"
            )
        if self.snr_convention not in SNR_CONVENTIONS:
            raise ValueError(
                f"snr_convention must be one of {SNR_CONVENTIONS}, "
                f"got {self.snr_convention!r}"
            )
        if self.coherence_block < 1:
            raise ValueError("coherence_block must be >= 1")
        if self.batch_symbols < 1:
            raise ValueError("batch_symbols must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")
        if self.channel_mode == "multipath":
            profile = self.profile()  # validates delays/powers
            if self.cp_len < profile.max_delay:
                raise ValueError(
                    f"cp_len {self.cp_len} shorter than the channel delay "
                    f"spread {profile.max_delay}; equalization would be invalid"
                )
        self.pair()  # validates policy/high_factor feasibility

    def pair(self) -> PowerPair:
        h = self.high_factor
        if h is None:
            h = DEFAULT_HIGH_FACTOR[self.policy]
        return power_pair_for(self.policy, h)

    def layout(self) -> SubcarrierLayout:
        return default_layout(self.fft_size, self.data_subcarriers)

    def profile(self):
        return make_profile(self.delays, self.powers_db)

    def detector_snr(self, snr_db: float, pair: PowerPair | None) -> float:
        """Linear SNR at the detector implied by the SNR axis value.

        This is the SNR the closed forms take and the inverse of the
        noise density. pair = None is the one-bit baseline, whose bit
        energy is 1 under either convention.
        """
        eb = 1.0
        if self.snr_convention == "per_bit" and pair is not None:
            eb = pair.budget / 4.0  # average symbol energy split over 2 bits
        return _linear_snr(snr_db) / eb

    def noise_density(self, snr_db: float, pair: PowerPair | None) -> float:
        """Complex noise variance per sample implied by the SNR axis value."""
        snr = self.detector_snr(snr_db, pair)
        if snr == 0:
            raise ValueError("snr_db = -inf is not simulatable")
        return 1.0 / snr


@dataclass(frozen=True)
class SweepRecord:
    """Simulated and closed-form rates at one SNR point.

    The fields are the CSV columns, in order. Baseline (plain OFDM-BPSK)
    records carry NaN in the power fields and count the BPSK bits only;
    their ber_total equals the BPSK rate.
    """

    snr_db: float
    ber_power_sim: float
    ber_bpsk_sim: float
    ber_total_sim: float
    ber_power_theory: float
    ber_bpsk_theory: float
    ber_total_theory: float
    throughput: float
    bits_counted: int
    seed: int


CSV_COLUMNS = tuple(f.name for f in fields(SweepRecord))


def _batch_plan(total: int, batch: int, block: int):
    """Fixed batch boundaries: multiples of the coherence block, last short."""
    step = max(block, (batch // block) * block)
    index = 0
    done = 0
    while done < total:
        count = min(step, total - done)
        yield index, count
        index += 1
        done += count


def _batch_rng(master_seed: int, snr_index: int, batch_index: int):
    seq = np.random.SeedSequence([int(master_seed), int(snr_index), int(batch_index)])
    return np.random.default_rng(seq)


def _expand_blocks(per_block, block: int, count: int):
    """Repeat each block-fading draw over its coherence block of symbols."""
    if block == 1:
        return per_block[:count]
    return np.repeat(per_block, block, axis=0)[:count]


def _draws(cfg: SimConfig, snr_index: int, n0: float, streams: int):
    """Draw the random part of one SNR point, batch by batch.

    Yields (bits, noise, erased) per batch: bits of shape (count, streams,
    n), the in-phase zero-forced noise Re(W / H) of the data bins, float64
    of shape (count, n), and the mask of bins whose gain is below
    rx.GAIN_FLOOR.

    The cyclic prefix covers the delay spread (SimConfig enforces it), so
    each data bin sees one complex gain H and zero forcing gives X + W / H,
    W the unitary DFT of white noise. The points X are real and both
    detectors read only the in-phase part, Re(W / H) = Re(W e^{-j arg H})
    / |H|, which given H is iid N(0, n0 / 2) / |H| (W is circularly
    symmetric): one real normal per data bin, with no transform.
    _error_counts adds the points. The tests check this against the
    public time-domain chain (ofdm_modulate, apply_channel, add_awgn,
    ofdm_demodulate, equalize_symbols): the same bits, fading and
    erasures, and the same noise law.
    """
    layout = cfg.layout()
    n, block = layout.n, cfg.coherence_block
    profile = cfg.profile() if cfg.channel_mode == "multipath" else None
    for batch_index, count in _batch_plan(cfg.ofdm_symbols, cfg.batch_symbols, block):
        rng = _batch_rng(cfg.master_seed, snr_index, batch_index)
        # draw order is part of the determinism contract: bits, fading, noise
        bits = rng.integers(0, 2, size=(count, streams * n), dtype=np.int8)
        bits = bits.reshape(count, streams, n)
        blocks = -(-count // block)
        gains = 1.0
        if cfg.channel_mode == "flat":
            per_block = draw_flat_rayleigh(blocks * n, rng).reshape(blocks, n)
            gains = _expand_blocks(per_block, block, count)
        elif profile is not None:
            taps = draw_taps(profile, blocks, rng)
            response = channel_frequency_response(taps, cfg.fft_size)[:, layout.data_bins]
            gains = _expand_blocks(response, block, count)
        noise = rng.standard_normal((count, n))
        noise *= math.sqrt(n0 / 2.0)
        magnitude = np.abs(gains)
        erased = magnitude < rx.GAIN_FLOOR  # read at call time; tests move the floor
        np.divide(noise, magnitude, out=noise, where=~erased)
        yield bits, noise, erased


def _error_counts(batches, mapper, detectors) -> list[int]:
    """Decision errors of each stream over (bits, noise, erased) batches.

    A batch's decision statistic is mapper(bits) + noise, with erased bins
    forced to 0, which the detectors decode as (0, 0).
    """
    errors = [0] * len(detectors)
    for bits, noise, erased in batches:
        symbols = mapper(bits) + noise
        symbols[erased] = 0.0
        for stream, detect in enumerate(detectors):
            errors[stream] += int(np.count_nonzero(detect(symbols) != bits[:, stream]))
        del symbols  # free it before the next batch is drawn
    return errors


def _spm_link(pair: PowerPair):
    """OFDM-SPM mapper and the (power, BPSK) detectors for one pair."""
    threshold = detection_threshold(pair)
    return (
        lambda bits: constellation_point(bits[:, 0], bits[:, 1], pair),
        (lambda s: detect_power_bit(s, threshold), detect_bpsk_bit),
    )


def run_point(cfg: SimConfig, snr_db: float, snr_index: int = 0) -> SweepRecord:
    """Simulate one OFDM-SPM operating point.

    snr_index is the point's position in the sweep grid; it enters the
    batch seed derivation, so standalone calls default to 0.
    """
    pair = cfg.pair()
    n0 = cfg.noise_density(snr_db, pair)
    bits_per_stream = cfg.data_subcarriers * cfg.ofdm_symbols
    errors = _error_counts(_draws(cfg, snr_index, n0, 2), *_spm_link(pair))
    ber_power_sim, ber_bpsk_sim = (e / bits_per_stream for e in errors)
    breakdown = ber_breakdown(cfg.detector_snr(snr_db, pair), pair)
    return SweepRecord(
        snr_db=float(snr_db),
        ber_power_sim=ber_power_sim,
        ber_bpsk_sim=ber_bpsk_sim,
        ber_total_sim=0.5 * (ber_power_sim + ber_bpsk_sim),
        ber_power_theory=breakdown.ber_power,
        ber_bpsk_theory=breakdown.ber_bpsk,
        ber_total_theory=breakdown.ber_total,
        throughput=throughput(ber_power_sim, ber_bpsk_sim),
        bits_counted=2 * bits_per_stream,
        seed=cfg.master_seed,
    )


def run_baseline_point(cfg: SimConfig, snr_db: float, snr_index: int = 0) -> SweepRecord:
    """Simulate plain OFDM-BPSK (one bit per subcarrier, unit energy)."""
    n0 = cfg.noise_density(snr_db, None)
    (errors,) = _error_counts(
        _draws(cfg, snr_index, n0, 1), lambda bits: map_bpsk(bits[:, 0]), (detect_bpsk_bit,)
    )
    ber_bpsk_sim = errors / (cfg.data_subcarriers * cfg.ofdm_symbols)
    theory = rayleigh_bpsk_ber(cfg.detector_snr(snr_db, None))
    return SweepRecord(
        snr_db=float(snr_db),
        ber_power_sim=math.nan,
        ber_bpsk_sim=ber_bpsk_sim,
        ber_total_sim=ber_bpsk_sim,
        ber_power_theory=math.nan,
        ber_bpsk_theory=theory,
        ber_total_theory=theory,
        throughput=1.0 - ber_bpsk_sim,
        bits_counted=cfg.data_subcarriers * cfg.ofdm_symbols,
        seed=cfg.master_seed,
    )


def _sweep(cfg: SimConfig, point_fn) -> list[SweepRecord]:
    for snr_db in cfg.snr_db_grid:
        cfg.noise_density(snr_db, None)  # reject -inf before any point runs
    points = list(enumerate(cfg.snr_db_grid))
    workers = min(cfg.workers, len(points))  # a pool starts all its workers at once
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(point_fn, cfg, s, i) for i, s in points]
            return [f.result() for f in futures]
    return [point_fn(cfg, s, i) for i, s in points]


def run_sweep(cfg: SimConfig) -> list[SweepRecord]:
    """Simulate every point of cfg.snr_db_grid, in grid order."""
    return _sweep(cfg, run_point)


def run_baseline_ofdm_bpsk(cfg: SimConfig) -> list[SweepRecord]:
    """Baseline sweep over the same grid and seeds as run_sweep."""
    return _sweep(cfg, run_baseline_point)


def _noise_draw(cfg: SimConfig, snr_db: float, snr_index: int):
    """The batches of one SNR point as the level scan keeps them: _draws'
    (bits, in-phase noise, erased) as drawn, which serve every candidate."""
    n0 = cfg.noise_density(snr_db, cfg.pair())  # depends on the policy budget only
    return list(_draws(cfg, snr_index, n0, 2))


def monte_carlo_objective(cfg: SimConfig):
    """Objective factory for scan_levels: mean simulated ber_total.

    Every candidate pair is evaluated with the same seeds (common random
    numbers), which makes comparisons between candidates much tighter than
    the per-point noise level and keeps the scan deterministic. The draws
    are made once per (SNR point, batch), when the factory is called, with
    the SNR points spread over cfg.workers processes (one pool, if any).
    Each candidate is then a detection pass over the stored draws, through
    the _error_counts run_sweep uses, so it scores the rates run_sweep
    gives at that candidate's H. The draws hold 2 int8 bits, the float64
    in-phase noise and one erasure flag per data subcarrier and symbol,
    11 bytes, at every SNR point.
    """
    draws = _sweep(cfg, _noise_draw)
    bits_per_stream = cfg.data_subcarriers * cfg.ofdm_symbols

    def objective(pair: PowerPair) -> float:
        mapper, detectors = _spm_link(pair)
        totals = []
        for batches in draws:
            e_power, e_bpsk = _error_counts(batches, mapper, detectors)
            totals.append(0.5 * (e_power / bits_per_stream + e_bpsk / bits_per_stream))
        return float(np.mean(totals))

    return objective


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_table(destination, columns, rows) -> None:
    """Write a header and rows as CSV, newline-stable.

    destination is a path or an open text file. Integers are written as
    such and every other cell as repr(float), so equal results are
    byte-identical files.
    """
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", newline="") as handle:
            write_table(handle, columns, rows)
        return
    writer = csv.writer(destination, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_format_cell(value) for value in row] for row in rows)


def write_csv(records, destination) -> None:
    """Write sweep records, one CSV_COLUMNS row each, through write_table."""
    write_table(destination, CSV_COLUMNS, map(astuple, records))
