"""Monte-Carlo link simulation: configuration, sweeps, CSV.

Reproducibility contract: a run is cut into units of _UNIT_ROWS symbols,
in whole coherence blocks, and every unit draws from its own RNG seeded
by (master_seed, unit_index). The draw depends on neither the SNR nor the
pair, so each unit is drawn once and counted at every SNR point for every
pair: simulate, a one-point sweep, equals the sweep's row at that SNR, and
the baseline sends the SPM draw's BPSK stream over the same |H| and noise.
The reduction sums integer error counts in unit order, so results are
byte-identical across repeat runs, worker counts and batch_symbols, which
the simulation does not read.
"""
from __future__ import annotations

import concurrent.futures
import csv
import math
import numbers
import os
from dataclasses import astuple, dataclass, fields

import numpy as np

from .analysis import ber_breakdown, rayleigh_bpsk_ber, throughput
from . import rx
from .channel import ChannelProfile, channel_frequency_response, draw_taps, is_real_vector
from .core import (
    Policy,
    PowerPair,
    SubcarrierLayout,
    constellation_point,
    detection_threshold,
    map_bpsk,
    power_pair_for,
    reference_pair,
)
from .rx import detect_bpsk_bit, detect_power_bit

CHANNEL_MODES = ("multipath", "flat", "identity")
SNR_CONVENTIONS = ("subcarrier", "per_bit")
# SimConfig's count fields with their least value, and its word fields with their choices
_LOWER_BOUNDS = {"ofdm_symbols": 1, "coherence_block": 1, "batch_symbols": 1, "workers": 1,
                 "master_seed": 0}
_CHOICES = {"channel_mode": CHANNEL_MODES, "snr_convention": SNR_CONVENTIONS}


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
    """The simulated system, validated on construction; layout(),
    profile() and pair() derive from it.

    The model assumes a cyclic prefix covering the delay spread, so none
    is simulated; a multipath delay spread must fit the FFT.
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
    batch_symbols: int = 2048  # no effect: runs are cut into _UNIT_ROWS units
    workers: int = 1

    def __post_init__(self):
        # annotations are postponed, so an int field's type is the text "int"
        for name in (f.name for f in fields(self) if f.type == "int"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a narrow numpy int overflows
        if not isinstance(self.policy, Policy):
            raise ValueError(f"policy must be a Policy, got {self.policy!r}")
        h = self.high_factor
        if h is not None and (not isinstance(h, numbers.Real) or isinstance(h, bool)):
            raise ValueError(f"high_factor must be a real number or None, got {h!r}")
        n = self.fft_size
        if n < 2 or n & (n - 1):
            raise ValueError(f"fft_size must be a power of two >= 2, got {n}")
        if not 1 <= self.data_subcarriers <= n:
            raise ValueError(f"data_subcarriers out of range: {self.data_subcarriers}")
        for name, low in _LOWER_BOUNDS.items():
            if (value := getattr(self, name)) < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for name, choices in _CHOICES.items():
            if (value := getattr(self, name)) not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {value!r}")
        if not is_real_vector(self.snr_db_grid):
            raise ValueError("snr_db_grid must be a sequence of real numbers in dB")
        if len(self.snr_db_grid) == 0:
            raise ValueError("snr_db_grid must not be empty")
        for snr_db in self.snr_db_grid:
            _linear_snr(snr_db)
        spread = self.profile().max_delay  # validates delays/powers on every mode
        if self.channel_mode == "multipath" and spread >= n:
            raise ValueError(f"delay spread {spread} does not fit an FFT of size {n}")
        self.pair()  # validates policy/high_factor feasibility

    def pair(self) -> PowerPair:
        if self.high_factor is None:
            return reference_pair(self.policy)
        return power_pair_for(self.policy, self.high_factor)

    def layout(self) -> SubcarrierLayout:
        return SubcarrierLayout(self.fft_size, self.data_subcarriers)

    def profile(self) -> ChannelProfile:
        return ChannelProfile(self.delays, self.powers_db)

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
            raise ValueError(f"snr_db = {float(snr_db)!r} is not simulatable (linear SNR 0)")
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


# rows per unit: a run is cut into units of _UNIT_ROWS symbols, rounded to
# whole coherence blocks, and each unit is seeded, drawn, scored and
# scheduled on its own. It is part of the output contract: another value
# draws other numbers. A unit's float64 (rows, n) arrays fit a core's L2 cache.
_UNIT_ROWS = 1024


def _units(total: int, block: int):
    """The run's units as (index, count): whole coherence blocks, last short."""
    step = max(block, (_UNIT_ROWS // block) * block)
    return [(index, min(step, total - start))
            for index, start in enumerate(range(0, total, step))]


def _draws(cfg: SimConfig, unit):
    """Draw one unit of a run's random part, which every SNR point shares.

    unit is an (index, count) of _units. Returns (bits, z): bits of shape
    (count, 2, n), the power and BPSK streams, and the unit in-phase
    zero-forced noise z = N(0, 1) / |H| of the data bins, float64 of shape
    (count, n), NaN on the erased bins (|H| < rx.GAIN_FLOOR), which decode
    as (0, 0).

    The model assumes a cyclic prefix covering the delay spread, so each
    data bin sees one complex gain H and zero forcing gives X + W / H, W
    the unitary DFT of white noise. The points X are real and both
    detectors read only the in-phase part, Re(W / H) = Re(W e^{-j arg H})
    / |H|, which given H is iid N(0, n0 / 2) / |H| (W is circularly
    symmetric): sqrt(n0 / 2) z, one real normal per data bin, with no
    transform. The noise density n0 is the only part of a run that depends
    on the SNR; _error_counts scales z by it and adds the points. So the
    counts read H only through |H|, and flat fading draws |H| alone:
    |CN(0, 1)| is Rayleigh with scale sqrt(1/2). The bits are unpacked
    from random bytes, 8 per byte. The tests check all this against the
    public time-domain chain (ofdm_modulate, apply_channel, add_awgn,
    ofdm_demodulate, equalize_symbols): the same bits, |H| and erasures,
    and the same noise law.
    """
    index, count = unit
    layout = cfg.layout()
    n, block = layout.n, cfg.coherence_block
    rng = np.random.default_rng([cfg.master_seed, index])
    # draw order is part of the determinism contract: bits, fading, noise
    size = count * 2 * n
    bits = np.unpackbits(rng.integers(0, 256, size=-(-size // 8), dtype=np.uint8), count=size)
    bits = bits.view(np.int8).reshape(count, 2, n)
    blocks = -(-count // block)
    magnitude = np.float64(1.0)  # the identity channel
    if cfg.channel_mode == "flat":
        magnitude = rng.rayleigh(np.sqrt(0.5), size=(blocks, n))  # |CN(0, 1)|
    elif cfg.channel_mode == "multipath":
        taps = draw_taps(cfg.profile(), blocks, rng)
        magnitude = np.abs(channel_frequency_response(taps, cfg.fft_size))[:, layout.data_bins]
    if block > 1 and magnitude.ndim:  # one row per block to one per symbol
        magnitude = magnitude[np.arange(count) // block]
    z = rng.standard_normal((count, n))
    erased = magnitude < rx.GAIN_FLOOR  # read at call time; tests move the floor
    np.divide(z, magnitude, out=z, where=~erased)
    z[erased] = np.nan
    return bits, z


def _link(pair: PowerPair | None):
    """Mapper and detectors keyed by the stream of _draws they decide:
    OFDM-SPM's {0: power, 1: BPSK} for a pair; for None, plain BPSK's
    {1: BPSK}, which sends stream 1 at unit amplitude."""
    if pair is None:
        return lambda bits: map_bpsk(bits[:, 1]), {1: detect_bpsk_bit}
    threshold = detection_threshold(pair)
    return (
        lambda bits: constellation_point(bits[:, 0], bits[:, 1], pair),
        {0: lambda s: detect_power_bit(s, threshold), 1: detect_bpsk_bit},
    )


def _error_counts(draw, sigmas, mapper, detectors) -> list[list[int]]:
    """Decision errors [scale][detector] of one (bits, z) unit.

    At noise scale sigma the decision statistic is mapper(bits) + sigma *
    z. It is NaN on the erased bins, which the detectors decode as (0, 0).
    """
    bits, z = draw
    points = mapper(bits)
    errors = []
    for sigma in sigmas:
        symbols = points + sigma * z
        errors.append([int(np.count_nonzero(detect(symbols) != bits[:, stream]))
                       for stream, detect in detectors.items()])
    return errors


def _errors(cfg: SimConfig, pairs) -> list:
    """Decision errors [pair][snr][detector] of cfg's run at every SNR of
    cfg.snr_db_grid, for pairs either all PowerPairs (two detectors each)
    or [None], the baseline (one). Each pair's noise scales (checked here)
    and link are built once, before any draw; each unit is drawn once and
    counted for every pair on the same thread, a pool thread if
    cfg.workers > 1; the counts are summed in unit order. numpy's draws
    and ufuncs release the GIL, so threads overlap and a parallel run
    stays one process."""
    sigmas = [[math.sqrt(cfg.noise_density(snr_db, pair) / 2.0)
               for snr_db in cfg.snr_db_grid] for pair in pairs]
    links = [_link(pair) for pair in pairs]

    def count(unit):
        draw = _draws(cfg, unit)
        return np.array([_error_counts(draw, scales, *link) for link, scales in zip(links, sigmas)])

    units = _units(cfg.ofdm_symbols, cfg.coherence_block)
    workers = min(cfg.workers, len(units))  # no idle threads; one runs serially
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(count, units))
    else:
        counts = [count(unit) for unit in units]
    return np.sum(counts, axis=0).tolist()


def _records(cfg: SimConfig, pair: PowerPair | None) -> list[SweepRecord]:
    """Simulate OFDM-SPM at pair, or plain OFDM-BPSK (one bit per
    subcarrier, unit energy) for None, at every SNR of cfg.snr_db_grid on
    one draw."""
    bits_per_stream = cfg.data_subcarriers * cfg.ofdm_symbols
    records = []
    for snr_db, errors in zip(cfg.snr_db_grid, _errors(cfg, [pair])[0]):
        snr = cfg.detector_snr(snr_db, pair)
        if pair is None:
            (bpsk,) = (e / bits_per_stream for e in errors)
            theory = rayleigh_bpsk_ber(snr)
            rates = (math.nan, bpsk, bpsk, math.nan, theory, theory, 1.0 - bpsk)
        else:
            power, bpsk = (e / bits_per_stream for e in errors)
            bd = ber_breakdown(snr, pair)
            rates = (power, bpsk, 0.5 * (power + bpsk), bd.ber_power, bd.ber_bpsk,
                     bd.ber_total, throughput(power, bpsk))
        records.append(SweepRecord(float(snr_db), *rates, len(errors) * bits_per_stream,
                                   cfg.master_seed))
    return records


def run_sweep(cfg: SimConfig) -> list[SweepRecord]:
    """Simulate every point of cfg.snr_db_grid, in grid order."""
    return _records(cfg, cfg.pair())


def run_baseline_ofdm_bpsk(cfg: SimConfig) -> list[SweepRecord]:
    """Baseline sweep over the same grid and draws as run_sweep."""
    return _records(cfg, None)


def monte_carlo_objective(cfg: SimConfig):
    """Objective factory for scan_levels: mean simulated ber_total over
    cfg.snr_db_grid, for each pair of a list.

    All pairs are scored on the same draws (common random numbers), which
    makes comparisons between candidates much tighter than the per-point
    noise level and keeps the scan deterministic. Each call builds every
    pair's link once, then draws each unit once and counts it for every
    pair at every SNR, through the _error_counts run_sweep uses, on
    cfg.workers threads (one pool, if any). So a pair scores the rates
    run_sweep gives at that pair's H, and no draw is kept between calls.
    """
    bits_per_stream = cfg.data_subcarriers * cfg.ofdm_symbols

    def objective(pairs) -> list[float]:
        return [float(np.mean([0.5 * (p / bits_per_stream + b / bits_per_stream)
                               for p, b in errors]))
                for errors in _errors(cfg, pairs)]

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
