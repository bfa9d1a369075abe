"""The three benchmark workloads: the commands they run and the checks on their output.

Each workload is one round of `ofdm_spm.cli.main` calls, exactly as a user
would type them. The benchmark seed becomes the program's --seed and is
the only thing that varies between runs. An operation is one SNR point of
a sweep or one candidate of a level scan; `check` returns one verdict per
operation, computed against bench/reference.py, never against the
program's own analysis module.
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

from reference import (
    REALLOC_BUDGET,
    SAVING,
    bpsk_rate,
    counting_sigma,
    scan_candidates,
    spm_rates,
)

DATA_SUBCARRIERS = 52          # default 64-point layout
SPM_BITS = 2 * DATA_SUBCARRIERS
BPSK_BITS = DATA_SUBCARRIERS
SWEEP_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
SCAN_GRID = (0.0, 10.0, 20.0, 30.0)

# Counting-noise tolerances: |sim - ref| <= Z * sigma. On the multipath
# channel the 104 bits of one symbol share one 5-tap draw; over 40 seeds
# the spread of the total BER was up to 2.9 binomial sigmas (a design
# effect of 8.4), so 12 leaves margin. On flat fading every bit sees its
# own gain and noise, so the binomial variance is exact.
Z = 5.0
DESIGN_EFFECT_MULTIPATH = 12.0
DESIGN_EFFECT_FLAT = 1.0
# the relative BER check only applies where errors are plentiful
MIN_CHECKED_BER = 1e-3
# the scan winner may sit this many H steps from the reference argmin
# (over 20 seeded scans it never sat more than one away)
WINNER_STEPS = 3
# closed-form columns the program writes must match the quadrature
THEORY_RTOL = 1e-9
EXACT = 1e-12


@dataclass
class Op:
    """One operation's output bytes (for cross-round comparison) and verdict."""

    key: bytes
    problem: str | None = None


def _rows(data: bytes):
    return list(csv.DictReader(io.StringIO(data.decode())))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _spm_row_problems(row, snr, seed, symbols, design_effect, per_stream):
    """Checks shared by every OFDM-SPM sweep row (saving policy)."""
    problems = []
    if float(row["snr_db"]) != snr or int(row["seed"]) != seed:
        problems.append(f"row is for snr {row['snr_db']} seed {row['seed']}")
    bits = SPM_BITS * symbols
    if int(row["bits_counted"]) != bits:
        problems.append(f"bits_counted {row['bits_counted']} != {bits}")
    power, bpsk, total = spm_rates(snr, *SAVING)
    for column, ref in (("ber_power_theory", power), ("ber_bpsk_theory", bpsk),
                        ("ber_total_theory", total)):
        if not _close(float(row[column]), ref, THEORY_RTOL):
            problems.append(f"{column} {row[column]} != reference {ref!r}")
    p_sim, b_sim, t_sim = (float(row[c]) for c in ("ber_power_sim", "ber_bpsk_sim", "ber_total_sim"))
    if not all(0.0 <= v <= 1.0 for v in (p_sim, b_sim, t_sim)):
        problems.append("simulated BER outside [0, 1]")
    if abs(t_sim - 0.5 * (p_sim + b_sim)) > EXACT:
        problems.append("ber_total_sim is not the mean of the two streams")
    if abs(float(row["throughput"]) - (2.0 - p_sim - b_sim)) > EXACT:
        problems.append("throughput != 2 - ber_power_sim - ber_bpsk_sim")
    if per_stream:
        for name, sim, ref in (("power", p_sim, power), ("bpsk", b_sim, bpsk)):
            tol = Z * counting_sigma(ref, bits // 2, design_effect)
            if abs(sim - ref) > tol:
                problems.append(f"ber_{name}_sim {sim!r} is {abs(sim - ref):.3g} from "
                                f"{ref:.6g} (tolerance {tol:.3g})")
    elif total >= MIN_CHECKED_BER:
        tol = Z * counting_sigma(total, bits, design_effect) / total
        gap = abs(t_sim / total - 1.0)
        if gap > tol:
            problems.append(f"ber_total_sim {t_sim!r} is {gap:.2%} from {total:.6g} "
                            f"(tolerance {tol:.2%})")
    return problems


def _baseline_row_problems(row, snr, seed, symbols):
    """Checks on one plain OFDM-BPSK baseline row."""
    problems = []
    if float(row["snr_db"]) != snr or int(row["seed"]) != seed:
        problems.append(f"row is for snr {row['snr_db']} seed {row['seed']}")
    bits = BPSK_BITS * symbols
    if int(row["bits_counted"]) != bits:
        problems.append(f"bits_counted {row['bits_counted']} != {bits}")
    if not all(math.isnan(float(row[c])) for c in ("ber_power_sim", "ber_power_theory")):
        problems.append("baseline power columns are not nan")
    ref = bpsk_rate(snr)
    for column in ("ber_bpsk_theory", "ber_total_theory"):
        if not _close(float(row[column]), ref, THEORY_RTOL):
            problems.append(f"{column} {row[column]} != reference {ref!r}")
    sim = float(row["ber_bpsk_sim"])
    if abs(float(row["ber_total_sim"]) - sim) > EXACT or abs(float(row["throughput"]) - (1.0 - sim)) > EXACT:
        problems.append("baseline total or throughput is not the BPSK rate")
    tol = Z * counting_sigma(ref, bits, DESIGN_EFFECT_FLAT)
    if abs(sim - ref) > tol:
        problems.append(f"ber_bpsk_sim {sim!r} is {abs(sim - ref):.3g} from {ref:.6g} "
                        f"(tolerance {tol:.3g})")
    if snr == 30.0 and float(row["throughput"]) > 1.0:
        problems.append(f"baseline throughput {row['throughput']} > 1")
    return problems


def _join(problems):
    return "; ".join(problems) if problems else None


def _row_key(row) -> bytes:
    return ",".join(row.values()).encode()


class Workload:
    name = ""
    workers = 1

    def __init__(self, symbols: int = 16384):
        self.symbols = symbols

    def commands(self, seed: int, out_dir, workers: int):
        """[(argv for ofdm_spm.cli.main, output file it writes)]"""
        raise NotImplementedError

    def check(self, seed: int, outputs: dict, stdout: str) -> list[Op]:
        raise NotImplementedError

    def operations(self) -> int:
        raise NotImplementedError

    def symbols_per_round(self) -> int:
        raise NotImplementedError

    def payload_bits_per_round(self) -> int:
        raise NotImplementedError

    def setup_fields(self, seed: int) -> dict:
        """SimConfig fields of this workload's first command, for the set-up probe."""
        raise NotImplementedError

    def all_failed(self, reason: str) -> list[Op]:
        return [Op(b"", reason) for _ in range(self.operations())]


def _common(symbols, workers, seed, out):
    return ["--symbols", str(symbols), "--workers", str(workers),
            "--seed", str(seed), "--out", str(out)]


def _grid_arg(grid):
    return ",".join(f"{g:g}" for g in grid)


class SweepMultipath(Workload):
    name = "sweep_multipath"

    def __init__(self, symbols: int = 16384, batch: int = 8192):
        super().__init__(symbols)
        self.batch = batch

    def commands(self, seed, out_dir, workers):
        out = out_dir / "sweep_multipath.csv"
        argv = ["sweep", "--channel", "multipath", "--policy", "saving",
                "--snr-grid", _grid_arg(SWEEP_GRID), "--batch-symbols", str(self.batch),
                *_common(self.symbols, workers, seed, out)]
        return [(argv, out)]

    def operations(self):
        return len(SWEEP_GRID)

    def symbols_per_round(self):
        return len(SWEEP_GRID) * self.symbols

    def payload_bits_per_round(self):
        return SPM_BITS * self.symbols_per_round()

    def setup_fields(self, seed):
        return dict(channel_mode="multipath", policy="saving", snr_db_grid=SWEEP_GRID,
                    ofdm_symbols=self.symbols, batch_symbols=self.batch, master_seed=seed)

    def check(self, seed, outputs, stdout):
        rows = _rows(next(iter(outputs.values())))
        if len(rows) != len(SWEEP_GRID):
            return self.all_failed(f"{len(rows)} rows, expected {len(SWEEP_GRID)}")
        ops = []
        for snr, row in zip(SWEEP_GRID, rows):
            problems = _spm_row_problems(row, snr, seed, self.symbols,
                                         DESIGN_EFFECT_MULTIPATH, per_stream=False)
            floor = {20.0: 1.90, 30.0: 1.98}.get(snr)
            if floor is not None and float(row["throughput"]) < floor:
                problems.append(f"throughput {row['throughput']} < {floor} at {snr:g} dB")
            ops.append(Op(_row_key(row), _join(problems)))
        return ops


class SweepFlatBaseline(Workload):
    name = "sweep_flat_baseline"
    workers = 2

    def commands(self, seed, out_dir, workers):
        spm, base = out_dir / "sweep_flat.csv", out_dir / "baseline_flat.csv"
        grid = ["--channel", "flat", "--snr-grid", _grid_arg(SWEEP_GRID)]
        return [
            (["sweep", "--policy", "saving", *grid, *_common(self.symbols, workers, seed, spm)], spm),
            (["baseline", *grid, *_common(self.symbols, workers, seed, base)], base),
        ]

    def operations(self):
        return 2 * len(SWEEP_GRID)

    def symbols_per_round(self):
        return 2 * len(SWEEP_GRID) * self.symbols

    def payload_bits_per_round(self):
        return (SPM_BITS + BPSK_BITS) * len(SWEEP_GRID) * self.symbols

    def setup_fields(self, seed):
        return dict(channel_mode="flat", policy="saving", snr_db_grid=SWEEP_GRID,
                    ofdm_symbols=self.symbols, workers=self.workers, master_seed=seed)

    def check(self, seed, outputs, stdout):
        spm_data, base_data = outputs.values()
        spm_rows, base_rows = _rows(spm_data), _rows(base_data)
        n = len(SWEEP_GRID)
        if len(spm_rows) != n or len(base_rows) != n:
            return self.all_failed(f"{len(spm_rows)} SPM and {len(base_rows)} baseline rows, expected {n}")
        spm_ops, base_ops = [], []
        for snr, spm, base in zip(SWEEP_GRID, spm_rows, base_rows):
            problems = _spm_row_problems(spm, snr, seed, self.symbols,
                                         DESIGN_EFFECT_FLAT, per_stream=True)
            if int(spm["bits_counted"]) != 2 * int(base["bits_counted"]):
                problems.append("SPM bits_counted is not twice the baseline's")
            if snr == 30.0 and float(spm["throughput"]) < 1.98:
                problems.append(f"SPM throughput {spm['throughput']} < 1.98 at 30 dB")
            spm_ops.append(Op(_row_key(spm), _join(problems)))

            problems = _baseline_row_problems(base, snr, seed, self.symbols)
            base_ops.append(Op(_row_key(base), _join(problems)))
        return spm_ops + base_ops


_WINNER = re.compile(r"policy=(\S+) low=(\S+) high=(\S+) objective=(\S+)")


class ScanMonteCarlo(Workload):
    name = "scan_mc"

    def __init__(self, symbols: int = 1000):
        super().__init__(symbols)
        budget = REALLOC_BUDGET
        self.candidates = scan_candidates(budget)
        self.reference = []
        for high, _ in self.candidates:
            rates = [spm_rates(snr, budget, high)[2] for snr in SCAN_GRID]
            sigma = math.sqrt(sum(counting_sigma(t, SPM_BITS * symbols, DESIGN_EFFECT_MULTIPATH) ** 2
                                  for t in rates)) / len(rates)
            self.reference.append((sum(rates) / len(rates), sigma))
        self.best = min(range(len(self.reference)), key=lambda k: self.reference[k][0])

    def commands(self, seed, out_dir, workers):
        out = out_dir / "scan_mc.csv"
        argv = ["optimize", "--policy", "realloc_opt", "--objective", "monte_carlo",
                "--channel", "multipath", "--snr-grid", _grid_arg(SCAN_GRID),
                *_common(self.symbols, workers, seed, out)]
        return [(argv, out)]

    def operations(self):
        return len(self.candidates)

    def symbols_per_round(self):
        return len(self.candidates) * len(SCAN_GRID) * self.symbols

    def payload_bits_per_round(self):
        return SPM_BITS * self.symbols_per_round()

    def setup_fields(self, seed):
        return dict(channel_mode="multipath", policy="realloc_opt", snr_db_grid=SCAN_GRID,
                    ofdm_symbols=self.symbols, master_seed=seed)

    def check(self, seed, outputs, stdout):
        rows = _rows(next(iter(outputs.values())))
        if len(rows) != len(self.candidates):
            return self.all_failed(f"{len(rows)} candidates, expected {len(self.candidates)}")
        problems = [[] for _ in rows]
        values = [float(row["objective"]) for row in rows]
        for k, row in enumerate(rows):
            (high, low), (ref, sigma) = self.candidates[k], self.reference[k]
            h, l = float(row["high"]), float(row["low"])
            if abs(h - high) > EXACT or abs(l - low) > EXACT:
                problems[k].append(f"candidate ({l!r}, {h!r}) != ({low!r}, {high!r})")
            if abs(values[k] - ref) > Z * sigma:
                problems[k].append(f"objective {values[k]!r} is {abs(values[k] / ref - 1):.2%} "
                                   f"from {ref:.6g} (tolerance {Z * sigma / ref:.2%})")
        argmin = values.index(min(values))
        match = _WINNER.search(stdout)
        if match is None:
            problems[argmin].append("no winner line on stdout")
        elif (float(match.group(3)), float(match.group(4))) != (float(rows[argmin]["high"]), values[argmin]):
            problems[argmin].append(f"winner {match.group(0)!r} is not the trace argmin")
        if abs(argmin - self.best) > WINNER_STEPS:
            problems[argmin].append(
                f"winner H={rows[argmin]['high']} is more than {WINNER_STEPS} steps "
                f"from the reference argmin H={self.candidates[self.best][0]:.2f}")
        return [Op(_row_key(row), _join(p)) for row, p in zip(rows, problems)]


WORKLOADS = {w.name: w for w in (SweepMultipath, SweepFlatBaseline, ScanMonteCarlo)}
