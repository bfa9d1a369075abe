"""Command-line front end.

Subcommands: theory (closed-form curves), simulate (one Monte-Carlo
point), sweep (Monte-Carlo grid), baseline (plain OFDM-BPSK sweep) and
optimize (level scan). Options can also come from a flat key = value
config file via --config; explicit command-line flags win over the file.
"""
from __future__ import annotations

import argparse
import csv
import sys

from .analysis import ber_breakdown, throughput
from .core import Policy
from .harness import (
    SimConfig,
    monte_carlo_objective,
    run_baseline_ofdm_bpsk,
    run_point,
    run_sweep,
    write_csv,
)
from .optimize import mean_ber_objective, scan_levels

THEORY_COLUMNS = (
    "snr_db",
    "ber_power",
    "ber_bpsk_low",
    "ber_bpsk_high",
    "ber_bpsk",
    "ber_total",
    "throughput",
)


def _floats(text: str) -> tuple:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _ints(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _policy(text: str) -> Policy:
    try:
        return Policy(text)
    except ValueError:
        choices = ", ".join(p.value for p in Policy)
        raise ValueError(f"unknown policy {text!r} (choices: {choices})") from None


# how raw config-file strings become SimConfig field values
FIELD_PARSERS = {
    "fft_size": int,
    "data_subcarriers": int,
    "cp_len": int,
    "ofdm_symbols": int,
    "policy": _policy,
    "high_factor": str,  # float or the word "auto", resolved later
    "snr_db_grid": _floats,
    "channel_mode": str,
    "delays": _ints,
    "powers_db": _floats,
    "coherence_block": int,
    "master_seed": int,
    "snr_convention": str,
    "batch_symbols": int,
    "workers": int,
}


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in FIELD_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = FIELD_PARSERS[key](text.strip())
    return values


def _add_common_options(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--fft-size", dest="fft_size", type=int)
    parser.add_argument("--data-subcarriers", dest="data_subcarriers", type=int)
    parser.add_argument("--cp-len", dest="cp_len", type=int)
    parser.add_argument("--symbols", dest="ofdm_symbols", type=int,
                        help="OFDM symbols per SNR point")
    parser.add_argument("--policy", dest="policy", type=_policy,
                        help="saving | realloc_nonopt | realloc_opt")
    parser.add_argument("--high", dest="high_factor",
                        help="high level H, or 'auto' to pick it by scan")
    parser.add_argument("--snr-grid", dest="snr_db_grid", type=_floats,
                        help="comma-separated dB values")
    parser.add_argument("--channel", dest="channel_mode",
                        choices=("multipath", "flat", "identity"))
    parser.add_argument("--delays", dest="delays", type=_ints,
                        help="comma-separated tap delays in samples")
    parser.add_argument("--powers-db", dest="powers_db", type=_floats,
                        help="comma-separated tap powers in dB")
    parser.add_argument("--coherence-block", dest="coherence_block", type=int,
                        help="OFDM symbols per channel realization")
    parser.add_argument("--snr-convention", dest="snr_convention",
                        choices=("subcarrier", "per_bit"))
    parser.add_argument("--batch-symbols", dest="batch_symbols", type=int)
    parser.add_argument("--workers", dest="workers", type=int)
    parser.add_argument("--seed", dest="master_seed", type=int,
                        help="master seed for reproducible runs")
    parser.add_argument("--out", help="output CSV path (default: stdout)")


def _build_config(args, needs_seed: bool = False) -> SimConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    for name in FIELD_PARSERS:
        given = getattr(args, name, None)
        if given is not None:
            values[name] = given
    if needs_seed and "master_seed" not in values:
        # simulations must never run on an implicit seed
        raise ValueError(
            "--seed is required (on the command line or as master_seed "
            "in the config file)"
        )
    high = values.get("high_factor")
    if isinstance(high, str):
        if high == "auto":
            policy = values.get("policy", SimConfig.policy)
            grid = values.get("snr_db_grid", SimConfig.snr_db_grid)
            values["high_factor"] = scan_levels(policy, mean_ber_objective(grid)).pair.high
        else:
            values["high_factor"] = float(high)
    return SimConfig(**values)


def _emit(args, write) -> int:
    """Hand write() the --out file, or stdout when --out is not given."""
    if not args.out:
        write(sys.stdout)
        return 0
    with open(args.out, "w", newline="") as handle:
        write(handle)
    return 0


def _cmd_theory(args) -> int:
    cfg = _build_config(args)
    pair = cfg.pair()
    rows = []
    for snr_db in cfg.snr_db_grid:
        snr = 10.0 ** (snr_db / 10.0)
        bd = ber_breakdown(snr, pair)
        rows.append([
            repr(float(snr_db)),
            repr(bd.ber_power),
            repr(bd.ber_bpsk_low),
            repr(bd.ber_bpsk_high),
            repr(bd.ber_bpsk),
            repr(bd.ber_total),
            repr(throughput(bd.ber_power, bd.ber_bpsk)),
        ])

    def write(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(THEORY_COLUMNS)
        writer.writerows(rows)

    return _emit(args, write)


# how each simulation command turns its config into sweep records
_RECORDS = {
    "simulate": lambda cfg, args: [run_point(cfg, args.snr)],
    "sweep": lambda cfg, args: run_sweep(cfg),
    "baseline": lambda cfg, args: run_baseline_ofdm_bpsk(cfg),
}


def _cmd_records(args) -> int:
    cfg = _build_config(args, needs_seed=True)
    records = _RECORDS[args.command](cfg, args)
    return _emit(args, lambda handle: write_csv(records, handle))


def _cmd_optimize(args) -> int:
    monte_carlo = args.objective == "monte_carlo"
    cfg = _build_config(args, needs_seed=monte_carlo)
    if monte_carlo:
        objective = monte_carlo_objective(cfg)
    else:
        objective = mean_ber_objective(cfg.snr_db_grid)
    result = scan_levels(cfg.policy, objective, h_start=args.h_start, h_step=args.h_step)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("high", "low", "objective"))
            for h, l, v in zip(result.trace_high, result.trace_low,
                               result.trace_objective):
                writer.writerow((repr(float(h)), repr(float(l)), repr(float(v))))
    print(
        f"policy={cfg.policy.value} low={result.pair.low!r} "
        f"high={result.pair.high!r} objective={result.objective!r}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdm-spm",
        description="OFDM subcarrier power modulation: closed forms and Monte-Carlo",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="closed-form BER/throughput curves")
    _add_common_options(p)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("simulate", help="Monte-Carlo at a single SNR")
    _add_common_options(p)
    p.add_argument("--snr", type=float, required=True, help="SNR point in dB")
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("sweep", help="Monte-Carlo over the SNR grid")
    _add_common_options(p)
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("baseline", help="plain OFDM-BPSK reference sweep")
    _add_common_options(p)
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("optimize", help="scan H for the best (L, H) pair")
    _add_common_options(p)
    p.add_argument("--h-start", type=float, default=1.05)
    p.add_argument("--h-step", type=float, default=0.01)
    p.add_argument("--objective", choices=("closed_form", "monte_carlo"),
                   default="closed_form")
    p.set_defaults(func=_cmd_optimize)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
