"""Command-line front end.

Subcommands: theory (closed-form curves), simulate (one Monte-Carlo
point), sweep (Monte-Carlo grid), baseline (plain OFDM-BPSK sweep) and
optimize (level scan). Options can also come from a flat key = value
config file via --config; explicit command-line flags win over the file.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .analysis import BerBreakdown, ber_breakdown, throughput
from .core import Policy
from .harness import (
    CHANNEL_MODES,
    SNR_CONVENTIONS,
    SimConfig,
    monte_carlo_objective,
    run_baseline_ofdm_bpsk,
    run_sweep,
    write_csv,
    write_table,
)
from .optimize import mean_ber_objective, scan_levels

THEORY_COLUMNS = ("snr_db", *(f.name for f in dataclasses.fields(BerBreakdown)), "throughput")


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


def _high(text: str):
    return text if text == "auto" else float(text)


def _parse(parse, text, where: str):
    """parse(text), naming where the text came from in an error."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


# SimConfig field -> (command-line flag, text parser, help); the config
# file reads the same field names as keys. Flag and key text go through
# the same parser, so a bad value gives the same one-line error from both.
OPTIONS = {
    "fft_size": ("--fft-size", int, None),
    "data_subcarriers": ("--data-subcarriers", int, None),
    "ofdm_symbols": ("--symbols", int, "OFDM symbols per SNR point"),
    "policy": ("--policy", _policy, " | ".join(p.value for p in Policy)),
    # the word "auto" is resolved by _build_config
    "high_factor": ("--high", _high, "high level H, or 'auto' to pick it by scan"),
    "snr_db_grid": ("--snr-grid", _floats, "comma-separated dB values"),
    "channel_mode": ("--channel", str, " | ".join(CHANNEL_MODES)),
    "delays": ("--delays", _ints, "comma-separated tap delays in samples"),
    "powers_db": ("--powers-db", _floats, "comma-separated tap powers in dB"),
    "coherence_block": ("--coherence-block", int, "OFDM symbols per channel realization"),
    "master_seed": ("--seed", int, "master seed for reproducible runs"),
    "snr_convention": ("--snr-convention", str, " | ".join(SNR_CONVENTIONS)),
    "batch_symbols": ("--batch-symbols", int, None),
    "workers": ("--workers", int, None),
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
            if key not in OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse(OPTIONS[key][1], text.strip(), f"{path}:{lineno}: {key}")
    return values


def _add_common_options(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key = value config file")
    for name, (flag, _, text) in OPTIONS.items():
        parser.add_argument(flag, dest=name, help=text)
    parser.add_argument("--out", help="output CSV path (default: stdout)")


def _build_config(args, needs_seed: bool = False) -> SimConfig:
    values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    for name, (flag, parse, _) in OPTIONS.items():
        given = getattr(args, name, None)
        if given is not None:
            values[name] = _parse(parse, given, flag)
    if needs_seed and "master_seed" not in values:
        # simulations must never run on an implicit seed
        raise ValueError(
            "--seed is required (on the command line or as master_seed "
            "in the config file)"
        )
    high = values.get("high_factor")
    if high == "auto":
        values["high_factor"] = None
    cfg = SimConfig(**values)
    if high == "auto":
        # scan only once SimConfig has validated the policy and the grid
        best = scan_levels(cfg.policy, mean_ber_objective(cfg)).pair
        cfg = dataclasses.replace(cfg, high_factor=best.high)
    return cfg


def _cmd_theory(args) -> int:
    cfg = _build_config(args)
    pair = cfg.pair()
    bd = ber_breakdown([cfg.detector_snr(snr_db, pair) for snr_db in cfg.snr_db_grid], pair)
    tp = throughput(bd.ber_power, bd.ber_bpsk)
    columns = (cfg.snr_db_grid, *dataclasses.astuple(bd), tp)
    write_table(args.out or sys.stdout, THEORY_COLUMNS, zip(*columns))
    return 0


# how each simulation command turns its config into sweep records
_RECORDS = {
    "simulate": lambda cfg, args: run_sweep(
        dataclasses.replace(cfg, snr_db_grid=(_parse(float, args.snr, "--snr"),))),
    "sweep": lambda cfg, args: run_sweep(cfg),
    "baseline": lambda cfg, args: run_baseline_ofdm_bpsk(cfg),
}


def _cmd_records(args) -> int:
    cfg = _build_config(args, needs_seed=True)
    records = _RECORDS[args.command](cfg, args)
    write_csv(records, args.out or sys.stdout)
    return 0


def _cmd_optimize(args) -> int:
    h_start = _parse(float, args.h_start, "--h-start")
    h_step = _parse(float, args.h_step, "--h-step")
    monte_carlo = args.objective == "monte_carlo"
    cfg = _build_config(args, needs_seed=monte_carlo)
    if monte_carlo:
        objective = monte_carlo_objective(cfg)
    else:
        objective = mean_ber_objective(cfg)
    result = scan_levels(cfg.policy, objective, h_start=h_start, h_step=h_step)
    if args.out:
        trace = zip(result.trace_high, result.trace_low, result.trace_objective)
        write_table(args.out, ("high", "low", "objective"), trace)
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
    p.add_argument("--snr", required=True, help="SNR point in dB")
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("sweep", help="Monte-Carlo over the SNR grid")
    _add_common_options(p)
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("baseline", help="plain OFDM-BPSK reference sweep")
    _add_common_options(p)
    p.set_defaults(func=_cmd_records)

    p = sub.add_parser("optimize", help="scan H for the best (L, H) pair")
    _add_common_options(p)
    p.add_argument("--h-start", default=1.05)
    p.add_argument("--h-step", default=0.01)
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
