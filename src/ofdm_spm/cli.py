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


def _comma_list(parse):
    """A parser of comma-separated text into a tuple of parse(part); an
    empty part, such as the middle of "0,,10", fails."""
    def parse_list(text: str) -> tuple:
        parts = text.split(",")
        if not all(part.strip() for part in parts):
            raise ValueError(f"empty item in {text!r}")
        return tuple(map(parse, parts))
    return parse_list


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
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = _parse(OPTIONS[key][1], text.strip(), f"{path}:{lineno}: {key}")
    return values


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
    if (snr := getattr(args, "snr", None)) is not None:
        # simulate's point, after the scan: --high auto scans the configured grid
        cfg = dataclasses.replace(cfg, snr_db_grid=(_parse(float, snr, "--snr"),))
    return cfg


def _cmd_theory(args):
    cfg = _build_config(args)
    pair = cfg.pair()
    bd = ber_breakdown([cfg.detector_snr(snr_db, pair) for snr_db in cfg.snr_db_grid], pair)
    tp = throughput(bd.ber_power, bd.ber_bpsk)
    columns = (cfg.snr_db_grid, *dataclasses.astuple(bd), tp)
    write_table(args.out or sys.stdout, THEORY_COLUMNS, zip(*columns))


def _cmd_records(args, run):
    write_csv(run(_build_config(args, needs_seed=True)), args.out or sys.stdout)


def _cmd_optimize(args):
    h_start = _parse(float, args.h_start, "--h-start")
    h_step = _parse(float, args.h_step, "--h-step")
    monte_carlo = args.objective == "monte_carlo"
    cfg = _build_config(args, needs_seed=monte_carlo)
    objective = (monte_carlo_objective if monte_carlo else mean_ber_objective)(cfg)
    result = scan_levels(cfg.policy, objective, h_start=h_start, h_step=h_step)
    if args.out:
        trace = zip(result.trace_high, result.trace_low, result.trace_objective)
        write_table(args.out, ("high", "low", "objective"), trace)
    print(
        f"policy={cfg.policy.value} low={result.pair.low!r} "
        f"high={result.pair.high!r} objective={result.objective!r}"
    )


# SimConfig field -> (command-line flag, text parser, help); the config
# file reads the same field names as keys. Flag and key text go through
# the same parser, so a bad value gives the same one-line error from both.
OPTIONS = {
    "fft_size": ("--fft-size", int, "FFT size, a power of two"),
    "data_subcarriers": ("--data-subcarriers", int, "data subcarriers; the rest are guards"),
    "ofdm_symbols": ("--symbols", int, "OFDM symbols per SNR point"),
    "policy": ("--policy", _policy, " | ".join(p.value for p in Policy)),
    # the word "auto" is resolved by _build_config
    "high_factor": ("--high", _high, "high level H, or 'auto' to pick it by scan"),
    "snr_db_grid": ("--snr-grid", _comma_list(float), "comma-separated dB values"),
    "channel_mode": ("--channel", str, " | ".join(CHANNEL_MODES)),
    "delays": ("--delays", _comma_list(int), "comma-separated tap delays in samples"),
    "powers_db": ("--powers-db", _comma_list(float), "comma-separated tap powers in dB"),
    "coherence_block": ("--coherence-block", int, "OFDM symbols per channel realization"),
    "master_seed": ("--seed", int, "master seed for reproducible runs"),
    "snr_convention": ("--snr-convention", str, " | ".join(SNR_CONVENTIONS)),
    "batch_symbols": ("--batch-symbols", int,
                      "no effect, kept for existing configs: runs are seeded in 1024-symbol units"),
    "workers": ("--workers", int,
                "threads that draw and count units; results do not depend on it"),
}

# subcommand -> (help, handler, {flag: add_argument keywords} of the flags
# only it takes), after --config, the OPTIONS flags and --out, which all take;
# the lambdas look the library up at call time, so a wrapped cli name is seen
COMMANDS = {
    "theory": ("closed-form BER/throughput curves", _cmd_theory, {}),
    "simulate": ("Monte-Carlo at a single SNR", lambda args: _cmd_records(args, run_sweep),
                 {"--snr": dict(required=True, help="SNR point in dB")}),
    "sweep": ("Monte-Carlo over the SNR grid", lambda args: _cmd_records(args, run_sweep), {}),
    "baseline": ("plain OFDM-BPSK reference sweep",
                 lambda args: _cmd_records(args, run_baseline_ofdm_bpsk), {}),
    "optimize": ("scan H for the best (L, H) pair", _cmd_optimize, {
        "--h-start": dict(default=1.05, help="first H of the scan"),
        "--h-step": dict(default=0.01, help="step in H between candidates"),
        "--objective": dict(choices=("closed_form", "monte_carlo"), default="closed_form",
                            help="score candidates by closed form or by simulation"),
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    for name, (flag, _, text) in OPTIONS.items():
        common.add_argument(flag, dest=name, help=text)
    common.add_argument("--out", help="output CSV path (default: stdout)")
    parser = argparse.ArgumentParser(
        prog="ofdm-spm",
        description="OFDM subcarrier power modulation: closed forms and Monte-Carlo",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=text, parents=[common])
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        COMMANDS[args.command][1](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
