"""Command line interface, exercised through real subprocesses."""

from __future__ import annotations

import csv
import dataclasses
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ofdm_spm import (
    Policy,
    SimConfig,
    ber_breakdown,
    mean_ber_objective,
    power_pair_for,
    rayleigh_bpsk_ber,
    run_sweep,
    scan_levels,
    write_csv,
)
from ofdm_spm import cli, harness
from ofdm_spm.cli import OPTIONS, THEORY_COLUMNS, _build_config, _build_parser, main
from ofdm_spm.harness import CSV_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
# the subprocesses import the package from the source tree, as this process does
ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), ENV.get("PYTHONPATH")) if p)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ofdm_spm.cli", *args],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestTheory:
    def test_default_grid_to_stdout(self):
        proc = run_cli("theory")
        assert proc.returncode == 0
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert rows[0] == list(THEORY_COLUMNS)
        assert len(rows) == 8
        assert [float(r[0]) for r in rows[1:]] == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]

    def test_values_match_library(self):
        proc = run_cli("theory", "--snr-grid", "10", "--policy", "saving")
        row = list(csv.reader(io.StringIO(proc.stdout)))[1]
        pair = power_pair_for(Policy.POWER_SAVING, 1.35)
        assert float(row[THEORY_COLUMNS.index("ber_total")]) == pytest.approx(
            ber_breakdown(10.0, pair).ber_total, abs=1e-15
        )

    def test_out_file(self, tmp_path):
        out = tmp_path / "theory.csv"
        proc = run_cli("theory", "--snr-grid", "0,10", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert len(out.read_text().splitlines()) == 3

    def test_high_auto_scans_the_given_grid(self):
        grid = mean_ber_objective(SimConfig(snr_db_grid=(-10.0,)))
        high = scan_levels(Policy.POWER_SAVING, grid).pair.high
        assert high == pytest.approx(1.24)
        auto = run_cli("theory", "--high", "auto", "--snr-grid", "-10")
        fixed = run_cli("theory", "--high", repr(high), "--snr-grid", "-10")
        assert auto.returncode == 0, auto.stderr
        assert auto.stdout == fixed.stdout


# at 2, 5 and 15 dB 1 / (1 / snr) != snr, which at 2 dB moves the BPSK
# curve too, and numpy's and Python's float power convert 25 dB apart
AGREEMENT_GRID = (0.0, 2.0, 5.0, 15.0, 25.0)
THEORY_CELLS = {"ber_power_theory": "ber_power", "ber_bpsk_theory": "ber_bpsk",
                "ber_total_theory": "ber_total"}


def _table(argv, tmp_path):
    """Rows of the CSV that main(argv) writes, as dicts of cell text."""
    out = tmp_path / "table.csv"
    assert main([*argv, "--out", str(out)]) == 0
    with out.open(newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.mark.parametrize("convention", ["subcarrier", "per_bit"])
@pytest.mark.parametrize("policy", ["saving", "realloc_opt"])
class TestClosedFormAgreement:
    """Every command evaluates the closed forms at SimConfig.detector_snr."""

    def _args(self, policy, convention):
        grid = ",".join(map(str, AGREEMENT_GRID))
        return ["--policy", policy, "--snr-convention", convention, "--snr-grid", grid]

    def test_sweep_theory_cells_are_the_theory_table(self, policy, convention, tmp_path):
        args = self._args(policy, convention)
        theory = _table(["theory", *args], tmp_path)
        sweep = _table(["sweep", *args, "--channel", "flat", "--symbols", "10",
                        "--seed", "0"], tmp_path)
        for row, record in zip(theory, sweep, strict=True):
            assert record["snr_db"] == row["snr_db"]
            for cell, column in THEORY_CELLS.items():
                assert record[cell] == row[column], (row["snr_db"], cell)

    def test_simulate_theory_cells_are_the_theory_table(self, policy, convention, tmp_path):
        args = self._args(policy, convention)
        for row in _table(["theory", *args], tmp_path):
            (record,) = _table(["simulate", *args, "--snr", row["snr_db"], "--channel",
                                "flat", "--symbols", "10", "--seed", "0"], tmp_path)
            for cell, column in THEORY_CELLS.items():
                assert record[cell] == row[column], (row["snr_db"], cell)

    def test_baseline_theory_is_the_bpsk_curve(self, policy, convention, tmp_path):
        baseline = _table(["baseline", *self._args(policy, convention), "--channel",
                           "flat", "--symbols", "10", "--seed", "0"], tmp_path)
        for snr_db, record in zip(AGREEMENT_GRID, baseline, strict=True):
            theory = rayleigh_bpsk_ber(10.0 ** (snr_db / 10.0))
            assert float(record["ber_bpsk_theory"]) == theory, snr_db

    def test_objective_is_the_mean_theory_total(self, policy, convention, tmp_path):
        theory = _table(["theory", *self._args(policy, convention)], tmp_path)
        cfg = SimConfig(policy=Policy(policy), snr_convention=convention,
                        snr_db_grid=AGREEMENT_GRID)
        mean_total = np.mean([float(row["ber_total"]) for row in theory])
        assert mean_ber_objective(cfg)([cfg.pair()]) == [mean_total]


class TestSimulate:
    def test_seed_required(self):
        proc = run_cli("simulate", "--snr", "10")
        assert proc.returncode == 2
        assert "--seed" in proc.stderr

    def test_noiseless_identity_point(self, tmp_path):
        out = tmp_path / "point.csv"
        proc = run_cli(
            "simulate",
            "--snr", "inf",
            "--channel", "identity",
            "--symbols", "200",
            "--seed", "0",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader(out.open()))
        assert rows[0] == list(CSV_COLUMNS)
        rec = dict(zip(rows[0], rows[1]))
        assert float(rec["ber_total_sim"]) == 0.0
        assert float(rec["throughput"]) == 2.0
        assert int(rec["bits_counted"]) == 2 * 52 * 200


    def test_equals_the_sweep_row(self, tmp_path):
        # every SNR point of a sweep is counted on the same draw, so a
        # point is the sweep's row at its SNR, byte for byte
        point, sweep = tmp_path / "point.csv", tmp_path / "sweep.csv"
        common = ["--seed", "1", "--symbols", "200"]
        assert run_cli("simulate", "--snr", "10", *common, "--out", str(point)).returncode == 0
        assert run_cli("sweep", *common, "--out", str(sweep)).returncode == 0
        (row,) = point.read_bytes().splitlines()[1:]
        rows = sweep.read_bytes().splitlines()[1:]
        assert SimConfig().snr_db_grid[2] == 10.0 and row == rows[2]


class TestWorkers:
    @pytest.mark.parametrize("command", ["sweep", "baseline", "simulate"])
    def test_csv_bytes_do_not_depend_on_the_worker_count(self, command, tmp_path):
        # 700 symbols in batches of 128 is six batches for up to 3 workers
        argv = [command, "--seed", "9", "--symbols", "700", "--batch-symbols", "128",
                "--coherence-block", "4", "--snr-grid", "0,10,20"]
        if command == "simulate":
            argv += ["--snr", "10"]
        outputs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"{workers}.csv"
            assert main([*argv, "--workers", str(workers), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestSweep:
    def test_matches_library_bytes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "sweep",
            "--channel", "flat",
            "--symbols", "300",
            "--snr-grid", "5,15",
            "--seed", "3",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        cfg = SimConfig(
            channel_mode="flat", ofdm_symbols=300, snr_db_grid=(5.0, 15.0), master_seed=3
        )
        buf = io.StringIO()
        write_csv(run_sweep(cfg), buf)
        assert out.read_text() == buf.getvalue()

    def test_config_file_with_cli_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "channel_mode = flat\n"
            "ofdm_symbols = 200\n"
            "snr_db_grid = 5, 15\n"
            "master_seed = 3\n"
            "policy = realloc_nonopt\n"
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        a = run_cli("sweep", "--config", str(cfg_file), "--out", str(out_a))
        assert a.returncode == 0, a.stderr
        # explicit flag wins over the file value
        b = run_cli(
            "sweep", "--config", str(cfg_file), "--seed", "4", "--out", str(out_b)
        )
        assert b.returncode == 0, b.stderr
        rows_a = out_a.read_text().splitlines()
        rows_b = out_b.read_text().splitlines()
        assert rows_a[1].split(",")[-1] == "3"
        assert rows_b[1].split(",")[-1] == "4"
        assert rows_a[1] != rows_b[1]

    def test_unknown_config_key_fails(self, tmp_path):
        # guard_count is not a key: the guards are fft_size - data_subcarriers
        for line in ("fft_sizes = 64", "guard_count = 12"):
            cfg_file = tmp_path / "bad.cfg"
            cfg_file.write_text(line + "\n")
            proc = run_cli("sweep", "--config", str(cfg_file), "--seed", "0")
            assert proc.returncode == 2
            assert proc.stderr.count("\n") == 1 and "unknown key" in proc.stderr

    def test_invalid_value_fails_cleanly(self, tmp_path):
        proc = run_cli("sweep", "--seed", "0", "--delays", "0,3,5,6,64")
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        # a bad flag value gets the one-line error a config file gets
        for flag in ("--channel", "--snr-convention", "--symbols", "--policy"):
            proc = run_cli("sweep", "--seed", "0", flag, "bogus")
            assert proc.returncode == 2, flag
            assert proc.stderr.count("\n") == 1 and "bogus" in proc.stderr
        # a value that does not parse names its flag, or its file line and key
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("ofdm_symbols = x\n")
        for args, prefix in (
            (("sweep", "--seed", "0", "--symbols", "bogus"), "--symbols: "),
            (("theory", "--high", "abc"), "--high: "),
            (("optimize", "--h-start", "abc"), "--h-start: "),
            (("optimize", "--h-step", "abc"), "--h-step: "),
            (("simulate", "--seed", "0", "--snr", "abc"), "--snr: "),
            (("sweep", "--seed", "0", "--config", str(cfg_file)), f"{cfg_file}:1: ofdm_symbols: "),
        ):
            proc = run_cli(*args)
            assert proc.returncode == 2, args
            assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: " + prefix)
        cfg_file.write_text("high_factor = abc\n")
        proc = run_cli("theory", "--config", str(cfg_file))
        assert proc.stderr.startswith(f"error: {cfg_file}:1: high_factor: ")

    def test_nan_snr_fails_cleanly(self):
        proc = run_cli("sweep", "--snr-grid", "nan", "--seed", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "NaN" in proc.stderr

    def test_snr_past_the_float_range_fails_cleanly(self):
        # --high auto scans only a grid SimConfig has accepted
        commands = (
            ("theory",),
            ("theory", "--high", "auto"),
            ("sweep", "--seed", "1"),
            ("simulate", "--seed", "1"),
        )
        for command in commands:
            grid = ("--snr", "4000") if command[0] == "simulate" else ("--snr-grid", "4000")
            proc = run_cli(*command, *grid)
            assert proc.returncode == 2, command
            assert proc.stdout == ""
            assert proc.stderr.count("\n") == 1 and "overflows" in proc.stderr

    def test_non_finite_tap_power_fails_cleanly(self):
        proc = run_cli("sweep", "--powers-db", "0,inf,-17,-21,-25", "--seed", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "finite" in proc.stderr

    def test_malformed_delays_fail_on_a_flat_channel(self):
        # flat fading never reads the taps, but the config still checks them
        proc = run_cli("sweep", "--channel", "flat", "--delays", "5,3", "--powers-db", "0",
                       "--seed", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: delays and powers_db must be 1-D and equally long\n"

    def test_tap_powers_far_from_0_db_scale_out(self, tmp_path):
        # only the spacing of the powers counts, however far from 0 dB they sit
        outs = []
        for powers in ("-4000,-4000,-4000,-4000,-4000", "0,0,0,0,0"):
            out = tmp_path / f"sweep{len(outs)}.csv"
            proc = run_cli(
                "sweep",
                f"--powers-db={powers}",
                "--symbols", "100",
                "--snr-grid", "10",
                "--seed", "1",
                "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestBaseline:
    def test_baseline_runs(self, tmp_path):
        out = tmp_path / "base.csv"
        proc = run_cli(
            "baseline",
            "--channel", "identity",
            "--symbols", "100",
            "--snr-grid", "inf",
            "--seed", "1",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rec = dict(zip(CSV_COLUMNS, out.read_text().splitlines()[1].split(",")))
        assert rec["ber_power_sim"] == "nan"
        assert float(rec["throughput"]) == 1.0


class TestOptimize:
    def test_closed_form_scan(self):
        proc = run_cli("optimize", "--policy", "saving")
        assert proc.returncode == 0, proc.stderr
        assert "policy=saving" in proc.stdout
        assert "high=1.35" in proc.stdout

    def test_trace_file(self, tmp_path):
        out = tmp_path / "trace.csv"
        proc = run_cli(
            "optimize", "--policy", "realloc_opt", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["high", "low", "objective"]
        res = scan_levels(Policy.REALLOC_OPTIMIZED)
        assert len(rows) - 1 == res.trace_high.size
        assert float(rows[1][0]) == pytest.approx(res.trace_high[0])

    def test_monte_carlo_needs_seed(self):
        proc = run_cli("optimize", "--objective", "monte_carlo")
        assert proc.returncode == 2
        assert "--seed" in proc.stderr

    def test_monte_carlo_runs(self):
        proc = run_cli(
            "optimize",
            "--objective", "monte_carlo",
            "--seed", "5",
            "--channel", "flat",
            "--symbols", "200",
            "--snr-grid", "10",
            "--h-start", "1.2",
            "--h-step", "0.1",
        )
        assert proc.returncode == 0, proc.stderr
        assert "objective=" in proc.stdout

    def test_nan_scan_step_fails_cleanly(self):
        # a NaN H is never past the budget, and a step absorbed by H never
        # reaches it, so the walk would not end
        for flag, value, message in (
            ("--h-step", "nan", "must be positive"),
            ("--h-start", "nan", "must be positive"),
            ("--h-step", "1e-300", "more than the cap"),
        ):
            proc = run_cli("optimize", flag, value)
            assert proc.returncode == 2, flag
            assert proc.stdout == ""
            assert proc.stderr.count("\n") == 1 and message in proc.stderr

    @pytest.mark.parametrize("step", ["nan", "0", "1e-300"])
    def test_bad_step_fails_before_the_draws(self, step, monkeypatch, capsys):
        drawn = []
        monkeypatch.setattr(harness, "_draws", lambda *args: drawn.append(args))
        argv = ["optimize", "--objective", "monte_carlo", "--seed", "1", "--h-step", step]
        assert main(argv) == 2
        assert drawn == []
        assert capsys.readouterr().err.count("\n") == 1

    def test_bad_policy_rejected(self):
        proc = run_cli("optimize", "--policy", "psaving")
        assert proc.returncode == 2

    def test_monte_carlo_takes_policy_from_config(self, tmp_path):
        cfg_file = tmp_path / "f.cfg"
        cfg_file.write_text("policy = realloc_opt\n")
        proc = run_cli(
            "optimize", "--objective", "monte_carlo", "--config", str(cfg_file),
            "--seed", "1", "--symbols", "50", "--snr-grid", "10",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("policy=realloc_opt ")

    def test_closed_form_takes_policy_from_config(self, tmp_path):
        cfg_file = tmp_path / "f.cfg"
        cfg_file.write_text("policy = realloc_opt\n")
        from_file = run_cli("optimize", "--config", str(cfg_file))
        assert from_file.returncode == 0, from_file.stderr
        assert from_file.stdout == run_cli("optimize", "--policy", "realloc_opt").stdout
        # an explicit flag still wins over the file
        flag = run_cli("optimize", "--config", str(cfg_file), "--policy", "saving")
        assert "policy=saving " in flag.stdout and "high=1.35" in flag.stdout

    def test_closed_form_takes_grid_from_config(self, tmp_path):
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text("snr_db_grid = -10\n")
        from_file = run_cli("optimize", "--config", str(cfg_file))
        assert from_file.returncode == 0, from_file.stderr
        assert "high=1.24" in from_file.stdout
        assert from_file.stdout == run_cli("optimize", "--snr-grid", "-10").stdout


# a valid value other than the default for every SimConfig field
OPTION_SAMPLES = {
    "fft_size": "128",
    "data_subcarriers": "40",
    "ofdm_symbols": "10",
    "policy": "realloc_opt",
    "high_factor": "1.3",
    "snr_db_grid": "5, 15",
    "channel_mode": "flat",
    "delays": "0, 1, 2, 3, 4",
    "powers_db": "0, -1, -2, -3, -4",
    "coherence_block": "4",
    "master_seed": "9",
    "snr_convention": "per_bit",
    "batch_symbols": "512",
    "workers": "2",
}


class TestOptionTable:
    def test_one_entry_and_one_flag_per_field(self):
        assert list(OPTIONS) == [field.name for field in dataclasses.fields(SimConfig)]
        flags = [flag for flag, _, _ in OPTIONS.values()]
        assert len(set(flags)) == len(flags)

    @pytest.mark.parametrize("field", dataclasses.fields(SimConfig), ids=lambda f: f.name)
    def test_flag_and_config_key_agree(self, field, tmp_path):
        flag, _, _ = OPTIONS[field.name]
        text = OPTION_SAMPLES[field.name]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{field.name} = {text}\n")
        parser = _build_parser()
        from_flag = _build_config(parser.parse_args(["sweep", f"{flag}={text}"]))
        from_file = _build_config(parser.parse_args(["sweep", "--config", str(cfg_file)]))
        assert from_flag == from_file
        assert getattr(from_flag, field.name) != getattr(SimConfig(), field.name)


class TestEntryPoint:
    @pytest.mark.skipif(
        shutil.which("ofdm-spm") is None,
        reason="ofdm-spm is not on PATH; it exists only after `pip install -e .`",
    )
    def test_console_script_installed(self):
        proc = subprocess.run(
            ["ofdm-spm", "theory", "--snr-grid", "10"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(",".join(THEORY_COLUMNS[:2]))

    def test_console_script_target(self):
        """The [project.scripts] entry, run the way the installed wrapper runs it."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = ROOT / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["ofdm-spm"] == "ofdm_spm.cli:main"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from ofdm_spm.cli import main; sys.exit(main())",
                "theory",
                "--snr-grid",
                "10",
            ],
            env=ENV,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(",".join(THEORY_COLUMNS[:2]))
