"""Self-test of the benchmark on cut-down workloads.

    python3 bench/selftest.py

Checks that
  * every workload runs to its end with no failed operation, untraced and
    traced, and prints every metric;
  * the checks reject corrupted results: BERs scaled in an output file,
    and a program whose power-detection threshold has been moved;
  * the tracer reports a removed program attribute as absent, and the self
    times still add up to the traced wall time;
  * the two-worker workload writes byte-identical CSVs on two runs and on
    a workers=1 run, the program's determinism contract.
Exits 0 when every check passes. Takes about a minute.
"""
from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import ofdm_spm.harness  # noqa: E402
from layers import PER_LAYER, TARGETS  # noqa: E402
from spans import Target  # noqa: E402
from workloads import ScanMonteCarlo, SweepFlatBaseline, SweepMultipath  # noqa: E402

SEEDS = (0, 1, 2)
OUT = run.OUT / "selftest"
RESULTS = []


def small():
    return [SweepMultipath(symbols=2048, batch=1024), SweepFlatBaseline(symbols=2048),
            ScanMonteCarlo(symbols=500)]


def report(name, ok, detail=""):
    RESULTS.append(ok)
    print(f"selftest {name}: {'PASS' if ok else 'FAIL'}{' (' + detail + ')' if detail else ''}")


def out_dir(name):
    path = OUT / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def check_runs_to_end():
    for workload in small():
        for seed in SEEDS:
            d = out_dir(f"{workload.name}-{seed}")
            res = run.result(*run.plain_run(workload, seed, 0, d), run.END_TO_END)
            ok = (res["correct"] and res["failed"] == 0 and res["attempted"] == workload.operations()
                  and set(res["metrics"]) == set(run.END_TO_END)
                  and all(m["value"] > 0 for m in res["metrics"].values()))
            report(f"{workload.name} seed {seed} untraced", ok, f"{res['failed']} of {res['attempted']} failed")
        res = run.result(*run.traced_run(workload, SEEDS[0], 0, d), PER_LAYER)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        expect = {
            "sweep_multipath": m["channel.convolve_s"] > 0 and m["transforms.calls"] == 3 * 14,
            "sweep_flat_baseline": (m["channel.convolve_s"] == 0 == m["channel.freq_response_s"]
                                    and m["harness.pool_starts"] == 2 and m["transforms.calls"] == 2 * 14),
            "scan_mc": m["optimize.candidates"] == 58 and m["harness.points"] == 58 * 4,
        }[workload.name]
        ok = res["correct"] and res["failed"] == 0 and set(m) == set(PER_LAYER) and expect
        report(f"{workload.name} traced", ok, f"{res['failed']} of {res['attempted']} failed")


def _scaled(data: bytes, row_index: int, factor: float, columns, total=None) -> bytes:
    """Scale `columns` of one CSV row, keeping the row's own identities intact."""
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    row = rows[row_index]
    for c in columns:
        row[c] = repr(float(row[c]) * factor)
    if total is not None:
        total(row)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode()


def _spm_identities(row):
    p, b = float(row["ber_power_sim"]), float(row["ber_bpsk_sim"])
    row["ber_total_sim"] = repr(0.5 * (p + b))
    row["throughput"] = repr(2.0 - p - b)


def _bpsk_identities(row):
    row["ber_total_sim"] = row["ber_bpsk_sim"]
    row["throughput"] = repr(1.0 - float(row["ber_bpsk_sim"]))


def _outputs(workload, seed, d):
    r = run.run_round(workload, seed, d, workload.workers)
    problems = [op.problem for op in r.ops if op.problem]
    if problems:
        raise RuntimeError(f"{workload.name} failed before any corruption: {problems}")
    return r, {path: path.read_bytes() for _, path in workload.commands(seed, d, workload.workers)}


def check_corrupted_outputs():
    seed = SEEDS[0]
    multipath, flat, scan = small()
    cases = []
    _, out = _outputs(multipath, seed, out_dir("corrupt-multipath"))
    (path, data), = out.items()
    cases.append(("multipath BER x1.2 at 0 dB", multipath, {path: _scaled(
        data, 0, 1.2, ("ber_power_sim", "ber_bpsk_sim"), _spm_identities)}, "", {0}))
    _, out = _outputs(flat, seed, out_dir("corrupt-flat"))
    (spm, spm_data), (base, base_data) = out.items()
    cases.append(("flat SPM power BER x1.2 at 10 dB", flat, {spm: _scaled(
        spm_data, 2, 1.2, ("ber_power_sim",), _spm_identities), base: base_data}, "", {2}))
    cases.append(("baseline BER x1.2 at 5 dB", flat, {spm: spm_data, base: _scaled(
        base_data, 1, 1.2, ("ber_bpsk_sim",), _bpsk_identities)}, "", {7 + 1}))
    r, out = _outputs(scan, seed, out_dir("corrupt-scan"))
    (path, data), = out.items()
    stdout = _winner_line(data)
    cases.append(("scan objective x1.2 at H=1.60", scan, {path: _scaled(data, 18, 1.2, ("objective",))},
                  stdout, {18}))
    for name, workload, outputs, stdout, bad in cases:
        ops = workload.check(seed, outputs, stdout)
        failed = {i for i, op in enumerate(ops) if op.problem}
        report(f"rejects {name}", failed == bad, f"failed ops {sorted(failed)}, expected {sorted(bad)}")


def _winner_line(trace: bytes) -> str:
    rows = list(csv.DictReader(io.StringIO(trace.decode())))
    best = min(rows, key=lambda r: float(r["objective"]))
    return f"policy=realloc_opt low={best['low']} high={best['high']} objective={best['objective']}"


def check_moved_threshold():
    workload = small()[0]
    original = ofdm_spm.harness.detection_threshold
    ofdm_spm.harness.detection_threshold = lambda pair: 1.5 * original(pair)
    try:
        r = run.run_round(workload, SEEDS[0], out_dir("moved-threshold"), 1)
    finally:
        ofdm_spm.harness.detection_threshold = original
    failed = sum(op.problem is not None for op in r.ops)
    report("rejects a program with the power threshold moved x1.5", failed > 0,
           f"{failed} of {len(r.ops)} points failed")


def check_absent_attributes():
    workload = small()[0]
    gone = [Target("ofdm_spm.harness", "fft_unitary_removed", "transforms.fft"),
            Target("ofdm_spm.module_removed", "fft_unitary", "transforms.fft")]
    targets = [t for t in TARGETS if t.span != "transforms.fft"] + gone
    d = out_dir("absent")
    res = run.result(*run.traced_run(workload, SEEDS[0], 0, d, targets), PER_LAYER)
    absent = json.loads((d / "spans.json").read_text())["absent"]
    ok = (res["correct"] and res["failed"] == 0 and res["metrics"]["transforms.fft_s"]["value"] == 0
          and absent == ["ofdm_spm.harness.fft_unitary_removed", "ofdm_spm.module_removed.fft_unitary"])
    report("tracer reports removed attributes and still adds up", ok, f"absent {absent}")


def check_determinism():
    workload = small()[1]
    runs = []
    for name, workers in (("a", 2), ("b", 2), ("c", 1)):
        d = out_dir(f"determinism-{name}")
        run.run_round(workload, SEEDS[0], d, workers)
        runs.append([path.read_bytes() for _, path in workload.commands(SEEDS[0], d, workers)])
    report("byte-identical CSVs over two 2-worker runs and a 1-worker run",
           runs[0] == runs[1] == runs[2])


def main() -> int:
    check_runs_to_end()
    check_corrupted_outputs()
    check_moved_threshold()
    check_absent_attributes()
    check_determinism()
    print(f"selftest: {sum(RESULTS)} of {len(RESULTS)} passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
