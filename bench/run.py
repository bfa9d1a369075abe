"""Benchmark of the ofdm_spm link simulator.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload (bench/workloads.py) through
`ofdm_spm.cli.main`, from the sources under src/ next to this directory,
until S seconds have passed, and checks every operation's output against
independent references. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, measured without tracing; with --trace 1 a
separate set of traced rounds at workers=1 gives the per-layer ones
(bench/layers.py). Outputs, the result and the spans go to bench/out/.
See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "symbols_per_s": "1/s",
    "payload_mbit_s": "Mbit/s",
    "peak_rss_mb": "MB",
}
# set-up is short and noisy, so each run takes the median of this many probes
SETUP_PROBES = 9
# the traced run's self times must add up to its wall time within this
ADD_UP_TOLERANCE = (1e-3, 0.005)  # seconds, share of the wall time

# A fresh interpreter pays what a user pays before the first point: the
# package imports plus building and validating the workload's config. The
# clock starts at the first statement, so interpreter start-up is excluded.
SETUP_PROBE = r"""
import time
start = time.perf_counter()
import json, sys
sys.path.insert(0, sys.argv[1])
import ofdm_spm.cli
from ofdm_spm import Policy, SimConfig
fields = json.loads(sys.argv[2])
fields["policy"] = Policy(fields["policy"])
fields["snr_db_grid"] = tuple(fields["snr_db_grid"])
SimConfig(**fields)
elapsed = time.perf_counter() - start
if not ofdm_spm.cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"ofdm_spm came from {ofdm_spm.cli.__file__}, not {sys.argv[1]}")
print(repr(elapsed))
"""


@dataclass
class Round:
    wall: float
    ops: list
    spans: list = field(default_factory=list)


def run_round(workload, seed, out_dir, workers, tracer=None) -> Round:
    """Run the workload's commands once and check every operation."""
    from ofdm_spm import cli

    commands = workload.commands(seed, out_dir, workers)
    for _, path in commands:
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()

    def body():
        for argv, _ in commands:
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit {code}: {stderr.getvalue().strip()}")

    first_span = len(tracer.spans) if tracer else 0
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer:
                tracer.run_root(body)
            else:
                body()
    except (Exception, SystemExit) as exc:  # a crash fails the round's operations
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    wall = time.perf_counter() - start
    if error is None:
        try:
            outputs = {path: path.read_bytes() for _, path in commands}
            ops = workload.check(seed, outputs, stdout.getvalue())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    if error is not None:
        ops = workload.all_failed(error)
    return Round(wall, ops, tracer.spans[first_span:] if tracer else [])


def repeat(seconds, make_round):
    """Run whole rounds, at least one, until `seconds` have passed."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(make_round())
    return rounds


def tally(rounds):
    """(attempted, failed) over all rounds; output that changes between
    rounds of one config fails too, since the program is deterministic."""
    first = rounds[0].ops
    attempted = failed = 0
    problems = []
    for r in rounds:
        for op, ref in zip(r.ops, first):
            if op.problem is None and op.key != ref.key:
                op.problem = "output differs from the first round"
            attempted += 1
            if op.problem is not None:
                failed += 1
                problems.append(op.problem)
    for problem in dict.fromkeys(problems):
        print(f"failed: {problem}", file=sys.stderr)
    walls = " ".join(f"{r.wall:.3f}" for r in rounds)
    print(f"rounds: {len(rounds)}, wall seconds: {walls}", file=sys.stderr)
    return attempted, failed


def measure_setup(workload, seed) -> float:
    fields = json.dumps(workload.setup_fields(seed))
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), fields],
            capture_output=True, text=True, timeout=120, cwd=HERE.parent,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times the largest worker's.

    getrusage reports only the largest reaped child, not a sum; the pool's
    workers do the same work, so workers x largest stands for them all.
    Call it before any other child process has run.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def plain_run(workload, seed, seconds, out_dir):
    rounds = repeat(seconds, lambda: run_round(workload, seed, out_dir, workload.workers))
    rss = peak_rss_mb(workload.workers)
    setup = measure_setup(workload, seed)
    wall = statistics.median(r.wall for r in rounds)
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "symbols_per_s": workload.symbols_per_round() / wall,
        "payload_mbit_s": workload.payload_bits_per_round() / wall / 1e6,
        "peak_rss_mb": rss,
    }
    return rounds, metrics, True


def traced_run(workload, seed, seconds, out_dir, targets=None):
    """Untraced and traced rounds at workers=1, after one untraced round at
    the workload's own worker count that counts pool starts."""
    from layers import PER_LAYER, SELF_TIMES, TARGETS, round_metrics
    from spans import PoolCounter, Tracer

    tracer = Tracer(TARGETS if targets is None else targets)
    pools = PoolCounter()
    start = time.perf_counter()
    with pools.installed():
        rounds = [run_round(workload, seed, out_dir, workload.workers)]

    def pair():
        plain = run_round(workload, seed, out_dir, 1)
        with tracer.installed():
            return plain, run_round(workload, seed, out_dir, 1, tracer)

    plain, traced = zip(*repeat(seconds - (time.perf_counter() - start), pair))
    correct = True
    per_round = []
    for r in traced:
        m = round_metrics(r.spans)
        per_round.append(m)
        added = sum(m[name] for name in SELF_TIMES)
        if abs(added - r.wall) > max(ADD_UP_TOLERANCE[0], ADD_UP_TOLERANCE[1] * r.wall):
            print(f"trace: self times add up to {added!r} s, traced wall time is {r.wall!r} s",
                  file=sys.stderr)
            correct = False
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["harness.pool_starts"] = pools.starts
    metrics["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                   - statistics.median(r.wall for r in plain))
    for label in tracer.absent:
        print(f"trace: {label} is absent; its time counts in its caller's self time",
              file=sys.stderr)
    spans = {
        "absent": tracer.absent,
        "columns": ["id", "parent", "name", "start", "end", "count"],
        "spans": [[s.id, s.parent, s.name, s.start, s.end, s.count] for s in tracer.spans],
    }
    (out_dir / "spans.json").write_text(json.dumps(spans))
    return rounds + list(plain + traced), {k: metrics[k] for k in PER_LAYER}, correct


def result(rounds, metrics, correct, units) -> dict:
    attempted, failed = tally(rounds)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "ofdm_spm" / "__init__.py").is_file():
        print(f"error: no ofdm_spm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ofdm_spm
    from workloads import WORKLOADS

    if not ofdm_spm.__file__.startswith(str(SRC)):
        print(f"error: ofdm_spm came from {ofdm_spm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choices: {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]()
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        from layers import PER_LAYER as units
        outcome = traced_run(workload, args.seed, args.seconds, out_dir)
    else:
        units = END_TO_END
        outcome = plain_run(workload, args.seed, args.seconds, out_dir)
    line = json.dumps(result(*outcome, units))
    (out_dir / "result.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
