"""The program attributes the traced run wraps, and the per-layer metrics built from them.

Each Target names the attribute its caller looks up at call time: the
harness imports `fft_unitary` into its own namespace, so the span wraps
`ofdm_spm.harness.fft_unitary`, not `ofdm_spm.transforms.fft_unitary`.
Self times of all spans add up to the traced round, and every span name
belongs to exactly one `*_s` self-time metric below, so those metrics
add up to the traced wall time; run.py checks that they do.
"""
from __future__ import annotations

import numpy as np

from spans import ROOT, Target, summarize


def _samples(args, kwargs):
    return int(np.size(args[0])) if args else 0


def _symbols(args, kwargs):
    return int(getattr(args[0], "ofdm_symbols", 0)) if args else 0


_H, _C = "ofdm_spm.harness", "ofdm_spm.cli"

TARGETS = (
    Target(_H, "fft_unitary", "transforms.fft", _samples),
    Target("ofdm_spm.channel", "fft_unitary", "transforms.fft", _samples),
    Target(_H, "ifft_unitary", "transforms.ifft", _samples),
    Target(_H, "channel_frequency_response", "channel.freq_response"),
    Target(_H, "apply_channel", "channel.convolve"),
    Target(_H, "add_awgn", "channel.awgn"),
    Target(_H, "draw_taps", "channel.fading_draw"),
    Target(_H, "draw_flat_rayleigh", "channel.fading_draw"),
    Target(_H, "equalize_symbols", "rx.equalize"),
    Target(_H, "detect_power_bit", "rx.detect"),
    Target(_H, "detect_bpsk_bit", "rx.detect"),
    Target(_H, "constellation_point", "core.map"),
    Target(_H, "map_bpsk", "core.map"),
    Target(_H, "ber_breakdown", "analysis.closed_form"),
    Target(_H, "rayleigh_bpsk_ber", "analysis.closed_form"),
    Target(_H, "run_point", "harness.point", _symbols),
    Target(_H, "run_baseline_point", "harness.point", _symbols),
    Target(_H, "run_sweep", "harness.sweep"),        # called by the Monte Carlo objective
    Target(_C, "run_sweep", "harness.sweep"),
    Target(_C, "run_baseline_ofdm_bpsk", "harness.sweep"),
    Target(_C, "write_csv", "harness.csv_write"),
    Target(_C, "scan_levels", "optimize.scan"),
    Target(_C, "monte_carlo_objective", "optimize.objective", returns_span="optimize.candidate"),
)

# self-time metric -> the spans whose self time it sums; the root span
# (the CLI front end around the calls) counts as harness
SELF_TIMES = {
    "transforms.fft_s": ("transforms.fft",),
    "transforms.ifft_s": ("transforms.ifft",),
    "channel.freq_response_s": ("channel.freq_response",),
    "channel.convolve_s": ("channel.convolve",),
    "channel.awgn_s": ("channel.awgn",),
    "channel.fading_draw_s": ("channel.fading_draw",),
    "rx.equalize_s": ("rx.equalize",),
    "rx.detect_s": ("rx.detect",),
    "core.map_s": ("core.map",),
    "analysis.closed_form_s": ("analysis.closed_form",),
    "harness.csv_write_s": ("harness.csv_write",),
    "optimize.self_s": ("optimize.scan", "optimize.objective", "optimize.candidate"),
    "harness.self_s": (ROOT, "harness.sweep", "harness.point"),
}

_covered = {name for names in SELF_TIMES.values() for name in names}
_spanned = {ROOT} | {t.span for t in TARGETS} | {t.returns_span for t in TARGETS if t.returns_span}
if _covered != _spanned:
    raise RuntimeError(f"spans without a self-time metric: {sorted(_spanned ^ _covered)}")

# every per-layer metric with its unit, in print order
PER_LAYER = {name: "s" for name in SELF_TIMES}
PER_LAYER.update({
    "transforms.calls": "count",
    "transforms.samples": "count",
    "harness.points": "count",
    "harness.point_s_p50": "s",
    "harness.symbols": "count",
    "harness.pool_starts": "count",
    "optimize.candidates": "count",
    "optimize.candidate_s_p50": "s",
    "optimize.candidate_s_p80": "s",
    "analysis.calls": "count",
    "trace.overhead_s": "s",
})


def round_metrics(spans) -> dict:
    """Per-layer metrics of one traced round (all but pool starts and overhead)."""
    summary = summarize(spans)

    def total(field, *names):
        return sum(getattr(summary[n], field) for n in names if n in summary)

    def percentile(name, q):
        durations = summary[name].durations if name in summary else []
        return float(np.percentile(durations, q)) if durations else 0.0

    transforms = ("transforms.fft", "transforms.ifft")
    out = {metric: float(total("self_s", *names)) for metric, names in SELF_TIMES.items()}
    out.update({
        "transforms.calls": total("calls", *transforms),
        "transforms.samples": total("work", *transforms),
        "harness.points": total("calls", "harness.point"),
        "harness.point_s_p50": percentile("harness.point", 50),
        "harness.symbols": total("work", "harness.point"),
        "optimize.candidates": total("calls", "optimize.candidate"),
        "optimize.candidate_s_p50": percentile("optimize.candidate", 50),
        "optimize.candidate_s_p80": percentile("optimize.candidate", 80),
        "analysis.calls": total("calls", "analysis.closed_form"),
    })
    return out
