"""Shared pytest plumbing: acceptance lines repeated in the summary, and a
second coding of the power-stream BER that the closed forms are checked
against."""

import math

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def naive_tail(x: float) -> float:
    """0.5 * (1 - sqrt(x / (1 + x))) as written; x = +inf (noiseless) gives 0."""
    if math.isinf(x):
        return 0.0
    return 0.5 * (1.0 - math.sqrt(x / (1.0 + x)))


def crossing_terms(snr: float, pair):
    """The four boundary-crossing events e1..e4 of the power stream.

    Each has weight 1/2: L crosses its near midpoint (e1) or the opposite
    one (e2), H crosses its near midpoint (e3, the same distance as e1) or
    passes both boundaries (e4). P_power = e1 + e2/2 - e4/2.
    """
    d_mid = 0.5 * (pair.high - pair.low)
    d_far = 0.5 * (pair.high + 3.0 * pair.low)
    d_out = 0.5 * (3.0 * pair.high + pair.low)
    return tuple(naive_tail(d**2 * snr) for d in (d_mid, d_far, d_mid, d_out))


def total_crossings(snr: float, pair) -> float:
    e1, e2, _, e4 = crossing_terms(snr, pair)
    return e1 + 0.5 * e2 - 0.5 * e4
