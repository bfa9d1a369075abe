"""Closed-form error rates against a numerical-integration reference.

The fading average E_u[Q(sqrt(2 x u))] with u ~ Exp(1) is evaluated here
by quadrature, sharing no algebra with the closed forms under test. The
frozen spot values below were produced by that reference.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ofdm_spm import (
    Policy,
    ber_breakdown,
    power_pair_for,
    rayleigh_bpsk_ber,
    throughput,
)
from conftest import crossing_terms, total_crossings

SAVING = power_pair_for(Policy.POWER_SAVING, 1.35)
NONOPT = power_pair_for(Policy.REALLOC_NON_OPTIMIZED, 1.732)
OPT = power_pair_for(Policy.REALLOC_OPTIMIZED, 1.918)
RATES = ("ber_bpsk_low", "ber_bpsk_high", "ber_bpsk", "ber_power", "ber_total")


def fade_tail_quadrature(x: float) -> float:
    """E[Q(sqrt(2 x u))] for u ~ Exp(1), via the substitution u = t^2.

    The substitution removes the sqrt kink at the origin, after which
    plain trapezoidal integration converges fast.
    """
    t = np.linspace(0.0, 9.0, 40_001)
    q = np.array([0.5 * math.erfc(math.sqrt(x) * ti) for ti in t])
    integrand = q * np.exp(-(t**2)) * 2.0 * t
    # numpy >= 2.0 names it trapezoid (2.4 removed trapz); older numpy has only trapz
    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    return float(trapezoid(integrand, t))


class TestFadeTailAgainstQuadrature:
    @pytest.mark.parametrize("snr", [0.1, 1.0, 10.0, 100.0, 1e4])
    def test_bpsk_tail(self, snr):
        assert rayleigh_bpsk_ber(snr) == pytest.approx(
            fade_tail_quadrature(snr), abs=1e-8
        )

    @pytest.mark.parametrize("snr", [1.0, 10.0, 100.0])
    def test_power_terms_are_fading_tails(self, snr):
        d_mid = 0.5 * (SAVING.high - SAVING.low)
        d_far = 0.5 * (SAVING.high + 3.0 * SAVING.low)
        d_out = 0.5 * (3.0 * SAVING.high + SAVING.low)
        bd = ber_breakdown(snr, SAVING)
        assert bd.ber_power == pytest.approx(
            fade_tail_quadrature(d_mid**2 * snr)
            + 0.5 * fade_tail_quadrature(d_far**2 * snr)
            - 0.5 * fade_tail_quadrature(d_out**2 * snr),
            abs=1e-8,
        )
        assert bd.ber_bpsk_low == pytest.approx(
            fade_tail_quadrature(SAVING.low**2 * snr), abs=1e-8
        )
        assert bd.ber_bpsk_high == pytest.approx(
            fade_tail_quadrature(SAVING.high**2 * snr), abs=1e-8
        )


class TestFrozenValues:
    def test_bpsk_tail_spots(self):
        assert rayleigh_bpsk_ber(10.0) == pytest.approx(0.02326870537720384, abs=1e-12)
        assert rayleigh_bpsk_ber(1e4) == pytest.approx(2.499812515623633e-05, abs=1e-15)
        assert rayleigh_bpsk_ber(10.0) == pytest.approx(0.02327, abs=1e-4)

    def test_level_spots(self):
        bd = ber_breakdown(10.0, SAVING)
        assert bd.ber_bpsk_high == pytest.approx(0.013177548967132274, abs=1e-12)
        assert bd.ber_bpsk_low == pytest.approx(0.10011262846907777, abs=1e-12)

    def test_bpsk_avg_spot(self):
        assert ber_breakdown(10.0, SAVING).ber_bpsk == pytest.approx(
            0.05664508871810502, abs=1e-12
        )

    def test_power_terms_spot(self):
        assert ber_breakdown(10.0, SAVING).ber_power == pytest.approx(
            0.09127977052373742, abs=1e-12
        )

    def test_total_spot(self):
        assert ber_breakdown(10.0, SAVING).ber_total == pytest.approx(
            0.07396242962092123, abs=1e-12
        )

    def test_distance_spots(self):
        assert 0.5 * (SAVING.high - SAVING.low) == pytest.approx(
            0.4643462556705912, abs=1e-12
        )
        assert 0.5 * (SAVING.high + 3 * SAVING.low) == pytest.approx(
            1.3069612329882265, abs=1e-12
        )
        assert 0.5 * (3 * SAVING.high + SAVING.low) == pytest.approx(
            2.2356537443294093, abs=1e-12
        )


class TestDecompositionIdentity:
    @pytest.mark.parametrize("pair", [SAVING, NONOPT, OPT])
    @pytest.mark.parametrize("snr", [0.1, 1.0, 10.0, 316.0, 1e4])
    def test_compact_equals_crossings(self, pair, snr):
        assert ber_breakdown(snr, pair).ber_power == pytest.approx(
            total_crossings(snr, pair), abs=1e-12
        )

    def test_first_and_third_crossing_coincide(self):
        e1, _, e3, _ = crossing_terms(7.3, SAVING)
        assert e1 == e3


class TestShapes:
    def test_monotone_decreasing_in_snr(self):
        snr = 10 ** (np.arange(0.0, 40.5, 0.5) / 10.0)
        for pair in (SAVING, NONOPT, OPT):
            bd = ber_breakdown(snr, pair)
            assert np.all(np.diff(bd.ber_power) < 0)
            assert np.all(np.diff(bd.ber_bpsk) < 0)

    def test_rates_stay_in_unit_interval(self):
        snr = np.array([1e-6, 1e-2, 1.0, 1e2, 1e6])
        for pair in (SAVING, NONOPT, OPT):
            bd = ber_breakdown(snr, pair)
            assert np.all((0.0 <= bd.ber_power) & (bd.ber_power <= 0.5))
            assert np.all((0.0 <= bd.ber_bpsk) & (bd.ber_bpsk <= 0.5))

    def test_zero_snr_limit(self):
        # At snr -> 0 every tail goes to 1/2.
        assert rayleigh_bpsk_ber(1e-12) == pytest.approx(0.5, abs=1e-5)

    def test_infinite_snr_is_error_free(self):
        inf = float("inf")
        assert rayleigh_bpsk_ber(inf) == 0.0
        assert ber_breakdown(inf, SAVING).ber_power == 0.0
        assert ber_breakdown(inf, SAVING).ber_bpsk == 0.0
        assert total_crossings(inf, SAVING) == 0.0

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_bpsk_ber(-1.0)

    def test_nan_snr_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            rayleigh_bpsk_ber(float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            ber_breakdown(np.array([1.0, float("nan")]), SAVING)


class TestBreakdown:
    def test_consistent_with_parts(self):
        # at these saving highs Python's d**2 differs from np.square(d) for
        # a distance, so only one squaring rule gives every == below
        extra = [power_pair_for(Policy.POWER_SAVING, h) for h in (1.0901, 1.3141, 1.3456, 1.3501)]
        for pair in [SAVING, *extra]:
            b = ber_breakdown(10.0, pair)
            assert b.ber_bpsk_low == rayleigh_bpsk_ber(np.square(pair.low) * 10.0)
            assert b.ber_bpsk_high == rayleigh_bpsk_ber(np.square(pair.high) * 10.0)
            assert b.ber_bpsk == pytest.approx(0.5 * (b.ber_bpsk_low + b.ber_bpsk_high))
            d_mid, d_far, d_out = (
                0.5 * (pair.high - pair.low),
                0.5 * (pair.high + 3.0 * pair.low),
                0.5 * (3.0 * pair.high + pair.low),
            )
            assert b.ber_power == (
                rayleigh_bpsk_ber(np.square(d_mid) * 10.0)
                + 0.5 * rayleigh_bpsk_ber(np.square(d_far) * 10.0)
                - 0.5 * rayleigh_bpsk_ber(np.square(d_out) * 10.0)
            ), pair.high
            assert b.ber_total == pytest.approx(0.5 * (b.ber_power + b.ber_bpsk))

    @pytest.mark.parametrize("pair", [SAVING, NONOPT, OPT])
    def test_array_equals_scalar_calls(self, pair):
        snr = np.array([0.0, 1e-3, 0.5, 10.0, 316.0, 1e8, math.inf])
        for grid in (snr, snr[3:4]):
            bd = ber_breakdown(grid, pair)
            scalar = [ber_breakdown(float(s), pair) for s in grid]
            for name in RATES:
                values = getattr(bd, name)
                assert isinstance(values, np.ndarray) and values.shape == grid.shape
                assert values.tolist() == [getattr(b, name) for b in scalar], name

    def test_scalar_gives_python_floats(self):
        b = ber_breakdown(10.0, SAVING)
        for name in RATES:
            assert type(getattr(b, name)) is float, name


class TestThroughput:
    def test_reference_points(self):
        assert throughput(0.0, 0.0) == 2.0
        assert throughput(0.5, 0.5) == 1.0
        assert throughput(0.1, 0.05) == pytest.approx(1.85)

    def test_matches_total_ber_identity(self):
        bp, bb = 0.09127977052373742, 0.05664508871810502
        assert throughput(bp, bb) == pytest.approx(
            2.0 * (1.0 - 0.5 * (bp + bb))
        )

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            throughput(-0.1, 0.0)
        with pytest.raises(ValueError):
            throughput(0.0, 1.1)
