"""Level-scan optimizer behavior."""

from __future__ import annotations

import numpy as np
import pytest

from ofdm_spm import (
    Policy,
    SimConfig,
    ber_breakdown,
    mean_ber_objective,
    power_pair_for,
    reference_pair,
    scan_levels,
)


class TestScanGrid:
    def test_saving_candidate_range(self):
        res = scan_levels(Policy.POWER_SAVING)
        # H walks 1.05, 1.06, ... while H^2 stays under the budget.
        assert res.trace_high[0] == pytest.approx(1.05)
        assert res.trace_high[-1] == pytest.approx(1.41)
        assert res.trace_high.size == 37
        np.testing.assert_allclose(np.diff(res.trace_high), 0.01, atol=1e-9)

    def test_realloc_skips_infeasible_low_end(self):
        # Under budget 4 the walk only becomes feasible once H^2 > 2.
        res = scan_levels(Policy.REALLOC_OPTIMIZED)
        assert res.trace_high[0] == pytest.approx(1.42)
        assert res.trace_high[-1] == pytest.approx(1.99)
        assert res.trace_high.size == 58

    def test_trace_pairs_valid(self):
        res = scan_levels(Policy.REALLOC_NON_OPTIMIZED)
        assert np.all(res.trace_low > 0)
        assert np.all(res.trace_low < res.trace_high)
        np.testing.assert_allclose(
            res.trace_low**2 + res.trace_high**2, 4.0, atol=1e-9
        )

    def test_no_feasible_candidate_raises(self):
        with pytest.raises(ValueError):
            scan_levels(Policy.POWER_SAVING, h_start=1.9)
        with pytest.raises(ValueError):
            scan_levels(Policy.REALLOC_OPTIMIZED, h_start=2.5)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            scan_levels(Policy.POWER_SAVING, h_step=0.0)
        with pytest.raises(ValueError):
            scan_levels(Policy.POWER_SAVING, h_start=-1.0)
        # a NaN H, or one that absorbs its tiny step, never reaches the
        # budget, so these must fail before the walk
        for bad in (dict(h_step=float("nan")), dict(h_start=float("nan")), dict(h_step=1e-300)):
            with pytest.raises(ValueError):
                scan_levels(Policy.POWER_SAVING, **bad)


class TestArgmin:
    def test_saving_default_objective_lands_on_reference(self):
        res = scan_levels(Policy.POWER_SAVING)
        assert res.pair.high == pytest.approx(1.35, abs=1e-9)
        ref = reference_pair(Policy.POWER_SAVING)
        assert res.objective <= mean_ber_objective(SimConfig())([ref])[0] + 1e-12

    def test_realloc_default_objective_near_reference(self):
        res = scan_levels(Policy.REALLOC_OPTIMIZED)
        # Grid resolution is 0.01, the documented point is 1.918.
        assert abs(res.pair.high - 1.918) <= 0.01 + 1e-9
        ref = reference_pair(Policy.REALLOC_OPTIMIZED)
        objective = mean_ber_objective(SimConfig(policy=Policy.REALLOC_OPTIMIZED))
        assert res.objective <= objective([ref])[0] + 1e-9

    def test_custom_objective(self):
        res = scan_levels(
            Policy.POWER_SAVING, objective=lambda pairs: [(p.high - 1.2) ** 2 for p in pairs]
        )
        assert res.pair.high == pytest.approx(1.2, abs=1e-9)

    def test_tie_takes_smaller_high(self):
        res = scan_levels(Policy.POWER_SAVING, objective=lambda pairs: [1.0] * len(pairs))
        assert res.pair.high == pytest.approx(1.05)

    def test_objective_matches_trace(self):
        obj = mean_ber_objective(SimConfig(snr_db_grid=(10.0,)))
        res = scan_levels(Policy.POWER_SAVING, objective=obj)
        i = int(np.argmin(res.trace_objective))
        assert res.objective == res.trace_objective[i]
        assert res.pair.high == pytest.approx(res.trace_high[i])


class TestObjectiveProtocol:
    def test_one_call_on_every_feasible_pair_in_walk_order(self):
        policy = Policy.REALLOC_OPTIMIZED
        calls = []

        def objective(pairs):
            calls.append(list(pairs))
            return [(p.high - 1.7) ** 2 for p in pairs]

        res = scan_levels(policy, objective=objective, h_start=1.05, h_step=0.01)
        walk = []
        for k in range(100):
            h = 1.05 + 0.01 * k
            if h * h >= policy.budget - 1e-6:
                break
            try:
                walk.append(power_pair_for(policy, h))
            except ValueError:
                pass
        assert len(walk) == 58
        assert calls == [walk]
        assert res.pair == walk[int(np.argmin([(p.high - 1.7) ** 2 for p in walk]))]

    def test_bad_walk_fails_before_the_objective(self):
        calls = []
        for bad in (dict(h_step=0.0), dict(h_step=float("nan")), dict(h_step=1e-300)):
            with pytest.raises(ValueError):
                scan_levels(Policy.POWER_SAVING, objective=calls.append, **bad)
        assert calls == []

    def test_one_value_per_pair(self):
        with pytest.raises(ValueError, match="scored 1 of 37"):
            scan_levels(Policy.POWER_SAVING, objective=lambda pairs: [1.0])

    def test_nan_score_is_rejected(self):
        # np.argmin returns the first NaN, so a NaN score would win the scan
        def objective(pairs):
            return [float("nan") if p.high == 1.2 else abs(p.high - 1.35) for p in pairs]

        with pytest.raises(ValueError, match=r"^the objective scored H=1\.2 as NaN$"):
            scan_levels(Policy.POWER_SAVING, objective=objective)


class TestDeterminism:
    def test_repeat_scan_identical(self):
        a = scan_levels(Policy.REALLOC_NON_OPTIMIZED)
        b = scan_levels(Policy.REALLOC_NON_OPTIMIZED)
        assert a.pair.high == b.pair.high
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.trace_objective, b.trace_objective)


class TestObjectiveFactory:
    def test_single_point_value(self):
        obj = mean_ber_objective(SimConfig(snr_db_grid=(10.0,)))
        ref = reference_pair(Policy.POWER_SAVING)
        assert obj([ref])[0] == pytest.approx(ber_breakdown(10.0, ref).ber_total, abs=1e-15)


class TestReferencePairs:
    def test_documented_points(self):
        assert reference_pair(Policy.POWER_SAVING).high == 1.35
        assert reference_pair(Policy.REALLOC_NON_OPTIMIZED).high == 1.732
        assert reference_pair(Policy.REALLOC_OPTIMIZED).high == 1.918
