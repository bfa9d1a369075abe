"""The false-alarm audit, which pytest does not collect, run once on the
suite's own sweeps: a change to the acceptance suite that breaks
audit_criteria.py fails here."""

from __future__ import annotations

import math

import pytest

import audit_criteria as audit
import test_acceptance as acc


def test_the_audit_lists_every_statistical_criterion():
    assert list(audit.CRITERIA) == list(acc.STATISTICS)


@pytest.mark.parametrize("number", list(audit.CRITERIA))
def test_each_criterion_evaluates_on_the_suite_sweeps(number):
    value, rate = audit.evaluate(number, acc.SUITE)
    _, model, _ = audit.CRITERIA[number]
    assert math.isfinite(value)
    if model == "normal fit":
        assert rate is None
    else:
        assert 0.0 <= rate < 1.0
