"""The integrator against its fine-step reference, by the oracle rule.

Every scenario's scheme run is judged by the rule against the frozen
reference samples (about 3 s in all). The two cheapest scenarios are also
re-integrated at dt/64 (about 20 s in all): the reference must still
match its frozen samples, the rule must hold over every judged sample,
and the scheme's errors must be the recorded ones.
``tests/dynamics_oracle.py --check`` does the latter for all four
scenarios.
"""

from __future__ import annotations

import json

import pytest

from dynamics_fixture import VALUE_BOUND, scenarios
from dynamics_oracle import (
    ORACLE, compare, describe, frozen_errors, outcome, rule_violations, violations,
)
from gridimpact.dynamics import initial_state, run_scenario


@pytest.fixture(scope="module")
def state118(case118, models118):
    return initial_state(case118, models118)


@pytest.mark.parametrize("name", ["case1", "case2", "combo100", "disturb_17_113"])
def test_scheme_meets_the_oracle_rule(case118, state118, name):
    """Verdicts and event log exact, first violation within one dt, and
    angle, frequency and voltage errors within the rule's bounds at the
    frozen reference samples the rule judges."""
    frozen = json.loads(ORACLE.read_text())[name]
    (schedule, options), = [(s, o) for n, s, o in scenarios(case118) if n == name]
    trace, verdict = run_scenario(case118, schedule, options=options, state=state118)
    errors = frozen_errors(trace, verdict, frozen["reference"])
    assert errors["samples_compared"] > 0
    assert rule_violations(outcome(trace, verdict), frozen["reference"], errors,
                           options.dt) == []


@pytest.mark.parametrize("name", ["case2", "disturb_17_113"])
def test_scheme_errors_are_the_recorded_ones(case118, models118, state118, name):
    frozen = json.loads(ORACLE.read_text())[name]
    (schedule, options), = [(s, o) for n, s, o in scenarios(case118) if n == name]
    got = describe(case118, models118, state118, schedule, options)
    assert violations(got) == []
    differ, worst, deviations = compare(got, frozen)
    assert differ == []
    assert worst <= VALUE_BOUND
    assert max(deviations.values()) <= VALUE_BOUND
    assert got["errors"]["samples_compared"] == frozen["errors"]["samples_compared"]
    assert got["scheme"] == frozen["scheme"]
