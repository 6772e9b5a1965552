"""The integrator's recorded accuracy against its fine-step reference.

Re-integrates the two cheapest oracle scenarios at the scheme's step and
at dt/64 (about 20 s in all) and checks that the reference still matches
its frozen samples and that the scheme's largest angle, frequency and
voltage errors and its first-violation shift are the recorded ones.
``tests/dynamics_oracle.py --check`` covers all four scenarios.
"""

from __future__ import annotations

import json

import pytest

from dynamics_fixture import VALUE_BOUND, scenarios
from dynamics_oracle import ORACLE, compare, describe
from gridimpact.dynamics import initial_state


@pytest.mark.parametrize("name", ["case2", "disturb_17_113"])
def test_scheme_errors_are_the_recorded_ones(case118, models118, name):
    frozen = json.loads(ORACLE.read_text())[name]
    (schedule, options), = [(s, o) for n, s, o in scenarios(case118) if n == name]
    state = initial_state(case118, models118)
    got = describe(case118, models118, state, schedule, options)
    differ, worst, deviations = compare(got, frozen)
    assert differ == []
    assert worst <= VALUE_BOUND
    assert max(deviations.values()) <= VALUE_BOUND
    assert got["errors"]["samples_compared"] == frozen["errors"]["samples_compared"]
    assert got["scheme"] == frozen["scheme"]
