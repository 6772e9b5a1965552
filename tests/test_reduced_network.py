"""The dynamics engine's reduced network against the sparse network solve,
and the engine as a whole against the frozen dynamics fixture."""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gridimpact.dynamics import (
    DetectionThresholds,
    _Engine,
    _state_vector,
    default_machine_models,
    initial_state,
    load_schedule,
)
from gridimpact.topology import OutageAction

from conftest import REPO_ROOT
from dynamics_fixture import FIXTURE, VALUE_BOUND, compare, describe, scenarios
from toys import two_machine_case


def sparse_bus_voltages(engine: _Engine, e_ph: np.ndarray) -> np.ndarray:
    """Bus voltages by one sparse solve of the augmented network, with each
    active machine injecting its EMF through its transient reactance."""
    act = engine.mach_active
    inj = np.zeros(engine.nb, dtype=complex)
    np.add.at(inj, engine.mach_bus_pos[act], e_ph[act] / (1j * engine.xd_sys[act]))
    return spla.splu(engine.admittance()).solve(inj)


def split_engine(case, models) -> _Engine:
    """Case 2 up to its island split, then substation 100 removed (its
    machine drops) and 110-112 opened (condenser bus 112 dies)."""
    engine = _Engine(case, models, initial_state(case, models), DetectionThresholds())
    schedule = load_schedule(REPO_ROOT / "scripts" / "case2_schedule.txt")
    actions = [a for _, a in schedule.events[:3]]
    actions += [OutageAction.remove_substation(100), OutageAction.open_branch(110, 112)]
    for action in actions:
        assert engine.apply_event(action) == (True, None)
        engine.refresh_topology()
    return engine


@pytest.mark.parametrize("topology", ["base", "split"])
def test_reduced_network_equals_sparse_solve(case118, models118, topology):
    if topology == "base":
        engine = _Engine(case118, models118, initial_state(case118, models118),
                         DetectionThresholds())
        assert engine.mach_active.all()
    else:
        engine = split_engine(case118, models118)
        assert len(engine.islands) == 2
        assert engine.mach_active.sum() == engine.nm - 2
        assert not engine.bus_active.all()
    rng = np.random.default_rng(7)
    for _ in range(5):
        e_ph = rng.uniform(0.5, 1.5, engine.nm) * np.exp(1j * rng.uniform(-3, 3, engine.nm))
        want = sparse_bus_voltages(engine, e_ph)
        scale = np.max(np.abs(want))
        got = engine.bus_voltages(e_ph)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        terminal = engine.K @ e_ph
        assert np.max(np.abs(terminal - want[engine.mach_bus_pos])) <= 1e-12 * scale
        assert np.all(got[~engine.bus_active] == 0)


def test_initial_state_is_an_equilibrium(case118, models118):
    """init_dynamic_state's own check passes, and the fused derivative of
    the initial state is zero to solver precision."""
    state = initial_state(case118, models118)
    engine = _Engine(case118, models118, state, DetectionThresholds())
    assert np.max(np.abs(engine.rhs(_state_vector(state)))) < 1e-8


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_box_bounds_stop_outward_derivatives(sign):
    """Regulators and governors that reach a bound of their box while
    pushing outward stop there; rotor states are unbounded."""
    case = two_machine_case()
    models = default_machine_models(case)
    state = initial_state(case, models)
    engine = _Engine(case, models, state, DetectionThresholds())
    n = engine.nm
    y = _state_vector(state)
    y[n:2 * n] = -0.01 * sign  # speed error opens (closes) the governors
    y[2 * n:3 * n] = 1.2 - 0.7 * sign  # EMFs sag (swell): regulators push back
    free = engine.rhs(y).copy()
    assert np.all(sign * free[2 * n:] > 0)
    bounded = np.arange(4 * n) >= 2 * n
    if sign > 0:
        engine.hi = np.where(bounded, y, engine.hi)
    else:
        engine.lo = np.where(bounded, y, engine.lo)
    held = engine.rhs(y)
    assert np.all(held[2 * n:] == 0.0)
    np.testing.assert_array_equal(held[:2 * n], free[:2 * n])


@pytest.mark.parametrize("name", ["case2", "disturb_17_113"])
def test_matches_frozen_dynamics_fixture(case118, models118, name):
    """Verdicts, events and sample counts exact, raw samples within 1e-9."""
    frozen = json.loads(FIXTURE.read_text())[name]
    (schedule, options), = [(s, o) for n, s, o in scenarios(case118) if n == name]
    differ, _same_csv, worst = compare(describe(case118, models118, schedule, options), frozen)
    assert differ == []
    assert worst <= VALUE_BOUND
