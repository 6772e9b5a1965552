"""The dynamics engine's reduced network against the sparse network solve,
its allocation-free kernel against allocating references, its
Rosenbrock-W step on stiff linear problems, and the engine as a whole
against the frozen dynamics fixture."""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from gridimpact import dynamics
from gridimpact.dynamics import (
    ScenarioOptions,
    SwitchingSchedule,
    _Engine,
    _state_vector,
    default_machine_models,
    initial_state,
    load_schedule,
    run_scenario,
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
    engine = _Engine(case, models, initial_state(case, models))
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
        engine = _Engine(case118, models118, initial_state(case118, models118))
        assert engine.mach_active.all()
    else:
        engine = split_engine(case118, models118)
        assert len(engine.island_members) == 2
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
    engine = _Engine(case118, models118, state)
    assert np.max(np.abs(engine.rhs(_state_vector(state)))) < 1e-8


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_box_bounds_stop_outward_derivatives(sign):
    """Regulators and governors that reach a bound of their box while
    pushing outward stop there; rotor states are unbounded."""
    case = two_machine_case()
    models = default_machine_models(case)
    state = initial_state(case, models)
    engine = _Engine(case, models, state)
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


# --- the allocation-free kernel against the allocating one -------------------


def reference_rhs(engine: _Engine, y: np.ndarray, out: np.ndarray | None = None):
    """The allocating ``_Engine.rhs`` that the in-place kernel replaced."""
    n = engine.nm
    if out is None:
        out = np.empty_like(y)
    omega, efd, pm = y[n : 2 * n], y[2 * n : 3 * n], y[3 * n :]
    e_ph = y[2 * n : 3 * n] * np.exp(1j * y[:n])
    vt = engine.K @ e_ph
    pe = (e_ph * vt.conj()).imag / engine.xd_sys
    np.multiply(engine.c_delta, omega, out=out[:n])
    np.multiply(pm - pe - engine.D * omega, engine.c_omega, out=out[n : 2 * n])
    np.multiply(
        engine.ka * (engine.vref - np.abs(vt)) - efd, engine.c_efd, out=out[2 * n : 3 * n]
    )
    np.multiply(
        engine.pm_ref - omega * engine.droop_gain - pm, engine.c_pm, out=out[3 * n :]
    )
    stuck = ((y >= engine.hi) & (out > 0)) | ((y <= engine.lo) & (out < 0))
    out[stuck] = 0.0
    return out


def reference_step(engine: _Engine, y: np.ndarray, h: float) -> np.ndarray:
    """An allocating ROS34PW2 step in the transformed variables: what
    ``_Engine.step`` computes in place, with the engine's frozen exciter
    Jacobian."""
    n = engine.nm
    efd = slice(2 * n, 3 * n)
    hg = h * dynamics._ROS_GAMMA
    w_inv = np.linalg.inv(np.eye(n) / hg - engine.J_efd)
    u = []
    for i in range(4):
        s = y
        for j, a in enumerate(dynamics._ROS_A[i]):
            s = s + a * u[j]
        r = reference_rhs(engine, s)
        for j, c in enumerate(dynamics._ROS_C[i]):
            r = r + (c / h) * u[j]
        u_i = hg * r
        u_i[efd] = w_inv @ r[efd]
        u.append(u_i)
    y = s + u[3]
    np.clip(y, engine.lo, engine.hi, out=y)
    return y


def assert_bitwise_equal(got: np.ndarray, want: np.ndarray) -> None:
    """Equal bit patterns: NaN payloads and the signs of zeros included."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def random_states(engine: _Engine, rng, count: int):
    """States around the engine's equilibrium and across its box: some
    regulator and governor states exactly on a bound or beyond it, some
    entries +0.0, -0.0 or NaN."""
    n = engine.nm
    y0 = engine.y.copy()
    lo, hi = engine.lo, engine.hi
    finite_hi = np.where(np.isfinite(hi), hi, 3.0)
    for _ in range(count):
        y = y0.copy()
        y[:n] += rng.normal(0.0, 0.5, n)
        y[n : 2 * n] = rng.normal(0.0, 0.02, n)
        y[2 * n :] = rng.uniform(lo[2 * n :] - 0.3, finite_hi[2 * n :] + 0.3)
        pick = rng.random(4 * n)
        y = np.where(pick < 0.15, lo, y)
        y = np.where((pick >= 0.15) & (pick < 0.3), hi, y)
        y = np.where(np.isfinite(y), y, y0)  # no infinite state
        special = rng.choice(4 * n, size=6, replace=False)
        y[special[:2]] = 0.0
        y[special[2:4]] = -0.0
        yield y
    nan = y0.copy()
    nan[[0, n + 1, 2 * n + 2, 3 * n + 3]] = np.nan
    yield nan


@pytest.fixture(scope="module")
def kernel_engines(case118, models118):
    base = _Engine(case118, models118, initial_state(case118, models118))
    return {"base": base, "split": split_engine(case118, models118)}


@pytest.mark.parametrize("topology", ["base", "split"])
def test_rhs_is_bitwise_the_allocating_rhs(kernel_engines, topology):
    engine = kernel_engines[topology]
    assert (topology == "split") == (not engine.mach_active.all())
    rng = np.random.default_rng(11)
    for y in random_states(engine, rng, 40):
        want = reference_rhs(engine, y)
        y_before = y.copy()
        assert_bitwise_equal(engine.rhs(y), want)  # a fresh output
        out = np.full_like(y, 7.0)
        assert engine.rhs(y, out) is out
        assert_bitwise_equal(out, want)
        engine._s[:] = y  # the engine's own stage buffers as input and output
        assert_bitwise_equal(engine._rhs(engine._s, engine._sb, engine._r, engine._rb), want)
        assert_bitwise_equal(y, y_before)


@pytest.mark.parametrize("topology", ["base", "split"])
def test_step_is_bitwise_the_allocating_step(kernel_engines, topology):
    """One step from a foreign array, then steps in place from the
    engine's own state vector, at the sampling step and at a tenth of it
    (the change of step size inverts W again)."""
    engine = kernel_engines[topology]
    rng = np.random.default_rng(12)
    for h in (0.01, 0.001):
        for y in random_states(engine, rng, 10):
            want = reference_step(engine, y, h)
            got = engine.step(y.copy(), h)
            assert got is engine.y
            assert_bitwise_equal(got, want)
            for _ in range(3):
                want = reference_step(engine, want, h)
                assert engine.step(engine.y, h) is engine.y
                assert_bitwise_equal(engine.y, want)


# --- the Rosenbrock-W step ---------------------------------------------------


def lower(rows) -> np.ndarray:
    """A 4x4 matrix from the strictly lower rows of a coefficient table."""
    m = np.zeros((4, 4))
    for i, row in enumerate(rows):
        m[i, :i] = row
    return m


def test_ros34pw2_coefficients():
    """The published coefficients meet the order-3 Rosenbrock conditions
    and the order-2 W condition (Hairer & Wanner, IV.7; Rang & Angermann
    2005); the step's transformed coefficients are A = alpha Gamma^-1 and
    C = diag(1/gamma) - Gamma^-1; and the method is stiffly accurate, so
    the last stage point plus its increment is the solution."""
    g = dynamics._ROS_GAMMA
    alpha, gamma_lower = lower(dynamics._ROS_ALPHA), lower(dynamics._ROS_GAMMAS)
    b = np.array([0.24212380706095346, -1.2232505839045147, 1.5452602553351020, g])
    a = alpha.sum(axis=1)
    beta = alpha + gamma_lower
    bb = beta.sum(axis=1)
    conditions = [
        b.sum() - 1.0,
        b @ bb - (0.5 - g),
        b @ a**2 - 1.0 / 3.0,
        b @ beta @ bb - (1.0 / 6.0 - g + g * g),
        b @ a - 0.5,  # order 2 with any Jacobian
    ]
    assert np.max(np.abs(conditions)) < 1e-15
    g_inv = np.linalg.inv(gamma_lower + g * np.eye(4))
    A, C = lower(dynamics._ROS_A), lower(dynamics._ROS_C)
    np.testing.assert_allclose(A, np.tril(alpha @ g_inv, -1), rtol=0, atol=1e-14)
    np.testing.assert_allclose(C, np.tril(-g_inv, -1), rtol=0, atol=1e-14)
    np.testing.assert_allclose(b @ g_inv, A[3] + [0, 0, 0, 1], rtol=0, atol=1e-14)


def linear_engine(L: np.ndarray, y0: np.ndarray) -> _Engine:
    """A two-machine engine whose RHS is y -> L y, unbounded, with the
    exact exciter block of L as its Jacobian, at state y0."""
    case = two_machine_case()
    models = default_machine_models(case)
    engine = _Engine(case, models, initial_state(case, models))
    n = engine.nm
    assert L.shape == (4 * n, 4 * n)
    engine._rhs = lambda y, _yb, out, _ob: np.matmul(L, y, out=out)
    engine.J_efd = L[2 * n : 3 * n, 2 * n : 3 * n].copy()
    engine.lo, engine.hi = np.full(4 * n, -np.inf), np.full(4 * n, np.inf)
    engine.y[:] = y0
    return engine


def stiff_linear_problem() -> tuple[np.ndarray, np.ndarray]:
    """A linear system shaped like the engine's: two swinging rotors, a
    stiff regulator block (eigenvalues about -840/s and -1060/s) driven
    by the angles, and a governor; and a start on the slow manifold."""
    I, Z = np.eye(2), np.zeros((2, 2))
    sync = np.array([[-1.0, 0.5], [0.5, -1.0]])
    reg = np.array([[-1000.0, 100.0], [100.0, -900.0]])
    L = np.block([[Z, 2 * I, Z, Z], [sync, -0.2 * I, 0.5 * I, I],
                  [5 * I, Z, reg, Z], [Z, -I, Z, -2 * I]])
    y0 = np.array([0.3, -0.2, 0.1, 0.0, 0.0, 0.0, 0.2, -0.1])
    y0[4:6] = -np.linalg.solve(reg, 5 * y0[:2])
    return L, y0


def test_step_converges_at_order_two_or_more_on_a_stiff_linear_problem():
    """With the Jacobian of the stiff block only (a W-method's inexact
    Jacobian), halving h over 1 s cuts the error by 3.5 or more, at
    steps where h times the stiff eigenvalues reaches -106."""
    L, y0 = stiff_linear_problem()
    exact = scipy.linalg.expm(L) @ y0
    errors = []
    for steps in (10, 20, 40):
        engine = linear_engine(L, y0)
        for _ in range(steps):
            engine.step(engine.y, 1.0 / steps)
        errors.append(np.max(np.abs(engine.y - exact)))
    assert all(coarse / fine >= 3.5 for coarse, fine in zip(errors, errors[1:])), errors


def test_step_damps_a_mode_far_outside_the_explicit_limit():
    """A regulator mode with h lambda = -10 shrinks in one step (RK4's
    amplification there is about 291)."""
    n = 2
    L = np.zeros((4 * n, 4 * n))
    L[2 * n : 3 * n, 2 * n : 3 * n] = -1000.0 * np.eye(n)
    y0 = np.zeros(4 * n)
    y0[2 * n : 3 * n] = 1.0
    engine = linear_engine(L, y0)
    engine.step(engine.y, 0.01)
    assert np.all(np.abs(engine.y[2 * n : 3 * n]) < 0.2)
    assert np.all(engine.y[: 2 * n] == 0.0) and np.all(engine.y[3 * n :] == 0.0)


@pytest.mark.parametrize("topology", ["base", "split"])
def test_exciter_jacobian_matches_finite_differences(case118, models118, topology):
    """J_efd, built at the last topology change, is the derivative of the
    regulator block of rhs by the EMF magnitudes at that state; a dropped
    machine's row is zero, with no NaN from its zero terminal voltage."""
    if topology == "base":
        engine = _Engine(case118, models118, initial_state(case118, models118))
    else:
        engine = split_engine(case118, models118)
    n = engine.nm
    y = engine.y.copy()
    J = engine.J_efd
    assert np.all(np.isfinite(J))
    dropped = ~engine.mach_active
    assert np.all(J[dropped] == 0.0)
    assert (topology == "split") == dropped.any()
    eps = 1e-6
    fd = np.empty((n, n))
    for j in range(n):
        up, down = y.copy(), y.copy()
        up[2 * n + j] += eps
        down[2 * n + j] -= eps
        fd[:, j] = (engine.rhs(up)[2 * n : 3 * n] - engine.rhs(down)[2 * n : 3 * n]) / (2 * eps)
    np.testing.assert_allclose(J, fd, rtol=0, atol=1e-5 * np.max(np.abs(fd)))


def test_reassigned_box_is_honoured_by_step_and_rhs():
    """hi and lo are read at every call, not cached at construction."""
    case = two_machine_case()
    models = default_machine_models(case)
    engine = _Engine(case, models, initial_state(case, models))
    n = engine.nm
    y = engine.y.copy()
    y[2 * n : 3 * n] = 0.5  # EMFs sag: the regulators push up
    engine.hi = np.where(np.arange(4 * n) >= 2 * n, y, engine.hi)
    held = engine.rhs(y)
    assert np.all(held[2 * n : 3 * n] == 0.0)
    assert_bitwise_equal(held, reference_rhs(engine, y))
    want = reference_step(engine, y, 0.01)
    assert np.all(want[2 * n : 3 * n] == 0.5)
    assert_bitwise_equal(engine.step(y, 0.01), want)


def test_shared_state_is_not_mutated_by_runs():
    """The initial state that re_evaluate shares across its dynamic rungs
    comes out of every run as it went in, so a run from a shared state
    equals a run from a freshly built one."""
    case = two_machine_case()
    models = default_machine_models(case)
    state = initial_state(case, models)
    frozen = {f: np.copy(getattr(state, f)) for f in
              ("delta", "omega", "efd", "pm", "vref", "pm_ref", "inertia", "voltages")}
    options = ScenarioOptions(t_end=2.0)
    orderings = [(1, 2), (1, 3)], [(1, 3), (1, 2)]
    for order in orderings:
        schedule = SwitchingSchedule.evenly_spaced(
            [OutageAction.open_branch(a, b) for a, b in order], interval=0.5
        )
        shared, _ = run_scenario(case, schedule, models, options, state)
        for name, value in frozen.items():
            assert_bitwise_equal(getattr(state, name), value)
        fresh, _ = run_scenario(case, schedule, models, options,
                                initial_state(case, models))
        assert_bitwise_equal(shared.angles_deg, fresh.angles_deg)
        assert_bitwise_equal(shared.voltages, fresh.voltages)
