"""Ordering reuse in the Newton solve against a plain ``spsolve`` loop.

``_Jacobian.solve`` orders each PV/PQ split's pattern once (COLAMD, through
``splu``) and solves the split's later iterations in that order. The
reference below is the Newton loop as it was before: the case's admittance
matrix sliced to the island, and ``spsolve`` with its default ordering on
every iteration. Both must give the same voltages bit for bit.
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from gridimpact import powerflow
from gridimpact.model import Branch, Bus, Generator, GridCase
from gridimpact.powerflow import PowerFlowOptions, _Jacobian, solve_newton
from gridimpact.topology import apply_substation_outage, find_islands

from screening_fixture import fixture_combinations
from test_newton_kernel import released_case


def reference_newton(case, options=PowerFlowOptions(), bus_subset=None, slack_override=None):
    """(vm, va, iterations, converged, cause) of the plain-spsolve loop."""
    arr = case.arrays
    ids = [b.id for b in case.buses] if bus_subset is None else list(bus_subset)
    take = np.array([case.bus_index[b] for b in ids], dtype=int)
    n, base = len(ids), case.base_mva
    pd, qd = arr.load_p[take], arr.load_q[take]
    qmin, qmax, vset = arr.q_min[take], arr.q_max[take], arr.v_set[take]
    has_machine, kind = arr.has_machine[take], arr.kind[take]
    Y = powerflow.build_admittance(case).matrix
    if bus_subset is not None:
        Y = Y[take][:, take]
    islack = (ids.index(slack_override) if slack_override is not None
              else int(np.flatnonzero(kind == "slack")[0]))
    is_pv = ((kind == "PV") | (kind == "slack")) & has_machine
    is_pv[islack] = False
    va_slack = arr.va[take[islack]]
    if options.flat_start:
        vm, va = np.ones(n), np.full(n, va_slack)
    else:
        vm, va = arr.vm[take], arr.va[take]
    vm[is_pv] = vset[is_pv]
    if has_machine[islack]:
        vm[islack] = vset[islack]
    va[islack] = va_slack
    p_spec = (arr.gen_p[take] - pd) / base
    q_spec = (arr.gen_q[take] - qd) / base
    q_mode = np.zeros(n, dtype=int)
    switch_count = np.zeros(n, dtype=int)
    iterations, converged, cause = 0, False, None
    jac = _Jacobian(Y)
    Y = jac.Y
    split = True
    while iterations <= options.max_iterations:
        if split:
            pv_mask = is_pv & (q_mode == 0)
            pq_mask = ~pv_mask
            pq_mask[islack] = False
            pq_idx = np.flatnonzero(pq_mask)
            pvpq = np.concatenate([np.flatnonzero(pv_mask), pq_idx])
            at_max, at_min = q_mode == 1, q_mode == -1
            q_target = q_spec.copy()
            q_target[at_max] = (qmax[at_max] - qd[at_max]) / base
            q_target[at_min] = (qmin[at_min] - qd[at_min]) / base
        V = vm * np.exp(1j * va)
        Ibus = Y @ V
        S = V * np.conj(Ibus)
        F = np.concatenate([S.real[pvpq] - p_spec[pvpq], S.imag[pq_idx] - q_target[pq_idx]])
        mismatch = float(np.max(np.abs(F))) if F.size else 0.0
        if not np.isfinite(mismatch):
            cause = "numerical_overflow"
            break
        if mismatch <= options.tolerance:
            if options.enforce_q_limits and powerflow._q_limit_pass(
                S.imag * base + qd, vm, vset, qmin, qmax, is_pv, q_mode, switch_count
            ):
                split = True
                continue
            converged = True
            break
        if iterations == options.max_iterations:
            cause = "max_iterations"
            break
        if split:
            jac.split(pvpq, pq_idx)
            split = False
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MatrixRankWarning)
            dx = spsolve(jac.fill(V, Ibus), -F)  # COLAMD on every iteration
        if not np.all(np.isfinite(dx)):
            cause = "singular_jacobian"
            break
        va[pvpq] += dx[:pvpq.size]
        vm[pq_idx] += dx[pvpq.size:]
        iterations += 1
    return vm, va, iterations, converged, cause


def assert_same_solve(case, bus_subset=None, slack_override=None, options=PowerFlowOptions()):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MatrixRankWarning)
        sol = solve_newton(case, options, bus_subset=bus_subset, slack_override=slack_override)
    vm, va, iterations, converged, cause = reference_newton(
        case, options, bus_subset, slack_override
    )
    ids = [b.id for b in case.buses] if bus_subset is None else list(bus_subset)
    take = np.array([case.bus_index[b] for b in ids], dtype=int)
    assert (sol.iterations, sol.converged, sol.cause) == (iterations, converged, cause)
    assert np.array_equal(sol.vm[take], vm, equal_nan=True)
    assert np.array_equal(sol.va[take], va, equal_nan=True)
    return sol


def test_fixture_islands_equal_the_plain_loop(case118):
    """Every servable island of the 118 level-1 reductions and the 45 AC07
    pairs: the same voltages bit for bit, iterations and cause."""
    solves = 0
    for combo in fixture_combinations(case118):
        reduced, _, _ = apply_substation_outage(case118, combo.substations)
        for isl in find_islands(reduced).islands:
            if isl.servable:
                assert_same_solve(reduced, sorted(isl.buses), isl.slack_bus)
                solves += 1
    assert solves >= 163


def test_whole_case_equals_the_plain_loop(case118):
    sol = assert_same_solve(case118)
    assert sol.converged and sol.iterations == 7
    assert_same_solve(case118, options=PowerFlowOptions(flat_start=True))


# -- one ordering per split ----------------------------------------------------


def count_orderings(monkeypatch):
    """Count splits, ``splu`` calls and the orderings ``spsolve`` is asked for."""
    calls = {"split": 0, "splu": 0, "spsolve": []}
    split, splu, spsolve_ = _Jacobian.split, spla.splu, spla.spsolve

    def counting_split(self, *args):
        calls["split"] += 1
        return split(self, *args)

    def counting_splu(*args, **kwargs):
        calls["splu"] += 1
        return splu(*args, **kwargs)

    def counting_spsolve(*args, **kwargs):
        calls["spsolve"].append(kwargs.get("permc_spec"))
        return spsolve_(*args, **kwargs)

    monkeypatch.setattr(_Jacobian, "split", counting_split)
    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(spla, "spsolve", counting_spsolve)
    return calls


def test_q_limit_switch_orders_the_new_split(monkeypatch, case118):
    """The base case switches PV buses at their limits twice: each of the
    three splits is ordered once, and every other solve reuses its order."""
    calls = count_orderings(monkeypatch)
    sol = solve_newton(case118)
    assert sol.converged
    assert calls["split"] == 3
    assert calls["splu"] == 3
    assert calls["spsolve"] == ["NATURAL"] * (sol.iterations - 3)
    monkeypatch.undo()
    assert_same_solve(case118)


def test_latch_and_release_reorder(monkeypatch):
    """A PV bus latched at q_max and released again: one ordering per split."""
    case = released_case()
    options = PowerFlowOptions(flat_start=True)
    calls = count_orderings(monkeypatch)
    sol = solve_newton(case, options)
    assert sol.converged
    assert calls["split"] >= 2
    assert calls["splu"] == calls["split"]
    assert len(calls["spsolve"]) == sol.iterations - calls["split"]
    monkeypatch.undo()
    assert_same_solve(case, options=options)


def test_ordered_solve_equals_spsolve():
    """``_Jacobian.solve`` on one split's random Jacobians: the first call
    orders, the later ones reuse the order; all equal ``spsolve``."""
    case = _ring_case(12)
    arr = case.arrays
    jac = _Jacobian(arr.ybus)
    pvpq = np.arange(1, 12)
    pq = np.arange(4, 12)
    jac.split(pvpq, pq)
    rng = np.random.default_rng(3)
    for step in range(5):
        V = rng.uniform(0.9, 1.1, 12) * np.exp(1j * rng.uniform(-0.4, 0.4, 12))
        rhs = rng.standard_normal(pvpq.size + pq.size)
        natural = _Jacobian(arr.ybus)
        natural.split(pvpq, pq)
        want = spsolve(natural.fill(V, arr.ybus @ V), rhs)
        jac.fill(V, jac.Y @ V)
        assert np.array_equal(jac.solve(rhs), want), step
        assert jac.perm is not None


# -- singular Jacobians ----------------------------------------------------------


def _ring_case(n: int) -> GridCase:
    buses = [Bus(id=1, kind="slack")] + [
        Bus(id=b, kind="PV" if b < 4 else "PQ", load_p=10.0, load_q=3.0) for b in range(2, n + 1)
    ]
    gens = [Generator(bus=1, p_output=60.0)] + [
        Generator(bus=b, p_output=20.0, v_setpoint=1.01) for b in range(2, 4)
    ]
    branches = [
        Branch(from_bus=b, to_bus=b % n + 1, resistance=0.01, reactance=0.08)
        for b in range(1, n + 1)
    ]
    return GridCase(base_mva=100.0, buses=tuple(buses), branches=tuple(branches),
                    generators=tuple(gens), substations=())


def isolated_load_case() -> GridCase:
    """A ring plus a load bus with no branch: its Jacobian column is zero."""
    ring = _ring_case(6)
    return ring.with_(buses=ring.buses + (Bus(id=7, load_p=5.0, load_q=1.0),))


def test_singular_on_the_first_solve_of_a_split():
    """An exactly singular J: ``splu`` raises on the split's first solve,
    which ends the solve as ``singular_jacobian`` like the plain loop."""
    sol = assert_same_solve(isolated_load_case())
    assert (sol.converged, sol.cause, sol.iterations) == (False, "singular_jacobian", 0)

    case = isolated_load_case()
    jac = _Jacobian(case.arrays.ybus)
    pq = np.arange(1, 7)
    jac.split(pq, pq)
    V = np.ones(7, dtype=complex)
    jac.fill(V, jac.Y @ V)
    with pytest.raises(RuntimeError):
        jac.solve(np.ones(12))


def zero_column_on_fill(monkeypatch, which: int) -> list[bool]:
    """Make the ``which``-th fill of every split exactly singular by zeroing
    one column of J (whatever its column order). Returns, per zeroed fill,
    whether the split's order was already in use."""
    fill, split = _Jacobian.fill, _Jacobian.split
    ordered: list[bool] = []

    def counting_split(self, *args):
        self.fills = 0
        return split(self, *args)

    def singular_fill(self, V, Ibus):
        J = fill(self, V, Ibus)
        self.fills += 1
        if self.fills == which:
            J.data[J.indptr[0]:J.indptr[1]] = 0.0
            ordered.append(self.perm is not None)
        return J

    monkeypatch.setattr(_Jacobian, "split", counting_split)
    monkeypatch.setattr(_Jacobian, "fill", singular_fill)
    return ordered


@pytest.mark.parametrize("which", [1, 3])
def test_singular_jacobian_after_ordering(monkeypatch, which, case118):
    """A J that turns singular on the split's first solve (``splu`` raises)
    or on a later one (the ordered ``spsolve`` returns NaN): both end the
    solve as ``singular_jacobian`` after the same iterations as the plain
    loop."""
    ordered = zero_column_on_fill(monkeypatch, which)
    sol = assert_same_solve(case118)
    assert (sol.converged, sol.cause) == (False, "singular_jacobian")
    # the reference loop zeroes the same fill again after the solve's one
    assert ordered[0] == (which > 1)
    if which == 1:
        assert sol.iterations == 0


def test_random_reductions_equal_the_plain_loop(case118):
    """A seeded sample of level-3 reductions, islands included."""
    ids = [s.id for s in case118.substations]
    rng = random.Random(11)
    for _ in range(20):
        reduced, _, _ = apply_substation_outage(case118, rng.sample(ids, 3))
        for isl in find_islands(reduced).islands:
            if isl.servable:
                assert_same_solve(reduced, sorted(isl.buses), isl.slack_bus)
