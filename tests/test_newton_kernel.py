"""The fixed-pattern Newton kernel against the sparse-algebra path it replaced.

The references below are the Jacobian assembly (MATPOWER's ``dSbus_dV``
as sparse products, then fancy slicing and ``bmat``) and the per-bus
reactive-limit loops that ``solve_newton`` used before the kernel.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
import scipy.sparse as sp

from gridimpact import powerflow
from gridimpact.model import Branch, Bus, Generator, GridCase
from gridimpact.powerflow import PowerFlowOptions, _Jacobian, build_admittance, solve_newton
from gridimpact.topology import apply_substation_outage, find_islands


def reference_dSbus_dV(Y: sp.csr_matrix, V: np.ndarray):
    """Partial derivatives of the injections wrt angle and magnitude."""
    Ibus = Y @ V
    diagV = sp.diags(V).tocsr()
    diagI = sp.diags(Ibus).tocsr()
    diagVnorm = sp.diags(V / np.abs(V)).tocsr()
    dS_dVa = 1j * diagV @ (diagI - Y @ diagV).conjugate()
    dS_dVm = diagV @ (Y @ diagVnorm).conjugate() + diagI.conjugate() @ diagVnorm
    return dS_dVa.tocsr(), dS_dVm.tocsr()


def reference_jacobian(Y, V, pvpq, pq) -> sp.csc_matrix:
    dS_dVa, dS_dVm = reference_dSbus_dV(Y, V)
    J11 = dS_dVa[pvpq][:, pvpq].real
    J12 = dS_dVm[pvpq][:, pq].real
    J21 = dS_dVa[pq][:, pvpq].imag
    J22 = dS_dVm[pq][:, pq].imag
    return sp.bmat([[J11, J12], [J21, J22]], format="csc")


def bus_types(case: GridCase, take: np.ndarray, slack: int):
    """(pvpq, pq) positions as solve_newton splits them before any limit."""
    arr = case.arrays
    is_pv = np.isin(arr.kind[take], ("PV", "slack")) & arr.has_machine[take]
    is_pv[slack] = False
    pq = np.flatnonzero(~is_pv)
    pq = pq[pq != slack]
    return np.concatenate([np.flatnonzero(is_pv), pq]), pq


def kernel_jacobian(jac: _Jacobian, V: np.ndarray, pvpq, pq) -> tuple[sp.csc_matrix, np.ndarray]:
    """Split ``jac`` for (pvpq, pq) and fill it at about ``V`` (the kernel
    computes the voltages from their angles and magnitudes): the raw CSC
    arrays as a matrix, and the voltages they were filled at."""
    n = V.size
    jac.split(np.concatenate([pvpq, n + pq]))
    jac.injections(np.angle(V), np.abs(V))
    size = pvpq.size + pq.size
    J = sp.csc_matrix((jac.fill().copy(), jac.indices, jac.jptr), shape=(size, size))
    return J, jac.V.copy()


def assert_kernel_matches(Y, V, pvpq, pq) -> None:
    """Equal values within 1e-12 relative; every reference nonzero lies on
    the kernel's pattern, which may also store zeros, with each column's
    rows sorted and distinct, as SuperLU's first solve is given them."""
    J, V = kernel_jacobian(_Jacobian(Y), V, pvpq, pq)
    want = reference_jacobian(Y, V, pvpq, pq).toarray()
    coo = J.tocoo()
    stored = np.zeros(J.shape, dtype=bool)
    stored[coo.row, coo.col] = True
    assert J.indices.dtype == J.indptr.dtype == np.intc
    for a, b in zip(J.indptr[:-1], J.indptr[1:]):
        assert np.all(np.diff(J.indices[a:b]) > 0)
    assert not np.any((want != 0) & ~stored)
    assert np.all(np.abs(J.toarray() - want) <= 1e-12 * np.abs(want))


def stored_voltages(case: GridCase, take: np.ndarray) -> np.ndarray:
    arr = case.arrays
    return arr.vm[take] * np.exp(1j * arr.va[take])


def test_jacobian_base_case_stored_voltages(case118):
    take = np.arange(len(case118.buses))
    slack = case118.bus_index[69]
    pvpq, pq = bus_types(case118, take, slack)
    Y = build_admittance(case118)
    assert_kernel_matches(Y, stored_voltages(case118, take), pvpq, pq)


def test_jacobian_base_case_perturbed_voltages(case118):
    take = np.arange(len(case118.buses))
    pvpq, pq = bus_types(case118, take, case118.bus_index[69])
    Y = build_admittance(case118)
    rng = np.random.default_rng(7)
    for _ in range(5):
        V = stored_voltages(case118, take) * (
            rng.uniform(0.9, 1.1, take.size) * np.exp(1j * rng.uniform(-0.3, 0.3, take.size))
        )
        assert_kernel_matches(Y, V, pvpq, pq)


def test_jacobian_islanded_reduction(case118):
    """Substation 100 splits the network; each servable island's own
    admittance in the reduced case, with its own slack."""
    reduced, _, _ = apply_substation_outage(case118, [100])
    partition = find_islands(reduced)
    assert len(partition) > 1
    arr = reduced.arrays
    solved = 0
    for isl in partition.islands:
        if not isl.servable or len(isl.buses) < 2:
            continue
        ids = sorted(isl.buses)
        take = np.array([reduced.bus_index[b] for b in ids])
        pvpq, pq = bus_types(reduced, take, ids.index(isl.slack_bus))
        assert_kernel_matches(arr.admittance(arr.status, take), stored_voltages(reduced, take),
                              pvpq, pq)
        solved += 1
    assert solved >= 1


def test_jacobian_after_pv_to_pq_switch(case118):
    """A split with every other PV bus moved to PQ, as after q-limit latching."""
    take = np.arange(len(case118.buses))
    pvpq, pq = bus_types(case118, take, case118.bus_index[69])
    pv = pvpq[: pvpq.size - pq.size]
    switched = pv[::2]
    pv = pv[1::2]
    pq = np.sort(np.concatenate([pq, switched]))
    Y = build_admittance(case118)
    V = stored_voltages(case118, take)
    assert_kernel_matches(Y, V, np.concatenate([pv, pq]), pq)


def test_split_reindexes_in_place(case118):
    """One kernel re-split to a new PV/PQ pattern gives that pattern's
    Jacobian, not a stale one."""
    take = np.arange(len(case118.buses))
    pvpq, pq = bus_types(case118, take, case118.bus_index[69])
    Y = build_admittance(case118)
    jac = _Jacobian(Y)
    kernel_jacobian(jac, stored_voltages(case118, take), pvpq, pq)
    pv = pvpq[: pvpq.size - pq.size]
    pq2 = np.sort(np.concatenate([pq, pv[:3]]))
    pvpq2 = np.concatenate([pv[3:], pq2])
    J, V = kernel_jacobian(jac, stored_voltages(case118, take), pvpq2, pq2)
    got = J.toarray()
    want = reference_jacobian(Y, V, pvpq2, pq2).toarray()
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


# -- reactive limits -----------------------------------------------------------


def reference_q_limit_pass(qg, vm, vset, qmin, qmax, is_pv, q_mode, switch_count) -> bool:
    """The per-bus loops that preceded the vectorized pass."""
    changed = False
    pv_now = np.flatnonzero(is_pv & (q_mode == 0))
    for k in pv_now:
        if switch_count[k] >= 3:
            continue
        if qg[k] > qmax[k] + 1e-7:
            q_mode[k] = 1
            switch_count[k] += 1
            changed = True
        elif qg[k] < qmin[k] - 1e-7:
            q_mode[k] = -1
            switch_count[k] += 1
            changed = True
    for k in np.flatnonzero(is_pv & (q_mode != 0)):
        if switch_count[k] >= 3:
            continue
        if q_mode[k] == 1 and vm[k] > vset[k] + 1e-7:
            q_mode[k] = 0
            vm[k] = vset[k]
            switch_count[k] += 1
            changed = True
        elif q_mode[k] == -1 and vm[k] < vset[k] - 1e-7:
            q_mode[k] = 0
            vm[k] = vset[k]
            switch_count[k] += 1
            changed = True
    return changed


@pytest.mark.parametrize("seed", range(4))
def test_q_limit_pass_equals_loops(seed):
    """Random states, limits and latch histories, some voltages exactly at
    their setpoints: the vectorized pass and the loops agree bit for bit."""
    rng = random.Random(seed)
    for _ in range(100):
        _compare_q_limit_pass(rng)


def _compare_q_limit_pass(rng: random.Random) -> None:
    n = rng.randint(1, 12)

    def values(lo, hi):
        return np.array([rng.choice((lo, hi, rng.uniform(lo, hi))) for _ in range(n)])

    qmin = values(-20.0, 0.0)
    qmax = values(0.0, 20.0)
    vset = values(0.97, 1.03)
    state = dict(
        qg=values(-30.0, 30.0),
        vm=np.where([rng.random() < 0.3 for _ in range(n)], vset, values(0.95, 1.05)),
        vset=vset,
        qmin=qmin,
        qmax=qmax,
        is_pv=np.array([rng.random() < 0.7 for _ in range(n)]),
        q_mode=np.array([rng.choice((-1, 0, 0, 1)) for _ in range(n)]),
        switch_count=np.array([rng.randint(0, 3) for _ in range(n)]),
    )
    ref = {k: v.copy() for k, v in state.items()}
    got = {k: v.copy() for k, v in state.items()}
    assert powerflow._q_limit_pass(**got) == reference_q_limit_pass(**ref)
    for key in ("vm", "q_mode", "switch_count"):
        assert np.array_equal(got[key], ref[key]), key


def released_case() -> GridCase:
    """A line slack-A-B. A must absorb far beyond q_min to hold 0.97 pu and
    B needs slightly more than q_max to hold 1.0 pu: both latch in the
    first pass, and A's lost absorption lifts B above its setpoint, so
    B is released in the second."""
    return GridCase(
        base_mva=100.0,
        buses=(
            Bus(id=1, kind="slack"),
            Bus(id=2, kind="PV", load_p=10.0),
            Bus(id=3, kind="PV", load_p=40.0, load_q=10.0),
        ),
        branches=(
            Branch(from_bus=1, to_bus=2, resistance=0.01, reactance=0.1),
            Branch(from_bus=2, to_bus=3, resistance=0.01, reactance=0.1),
        ),
        generators=(
            Generator(bus=1, p_output=30.0),
            Generator(bus=2, p_output=10.0, v_setpoint=0.97, q_min=-2.0, q_max=99.0),
            Generator(bus=3, p_output=20.0, v_setpoint=1.0, q_min=-99.0, q_max=41.0),
        ),
        substations=(),
    )


def solve_recording(monkeypatch, q_limit_pass):
    """Solve ``released_case`` with this pass; returns (solution, the
    (q_mode, switch_count) after each pass)."""
    passes = []

    def recording(*args):
        changed = q_limit_pass(*args)
        passes.append((args[6].copy(), args[7].copy()))
        return changed

    monkeypatch.setattr(powerflow, "_q_limit_pass", recording)
    return solve_newton(released_case(), PowerFlowOptions(flat_start=True)), passes


def test_pv_bus_released_after_q_max(monkeypatch):
    sol, passes = solve_recording(monkeypatch, powerflow._q_limit_pass)
    ref_sol, ref_passes = solve_recording(monkeypatch, reference_q_limit_pass)
    # bus 3 latches at q_max, then returns to PV at its setpoint
    assert [m[2] for m, _ in passes] == [1, 0, 0]
    assert passes[-1][1][2] == 2
    assert sol.converged and sol.vm[released_case().bus_index[3]] == 1.0
    assert len(passes) == len(ref_passes)
    for (mode, count), (ref_mode, ref_count) in zip(passes, ref_passes):
        assert np.array_equal(mode, ref_mode)
        assert np.array_equal(count, ref_count)
    assert np.array_equal(sol.vm, ref_sol.vm)
    assert sol.iterations == ref_sol.iterations
