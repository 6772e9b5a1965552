"""Ordering reuse in the Newton solve against a plain ``spsolve`` loop.

``_Jacobian.solve`` orders each PV/PQ split's pattern once (COLAMD, through
SuperLU's ``gstrf`` called as ``splu`` calls it) and solves the split's later
iterations in that order (``gssv`` with ``NATURAL``, as ``spsolve`` calls it).
The reference below is the Newton loop as it was before: the case's admittance
matrix sliced to the island, the Jacobian kernel that built a ``csc_matrix``
per split (``ReferenceJacobian``, kept as it was), and ``spsolve`` with its
default ordering on every iteration. Both must give the same voltages bit for
bit.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import MatrixRankWarning, spsolve
from scipy.sparse.linalg._dsolve import _superlu

from gridimpact import powerflow
from gridimpact.model import Branch, Bus, Generator, GridCase
from gridimpact.powerflow import PowerFlowOptions, _Jacobian, solve_newton
from gridimpact.screening import run_screening
from gridimpact.topology import apply_substation_outage, find_islands

from screening_fixture import fixture_combinations
from test_newton_kernel import released_case
from test_screening import BENCH_SUBSET


class ReferenceJacobian:
    """The Newton Jacobian of one network, on a fixed sparsity pattern.

    The pattern is the admittance matrix's, in canonical CSR form with
    every diagonal entry stored. ``split`` maps it onto the four blocks of
    the Jacobian for one PV/PQ split; ``fill`` computes the values of
    dS/dVa and dS/dVm over Y's nonzeros with the scalar expressions of
    MATPOWER's ``dSbus_dV`` and gathers them into the Jacobian's data;
    ``solve`` orders the split's pattern once and reuses that order.
    """

    def __init__(self, Y: sp.csr_matrix):
        n = Y.shape[0]
        rows = np.repeat(np.arange(n, dtype=Y.indices.dtype), np.diff(Y.indptr))
        diag = np.flatnonzero(rows == Y.indices)
        if diag.size != n or not Y.has_canonical_format:
            import scipy.sparse as sp

            coo = Y.tocoo()
            at = np.arange(n)
            # coo -> csr sums the duplicates and keeps the explicit zeros
            Y = sp.csr_matrix(
                (np.concatenate([coo.data, np.zeros(n)]),
                 (np.concatenate([coo.row, at]), np.concatenate([coo.col, at]))),
                shape=(n, n),
            )
            rows = np.repeat(at, np.diff(Y.indptr))
            diag = np.flatnonzero(rows == Y.indices)
        self.Y = Y
        self.rows = rows
        self.cols = Y.indices
        self.diag = diag  # in row order
        # The four blocks' candidate entries: row and column in the bus
        # space of [angles; magnitudes], and the slot of their value in
        # fill's interleaved (real, imaginary) dS/dVa then dS/dVm.
        cols = self.cols
        self.rows4 = np.concatenate([rows, rows, rows + n, rows + n])
        self.cols4 = np.concatenate([cols, cols + n, cols, cols + n])
        k = 2 * np.arange(rows.size)
        self.slot = np.concatenate([k, k + 2 * rows.size, k + 1, k + 2 * rows.size + 1])
        self.J: sp.csc_matrix | None = None  # set by split
        # the split's order (new label of each row and column) and its
        # inverse, set by its first solve
        self.perm: np.ndarray | None = None
        self.inv: np.ndarray | None = None

    def split(self, pvpq: np.ndarray, pq: np.ndarray) -> None:
        """Index the Jacobian's entries for this PV/PQ split.

        Blocks: Re dS/dVa over (pvpq, pvpq), Re dS/dVm over (pvpq, pq),
        Im dS/dVa over (pq, pvpq), Im dS/dVm over (pq, pq). ``source``
        indexes ``fill``'s values, the real and imaginary parts of dS/dVa
        and then dS/dVm, interleaved.
        """
        import scipy.sparse as sp

        n, npvpq = self.diag.size, pvpq.size
        size = npvpq + pq.size
        # each bus's Jacobian row/column in the angle, then magnitude half
        at = np.full(2 * n, -1)
        at[pvpq] = np.arange(npvpq)
        at[n + pq] = np.arange(npvpq, size)
        rows, cols = at[self.rows4], at[self.cols4]
        entry = np.flatnonzero((rows >= 0) & (cols >= 0))
        rows, cols = rows[entry], cols[entry]
        # the keys are unique, so any sort gives column-major order
        order = np.argsort(cols * size + rows)
        self.source = self.slot[entry[order]]
        indptr = np.zeros(size + 1, dtype=np.intc)
        np.cumsum(np.bincount(cols, minlength=size), out=indptr[1:])
        self.J = sp.csc_matrix(
            (np.zeros(order.size), rows[order].astype(np.intc), indptr), shape=(size, size)
        )
        self.J.has_canonical_format = True
        self.perm = None

    def fill(self, V: np.ndarray, Ibus: np.ndarray) -> sp.csc_matrix:
        """The Jacobian at voltages ``V``, with ``Ibus = Y V``."""
        y, d, nnz = self.Y.data, self.diag, self.cols.size
        dS = np.empty(2 * nnz, dtype=complex)
        dVa, dVm = dS[:nnz], dS[nnz:]
        Vn = V / np.abs(V)
        Vr = V[self.rows]
        yv = y * V[self.cols]
        np.multiply(1j * Vr, np.conj(-yv), out=dVa)
        dVa[d] = (1j * V) * np.conj(Ibus - yv[d])
        np.multiply(Vr, np.conj(y * Vn[self.cols]), out=dVm)
        dVm[d] += np.conj(Ibus) * Vn
        np.take(dS.view(float), self.source, out=self.J.data)
        return self.J

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``J^-1 rhs`` for the Jacobian last filled.

        The split's first solve factorizes with COLAMD, ``spsolve``'s
        default order, and then renumbers J's rows and columns alike into
        that order, keeping each column's entries in their stored order.
        SuperLU then sees the same matrix under the same labels, diagonal
        pivot preference included, so the split's later solves skip the
        ordering (``NATURAL``) and give the same result bit for bit.
        Raises ``RuntimeError`` when the first solve meets an exactly
        singular J; later ones return NaN.
        """
        from scipy.sparse.linalg import splu, spsolve

        perm = self.perm
        if perm is not None:
            return spsolve(self.J, rhs[self.inv], permc_spec="NATURAL")[perm]
        lu = splu(self.J)
        dx = lu.solve(rhs)
        # column j of the ordered J is column inv[j] of this one: an O(nnz)
        # gather of whole columns, each relabelled but not re-sorted (the
        # flag keeps spsolve from sorting them)
        J, perm = self.J, lu.perm_c
        inv = np.argsort(perm)
        start = J.indptr[inv]
        count = J.indptr[inv + 1] - start
        indptr = np.zeros_like(J.indptr)
        np.cumsum(count, out=indptr[1:])
        gather = np.repeat(start - indptr[:-1], count) + np.arange(indptr[-1])
        J.indices, J.indptr = perm[J.indices[gather]].astype(np.intc), indptr
        J.has_canonical_format = True
        self.source = self.source[gather]
        self.perm, self.inv = perm, inv
        return dx


def reference_newton(case, options=PowerFlowOptions(), bus_subset=None, slack_override=None):
    """(vm, va, iterations, converged, cause) of the plain-spsolve loop."""
    arr = case.arrays
    ids = [b.id for b in case.buses] if bus_subset is None else list(bus_subset)
    take = np.array([case.bus_index[b] for b in ids], dtype=int)
    n, base = len(ids), case.base_mva
    pd, qd = arr.load_p[take], arr.load_q[take]
    qmin, qmax, vset = arr.q_min[take], arr.q_max[take], arr.v_set[take]
    has_machine, kind = arr.has_machine[take], arr.kind[take]
    Y = powerflow.build_admittance(case)
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
    jac = ReferenceJacobian(Y)
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
            if powerflow._q_limit_pass(
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


def assert_same_solve(case, island=None, options=PowerFlowOptions()):
    """``solve_newton`` on the whole case or on ``island``, whose buses the
    reference takes in the order of the island's positions."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MatrixRankWarning)
        sol = solve_newton(case, options, island=island)
    if island is None:
        take = np.arange(len(case.buses))
        vm, va, iterations, converged, cause = reference_newton(case, options)
    else:
        take = island.at
        vm, va, iterations, converged, cause = reference_newton(
            case, options, [case.buses[j].id for j in take], island.slack_bus
        )
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
                assert_same_solve(reduced, isl)
                solves += 1
    assert solves >= 163


def test_unsorted_island_positions_equal_the_plain_loop(case118):
    """An island whose positions come in any order: the kernel sorts its
    restriction of Y as slicing does."""
    reduced, _, _ = apply_substation_outage(case118, [100])
    rng = np.random.default_rng(5)
    for isl in find_islands(reduced).islands:
        for at in (isl.at[::-1], rng.permutation(isl.at)):
            assert_same_solve(reduced, replace(isl, at=at))


def test_whole_case_equals_the_plain_loop(case118):
    sol = assert_same_solve(case118)
    assert sol.converged and sol.iterations == 7
    assert_same_solve(case118, options=PowerFlowOptions(flat_start=True))


# -- one ordering per split ----------------------------------------------------


def count_orderings(monkeypatch):
    """Count splits, ``gstrf`` calls (each orders with COLAMD) and the
    orderings ``gssv`` is asked for."""
    calls = {"split": 0, "gstrf": 0, "gssv": []}
    split, gstrf, gssv = _Jacobian.split, _superlu.gstrf, _superlu.gssv

    def counting_split(self, *args):
        calls["split"] += 1
        return split(self, *args)

    def counting_gstrf(*args, **kwargs):
        calls["gstrf"] += 1
        return gstrf(*args, **kwargs)

    def counting_gssv(*args, **kwargs):
        calls["gssv"].append(kwargs["options"]["ColPerm"])
        return gssv(*args, **kwargs)

    monkeypatch.setattr(_Jacobian, "split", counting_split)
    monkeypatch.setattr(_superlu, "gstrf", counting_gstrf)
    monkeypatch.setattr(_superlu, "gssv", counting_gssv)
    return calls


def test_q_limit_switch_orders_the_new_split(monkeypatch, case118):
    """The base case switches PV buses at their limits twice: each of the
    three splits is ordered once, and every other solve reuses its order."""
    calls = count_orderings(monkeypatch)
    sol = solve_newton(case118)
    assert sol.converged
    assert calls["split"] == 3
    assert calls["gstrf"] == 3
    assert calls["gssv"] == ["NATURAL"] * (sol.iterations - 3)
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
    assert calls["gstrf"] == calls["split"]
    assert calls["gssv"] == ["NATURAL"] * (sol.iterations - calls["split"])
    monkeypatch.undo()
    assert_same_solve(case, options=options)


def unknowns(n: int, pvpq: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """The split's unknowns in the bus space of [angles; magnitudes]."""
    return np.concatenate([pvpq, n + pq])


def test_ordered_solve_equals_spsolve():
    """``_Jacobian.solve`` on one split's random Jacobians: the first call
    orders, the later ones reuse the order; all equal ``spsolve`` on the
    reference kernel's Jacobian, whose values the kernel's equal."""
    case = _ring_case(12)
    arr = case.arrays
    Y = arr.admittance(arr.status)
    jac = _Jacobian(Y)
    pvpq = np.arange(1, 12)
    pq = np.arange(4, 12)
    jac.split(unknowns(12, pvpq, pq))
    natural = ReferenceJacobian(Y)
    natural.split(pvpq, pq)
    rng = np.random.default_rng(3)
    for step in range(5):
        jac.injections(rng.uniform(-0.4, 0.4, 12), rng.uniform(0.9, 1.1, 12))
        rhs = rng.standard_normal(pvpq.size + pq.size)
        J = natural.fill(jac.V, Y @ jac.V)
        want = spsolve(J, rhs)
        data = jac.fill()
        if step == 0:
            assert np.array_equal(data, J.data)
        assert np.array_equal(jac.solve(rhs), want), step
        assert jac.perm is not None


# -- SuperLU's entry points against the wrappers ---------------------------------


def wrapper_solve(jac: _Jacobian, rhs: np.ndarray) -> np.ndarray:
    """What ``splu(J).solve`` (the split's first solve) or the ordered
    ``spsolve(J, permc_spec="NATURAL")`` give on the kernel's current J."""
    size = jac.jptr.size - 1
    J = sp.csc_matrix((jac.data.copy(), jac.indices.copy(), jac.jptr.copy()),
                      shape=(size, size))
    # an ordered J keeps each column's entries in their stored order
    J.has_canonical_format = True
    if jac.perm is None:
        return spla.splu(J).solve(rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MatrixRankWarning)
        return spla.spsolve(J, rhs[jac.inv], permc_spec="NATURAL")[jac.perm]


def check_solves_against_wrappers(monkeypatch) -> dict:
    """Make every ``_Jacobian.solve`` also solve through the wrappers and
    require the same bytes, or ``RuntimeError`` from both; returns counts."""
    solve = _Jacobian.solve
    seen = {"ordering": 0, "ordered": 0, "raised": 0, "nan": 0}

    def checked(self, rhs):
        first = self.perm is None
        try:
            want = wrapper_solve(self, rhs)
        except RuntimeError:
            assert first
            with pytest.raises(RuntimeError):
                solve(self, rhs)
            seen["raised"] += 1
            raise
        got = solve(self, rhs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        seen["ordering" if first else "ordered"] += 1
        seen["nan"] += bool(np.isnan(got).any())
        return got

    monkeypatch.setattr(_Jacobian, "solve", checked)
    return seen


def test_entry_points_equal_the_wrappers_on_a_screening_pass(monkeypatch, case118):
    """Every Jacobian of the benchmark's seed-42 ``screen-k2`` pass: 533
    solves, 177 of them the first of their split."""
    seen = check_solves_against_wrappers(monkeypatch)
    run_screening(case118, k_max=2, subset=BENCH_SUBSET, workers=1)
    assert seen == {"ordering": 177, "ordered": 356, "raised": 0, "nan": 0}


def test_entry_points_equal_the_wrappers_when_singular(monkeypatch, case118):
    """``RuntimeError`` from both on a split's exactly singular first
    solve, NaN from both on a later one."""
    seen = check_solves_against_wrappers(monkeypatch)
    solve_newton(isolated_load_case())
    assert seen["raised"] == 1
    zero_column_on_fill(monkeypatch, 3)
    sol = solve_newton(case118)
    assert sol.cause == "singular_jacobian"
    assert seen["nan"] == 1


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
    """An exactly singular J: ``gstrf`` raises on the split's first solve,
    which ends the solve as ``singular_jacobian`` like the plain loop."""
    sol = assert_same_solve(isolated_load_case())
    assert (sol.converged, sol.cause, sol.iterations) == (False, "singular_jacobian", 0)

    case = isolated_load_case()
    jac = _Jacobian(case.arrays.admittance(case.arrays.status))
    pq = np.arange(1, 7)
    jac.split(unknowns(7, pq, pq))
    jac.injections(np.zeros(7), np.ones(7))
    jac.fill()
    with pytest.raises(RuntimeError):
        jac.solve(np.ones(12))


def zero_column_on_fill(monkeypatch, which: int) -> list[bool]:
    """Make the ``which``-th fill of every split exactly singular by zeroing
    one column of J (whatever its column order), in the kernel and in the
    reference. Returns, per zeroed fill, whether the split's order was
    already in use."""
    ordered: list[bool] = []

    def patch(cls, column_of):
        fill, split = cls.fill, cls.split

        def counting_split(self, *args):
            self.fills = 0
            return split(self, *args)

        def singular_fill(self, *args):
            out = fill(self, *args)
            self.fills += 1
            if self.fills == which:
                column_of(self, out)[:] = 0.0
                ordered.append(self.perm is not None)
            return out

        monkeypatch.setattr(cls, "split", counting_split)
        monkeypatch.setattr(cls, "fill", singular_fill)

    patch(_Jacobian, lambda jac, data: data[jac.jptr[0]:jac.jptr[1]])
    patch(ReferenceJacobian, lambda jac, J: J.data[J.indptr[0]:J.indptr[1]])
    return ordered


@pytest.mark.parametrize("which", [1, 3])
def test_singular_jacobian_after_ordering(monkeypatch, which, case118):
    """A J that turns singular on the split's first solve (``gstrf`` raises)
    or on a later one (the ordered ``gssv`` reports it, and the solve gives
    NaN): both end the solve as ``singular_jacobian`` after the same
    iterations as the plain loop."""
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
                assert_same_solve(reduced, isl)
