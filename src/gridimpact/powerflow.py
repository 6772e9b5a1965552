"""AC power flow: sparse Newton-Raphson with reactive-limit handling.

Solves the polar mismatch equations with a full Newton iteration and
optional PV -> PQ switching at generator reactive limits. Divergence is
a verdict, not an exception: screening classifies diverged cases, so
``solve_newton`` always returns a solution object with ``converged``
set accordingly and a ``cause`` tag when it failed.

Islanded cases are handled by :func:`solve_islands`, which solves each
servable island separately (with the island slack designated by the
topology layer) and de-energizes dead islands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .model import GridCase
from .topology import IslandPartition, find_islands

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "AdmittanceMatrix",
    "PowerFlowOptions",
    "PowerFlowSolution",
    "Violation",
    "build_admittance",
    "solve_newton",
    "solve_islands",
    "check_violations",
]


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Complex nodal admittance matrix over the case's bus ordering."""

    bus_ids: tuple[int, ...]
    matrix: sp.csr_matrix  # n x n complex


def build_admittance(
    case: GridCase, in_service: np.ndarray | None = None
) -> AdmittanceMatrix:
    """Assemble the nodal admittance matrix from the case's pi entries.

    ``in_service`` is a boolean mask over the case's branches (default:
    their statuses); masked-out branches contribute nothing. Transformer
    taps are on the from side. Raises ``ValueError`` for an in-service
    branch with zero impedance.
    """
    arr = case.arrays
    on = arr.status if in_service is None else np.asarray(in_service, dtype=bool)
    _reject_zero_impedance(case, on)
    Y = arr.ybus.copy() if in_service is None else arr.admittance(on)
    return AdmittanceMatrix(bus_ids=tuple(b.id for b in case.buses), matrix=Y)


def _reject_zero_impedance(case: GridCase, on: np.ndarray) -> None:
    zero = np.flatnonzero(on & np.isnan(case.arrays.yft))
    if zero.size:
        br = case.branches[zero[0]]
        raise ValueError(f"branch {br.from_bus}-{br.to_bus}: zero impedance in service")


@dataclass(frozen=True)
class PowerFlowOptions:
    tolerance: float = 1e-6          # p.u. power mismatch, infinity norm
    max_iterations: int = 20         # total Newton steps, limit rounds included
    flat_start: bool = False         # else warm start from stored bus voltages
    enforce_q_limits: bool = True


@dataclass(frozen=True)
class Violation:
    """An operating-limit violation found in a converged solution."""

    kind: str        # undervoltage | overvoltage | branch_overload
    entity: str      # bus id or "from-to" endpoint pair
    value: float
    limit: float


@dataclass(frozen=True)
class IslandSolve:
    """Per-island convergence record inside a multi-island solution."""

    buses: frozenset[int]
    slack_bus: int | None
    converged: bool
    iterations: int
    max_mismatch: float
    cause: str | None


@dataclass(frozen=True)
class PowerFlowSolution:
    """Power flow result over a case's full bus/branch ordering.

    ``vm``/``va`` align with ``bus_ids``; de-energized buses carry zero
    voltage and ``energized`` False. Flow arrays align with the case's
    branch tuple; out-of-service branches carry zero flow.
    """

    converged: bool
    iterations: int
    max_mismatch: float
    bus_ids: tuple[int, ...]
    vm: np.ndarray
    va: np.ndarray
    energized: np.ndarray
    p_from: np.ndarray
    q_from: np.ndarray
    p_to: np.ndarray
    q_to: np.ndarray
    cause: str | None = None
    islands: tuple[IslandSolve, ...] = ()

    def vm_at(self, bus_id: int) -> float:
        return float(self.vm[self.bus_ids.index(bus_id)])

    def va_at(self, bus_id: int) -> float:
        return float(self.va[self.bus_ids.index(bus_id)])


# What ``splu`` and ``spsolve(..., permc_spec="NATURAL")`` pass to SuperLU.
_SPLU_OPTIONS = dict(DiagPivotThresh=None, ColPerm=None, PanelSize=None, Relax=None)
_NATURAL_OPTIONS = dict(ColPerm="NATURAL")


class _Jacobian:
    """Newton's kernel on one island, as raw arrays on fixed patterns.

    The island's admittance matrix is held in CSR form with sorted columns
    and every diagonal entry stored. ``injections`` computes the voltages,
    ``Ibus = Y V`` and the complex power injections; ``split`` maps Y's
    pattern onto the four blocks of the Jacobian, in CSC form, for one
    PV/PQ split; ``fill`` computes dS/dVa and dS/dVm over Y's nonzeros with
    the scalar expressions of MATPOWER's ``dSbus_dV`` and gathers them into
    the Jacobian's data; ``solve`` orders the split's pattern once and
    reuses that order. Every array an iteration writes is allocated once,
    for the island or for the split.
    """

    def __init__(self, Y: sp.csr_matrix, take: np.ndarray):
        """The kernel of the buses at positions ``take`` of ``Y``'s network."""
        from scipy.sparse import csc_array
        from scipy.sparse._sparsetools import csr_matvec
        from scipy.sparse.linalg._dsolve import _superlu

        # scipy's entry points, imported here: importing this module loads none
        self.csc_array, self.csr_matvec, self.superlu = csc_array, csr_matvec, _superlu
        n = self.n = take.size
        at = np.arange(n)
        pos = np.full(Y.shape[0], -1)
        pos[take] = at
        # the rows of the island's buses, entry by entry, and their columns
        # renumbered (-1 outside the island)
        stop = Y.indptr[take + 1]
        count = stop - Y.indptr[take]
        end = count.cumsum()
        entry = (stop - end).repeat(count) + np.arange(end[-1])
        cols = pos[Y.indices[entry]]
        inside = cols >= 0
        # row-major keys, then every diagonal's with a zero value: the stable
        # sort keeps a stored diagonal ahead of the zero, which is dropped
        key = np.concatenate([(at.repeat(count) * n + cols)[inside], at * (n + 1)])
        order = key.argsort(kind="stable")
        key = key[order]
        first = np.empty(key.size, dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        order = order[first]
        y = np.concatenate([Y.data[entry[inside]], np.zeros(n, dtype=complex)])[order]
        rows, cols = np.divmod(key[first], n)
        nnz = rows.size
        self.y, self.cols = y, cols.astype(np.intc)
        self.indptr = np.concatenate([[0], rows.searchsorted(at, "right")]).astype(np.intc)
        self.diag = (rows == cols).nonzero()[0]  # in row order
        # The four blocks' candidate entries: row and column in the bus
        # space of [angles; magnitudes], and the slot of their value in
        # fill's interleaved (real, imaginary) dS/dVa, dS/dVm, and dS/dVm
        # on the diagonal, which fill computes apart.
        self.rows4 = np.add.outer([0, 0, n, n], rows).ravel()
        self.cols4 = np.add.outer([0, n, 0, n], cols).ravel()
        self.seq = np.arange(4 * nnz)
        slot = 2 * self.seq[:2 * nnz]
        self.vm_diag_at = nnz + self.diag
        slot[self.vm_diag_at] = 4 * nnz + 2 * at
        self.slot = np.concatenate([slot, slot + 1])
        # fill's operands are gathered from U = [1j V, V, Vn]: the row's
        # (1j V, V) and the column's (V, Vn), the latter times (y, y)
        self.U = np.empty(3 * n, dtype=complex)
        self.jV, self.V, self.Vn = self.U[:n], self.U[n:2 * n], self.U[2 * n:]
        self.row_at = np.add.outer([0, n], rows).ravel()
        self.col_at = np.add.outer([n, 2 * n], cols).ravel()
        self.yy = np.concatenate([y, y])
        self.A, self.B = np.empty((2, 2 * nnz), dtype=complex)
        self.dS = np.empty(2 * nnz + n, dtype=complex)  # dS/dVa, dS/dVm, dS/dVm's diagonal
        self.dS_dV, self.dVm_diag = self.dS[:2 * nnz], self.dS[2 * nnz:]
        self.Ibus, self.conj_I, self.S, self.bus_tmp, self.bus_tmp2 = np.empty(
            (5, n), dtype=complex)
        self.abs_V = np.empty(n)
        self.at = np.empty(2 * n, dtype=int)
        self.r4, self.c4 = np.empty((2, 4 * nnz), dtype=int)
        # the split's Jacobian, set by split: CSC arrays, and the order (new
        # label of each row and column) and its inverse set by its first solve
        self.data = self.indices = self.jptr = self.source = None
        self.perm: np.ndarray | None = None
        self.inv: np.ndarray | None = None

    def injections(self, va: np.ndarray, vm: np.ndarray) -> np.ndarray:
        """The complex power injections at voltages ``vm`` at angles ``va``;
        ``V`` and ``Ibus = Y V`` are kept for ``fill``."""
        V, Ibus, n = self.V, self.Ibus, self.n
        np.multiply(1j, va, out=V)
        np.exp(V, out=V)
        np.multiply(vm, V, out=V)
        Ibus.fill(0)
        self.csr_matvec(n, n, self.indptr, self.cols, self.y, V, Ibus)
        np.conjugate(Ibus, out=self.conj_I)
        return np.multiply(V, self.conj_I, out=self.S)

    def split(self, unknown: np.ndarray) -> None:
        """Index the Jacobian's entries for the PV/PQ split whose unknowns
        sit at ``unknown`` in the bus space of [angles; magnitudes]: the
        angles of the PV then PQ buses, then the PQ buses' magnitudes.

        Blocks: Re dS/dVa over (pvpq, pvpq), Re dS/dVm over (pvpq, pq),
        Im dS/dVa over (pq, pvpq), Im dS/dVm over (pq, pq). ``source``
        indexes ``fill``'s values.
        """
        size = unknown.size
        # each bus's Jacobian row/column in the angle, then magnitude half
        at = self.at
        at.fill(-1)
        at[unknown] = self.seq[:size]
        rows = at.take(self.rows4, out=self.r4)
        cols = at.take(self.cols4, out=self.c4)
        entry = (np.minimum(rows, cols) >= 0).nonzero()[0]
        rows, cols = rows[entry], cols[entry]
        # the keys are unique, so any sort gives column-major order
        order = (cols * size + rows).argsort()
        self.source = self.slot[entry[order]]
        self.indices = rows[order].astype(np.intc)
        self.jptr = np.zeros(size + 1, dtype=np.intc)
        self.jptr[1:] = np.bincount(cols, minlength=size).cumsum()
        self.data = np.empty(order.size)
        self.perm = None

    def fill(self) -> np.ndarray:
        """The Jacobian's data at the voltages of the last ``injections``."""
        V, Vn, A, B, bus, d = self.V, self.Vn, self.A, self.B, self.bus_tmp, self.diag
        nnz = self.y.size
        np.multiply(1j, V, out=self.jV)
        np.divide(V, np.abs(V, out=self.abs_V), out=Vn)
        # dS/dVa is (1j V_r) conj(-y V_c) off the diagonal and
        # (1j V) conj(Ibus - y V) on it; dS/dVm is V_r conj(y Vn_c), plus
        # conj(Ibus) Vn on the diagonal
        self.U.take(self.row_at, out=A)
        self.U.take(self.col_at, out=B)
        np.multiply(self.yy, B, out=B)
        Ba = B[:nnz]
        Ba.take(d, out=bus)
        np.subtract(self.Ibus, bus, out=bus)
        np.negative(Ba, out=Ba)
        Ba.put(d, bus)
        np.conjugate(B, out=B)
        np.multiply(A, B, out=self.dS_dV)
        self.dS_dV.take(self.vm_diag_at, out=bus)
        np.add(bus, np.multiply(self.conj_I, Vn, out=self.bus_tmp2), out=self.dVm_diag)
        return self.dS.view(float).take(self.source, out=self.data)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``J^-1 rhs`` for the Jacobian last filled.

        The split's first solve factorizes with COLAMD, ``splu``'s default
        order, and then renumbers J's rows and columns alike into that
        order, keeping each column's entries in their stored order.
        SuperLU then sees the same matrix under the same labels, diagonal
        pivot preference included, so the split's later solves skip the
        ordering (``NATURAL``) and give the same result bit for bit. Both
        call SuperLU's entry points with the arguments that ``splu`` and
        ``spsolve`` pass. Raises ``RuntimeError`` when the first solve
        meets an exactly singular J; later ones return NaN.
        """
        size = self.jptr.size - 1
        nnz = self.data.size
        perm = self.perm
        if perm is not None:
            x, info = self.superlu.gssv(size, nnz, self.data, self.indices, self.jptr,
                                        rhs[self.inv], 1, options=_NATURAL_OPTIONS)
            if info:
                x.fill(np.nan)
            return x[perm]
        lu = self.superlu.gstrf(size, nnz, self.data, self.indices, self.jptr,
                                csc_construct_func=self.csc_array, ilu=False,
                                options=_SPLU_OPTIONS)
        dx = lu.solve(rhs)
        # column j of the ordered J is column inv[j] of this one: an O(nnz)
        # gather of whole columns, each relabelled but not re-sorted
        perm = lu.perm_c
        inv = np.empty_like(perm)
        inv[perm] = self.seq[:size]
        start = self.jptr[inv]
        count = self.jptr[inv + 1] - start
        jptr = np.zeros(size + 1, dtype=np.intc)
        count.cumsum(out=jptr[1:])
        gather = (start - jptr[:-1]).repeat(count) + self.seq[:nnz]
        self.indices = perm[self.indices[gather]]
        self.jptr = jptr
        self.source = self.source[gather]
        self.perm, self.inv = perm, inv
        return dx


def _q_limit_pass(qg, vm, vset, qmin, qmax, is_pv, q_mode, switch_count) -> bool:
    """Latch/unlatch reactive limits in place; True when anything changed.

    A free PV bus whose machine output ``qg`` (MVAr) leaves its limits
    latches there (``q_mode`` +1 at ``qmax``, -1 at ``qmin``); then a
    latched bus whose voltage has crossed its setpoint in the releasing
    direction returns to PV at the setpoint. A bus switches at most three
    times.
    """
    live = is_pv & (switch_count < 3)
    free = live & (q_mode == 0)
    up = free & (qg > qmax + 1e-7)
    down = free & (qg < qmin - 1e-7) & ~up
    q_mode += up
    q_mode -= down
    switch_count += up | down
    # taken after the latching above, so a bus latched in this pass is
    # already a candidate for release
    live &= switch_count < 3
    release = live & (
        ((q_mode == 1) & (vm > vset + 1e-7)) | ((q_mode == -1) & (vm < vset - 1e-7))
    )
    q_mode[release] = 0
    np.copyto(vm, vset, where=release)
    switch_count += release
    return bool((up | down | release).any())


def solve_newton(
    case: GridCase,
    options: PowerFlowOptions = PowerFlowOptions(),
    bus_subset: Sequence[int] | None = None,
    slack_override: int | None = None,
    partition: IslandPartition | None = None,
) -> PowerFlowSolution:
    """Full Newton-Raphson solve of the (sub)network.

    The network is assumed connected with one slack bus; use
    :func:`solve_islands` for possibly-islanded cases. Non-convergence
    (iteration cap, singular Jacobian, numerical blow-up) is reported in
    the returned solution, never raised. An in-service branch with zero
    impedance raises ``ValueError`` when the solve holds it: with
    ``bus_subset``, when both its ends are in the subset.

    Args:
        case: The network.
        options: Solver controls.
        bus_subset: Restrict the solve to these buses (an island).
        slack_override: Use this bus as the angle/balance reference
            instead of the case slack (island solves).
        partition: The partition ``bus_subset`` is an island of, as
            :func:`find_islands` returns it: the solve runs on its
            admittance and in-service branches instead of the case's.
    """
    arr = case.arrays
    Y, on = arr.ybus, arr.status
    if partition is not None and partition.ybus is not None:
        Y, on = partition.ybus, partition.in_service
    if bus_subset is None:
        ids = list(case.bus_index)
        take = np.arange(len(ids))
        _reject_zero_impedance(case, on)
    else:
        ids = list(bus_subset)
        take = np.fromiter(map(case.bus_index.__getitem__, ids), dtype=int, count=len(ids))
        # only the branches this island's Newton sees: those with both ends in it
        inside = np.zeros(len(case.buses), dtype=bool)
        inside[take] = True
        _reject_zero_impedance(case, on & inside[arr.f] & inside[arr.t])
    n = len(ids)
    base = case.base_mva
    pd, qd = arr.load_p[take], arr.load_q[take]
    pg, qg_fixed = arr.gen_p[take], arr.gen_q[take]
    qmin, qmax = arr.q_min[take], arr.q_max[take]
    vset, has_machine = arr.v_set[take], arr.has_machine[take]
    kind = arr.kind[take]

    if slack_override is not None:
        islack = ids.index(slack_override)
    else:
        slacks = np.flatnonzero(kind == "slack")
        if not slacks.size:
            nb = len(case.buses)
            return _solution(case, on, np.zeros(nb), np.zeros(nb), np.zeros(nb, dtype=bool),
                             converged=False, iterations=0, max_mismatch=np.inf,
                             cause="no_slack")
        islack = int(slacks[0])

    # A PV bus without any in-service machine cannot hold its setpoint;
    # a former slack bus inside an island keeps PV behaviour when another
    # bus was designated the island slack.
    is_pv = ((kind == "PV") | (kind == "slack")) & has_machine
    is_pv[islack] = False

    # Working state. Warm start uses the stored voltages; flat start is
    # unity magnitude at PQ buses, setpoints at PV and the slack, with
    # all angles at the slack's stored angle so the reference matches.
    va_slack = arr.va[take[islack]]
    if options.flat_start:
        x = np.concatenate([np.full(n, va_slack), np.ones(n)])
    else:
        x = np.concatenate([arr.va[take], arr.vm[take]])
    va, vm = x[:n], x[n:]  # views: the unknowns update x in place
    vm[is_pv] = vset[is_pv]
    if has_machine[islack]:
        vm[islack] = vset[islack]
    va[islack] = va_slack

    # Scheduled injections (p.u.). At PV buses Q is free; at PQ buses any
    # machine contributes its fixed q_output, a latched one its limit.
    schedule = np.empty(2 * n)  # interleaved (P, Q)
    schedule[0::2] = (pg - pd) / base
    q_at_mode = (qmin - qd) / base, (qg_fixed - qd) / base, (qmax - qd) / base
    # an unknown's position in x -> its mismatch's in the interleaved S
    mismatch_at = np.arange(2 * n).reshape(n, 2).T.ravel()
    qg = np.empty(n)  # machine reactive output (MVAr) for the limit pass

    q_mode = np.zeros(n, dtype=int)  # 0 free/PV, +1 latched at qmax, -1 at qmin
    switch_count = np.zeros(n, dtype=int)

    iterations = 0
    converged = False
    cause: str | None = None
    max_mismatch = np.inf
    jac = _Jacobian(Y, take)
    split = True  # the PV/PQ split changed since the Jacobian was indexed

    while iterations <= options.max_iterations:
        if split:
            pv_mask = is_pv & (q_mode == 0)
            pv_idx = pv_mask.nonzero()[0]
            pv_mask[islack] = True  # the slack is neither PV nor PQ
            pq_idx = (~pv_mask).nonzero()[0]
            # the unknowns' positions in x
            unknown = np.concatenate([pv_idx, pq_idx, n + pq_idx])
            at_pq = mismatch_at.take(unknown)
            (q_mode + 1).choose(q_at_mode, out=schedule[1::2])
            spec = schedule.take(at_pq)
            F = np.empty(unknown.size)
            abs_F = np.empty(unknown.size)
        S = jac.injections(va, vm)
        S.view(float).take(at_pq, out=F)
        np.subtract(F, spec, out=F)
        max_mismatch = float(np.maximum.reduce(np.abs(F, out=abs_F))) if F.size else 0.0
        if not math.isfinite(max_mismatch):
            cause = "numerical_overflow"
            break
        if max_mismatch <= options.tolerance:
            if options.enforce_q_limits and _q_limit_pass(
                np.add(np.multiply(S.imag, base, out=qg), qd, out=qg),
                vm, vset, qmin, qmax, is_pv, q_mode, switch_count,
            ):
                split = True
                continue  # limits moved; resume with new bus types
            converged = True
            break
        if iterations == options.max_iterations:
            cause = "max_iterations"
            break

        if split:
            jac.split(unknown)
            split = False
        jac.fill()
        try:
            dx = jac.solve(-F)
        except RuntimeError:
            cause = "singular_jacobian"
            break
        if not np.isfinite(dx).all():
            cause = "singular_jacobian"
            break
        x[unknown] += dx
        iterations += 1

    vm_out = np.zeros(len(case.buses))
    va_out = np.zeros(len(case.buses))
    energized = np.zeros(len(case.buses), dtype=bool)
    vm_out[take] = vm
    va_out[take] = va
    energized[take] = True
    record = IslandSolve(
        buses=frozenset(ids),
        slack_bus=ids[islack],
        converged=converged,
        iterations=iterations,
        max_mismatch=max_mismatch,
        cause=cause,
    )
    return _solution(
        case, on, vm_out, va_out, energized,
        converged=converged,
        iterations=iterations,
        max_mismatch=max_mismatch,
        cause=cause,
        islands=(record,),
    )


def _solution(case: GridCase, on, vm, va, energized, **verdict) -> PowerFlowSolution:
    """Wrap full-length bus voltages into a solution, adding the branch
    flows (MW/MVAr at both ends; zero unless ``on`` and energized)."""
    arr = case.arrays
    live = np.flatnonzero(on & energized[arr.f] & energized[arr.t])
    V = vm * np.exp(1j * va)
    Vf, Vt = V[arr.f[live]], V[arr.t[live]]
    sf = np.zeros(len(case.branches), dtype=complex)
    st = np.zeros(len(case.branches), dtype=complex)
    sf[live] = Vf * np.conj(arr.yff[live] * Vf + arr.yft[live] * Vt) * case.base_mva
    st[live] = Vt * np.conj(arr.ytf[live] * Vf + arr.ytt[live] * Vt) * case.base_mva
    return PowerFlowSolution(
        bus_ids=tuple(case.bus_index),
        vm=vm,
        va=va,
        energized=energized,
        p_from=sf.real.copy(),
        q_from=sf.imag.copy(),
        p_to=st.real.copy(),
        q_to=st.imag.copy(),
        **verdict,
    )


def solve_islands(
    case: GridCase,
    options: PowerFlowOptions = PowerFlowOptions(),
    partition: IslandPartition | None = None,
    enforce_capability: bool = False,
) -> tuple[PowerFlowSolution, IslandPartition]:
    """Island-aware power flow driver.

    Each servable island is solved on its own with its designated slack;
    dead islands are left de-energized. The merged solution's
    ``converged`` is True iff every servable island converged.

    With ``enforce_capability``, an island whose load exceeds the summed
    nameplate MVA of its in-island generating units is reported
    unsolvable (cause ``generation_deficit``) without iterating: the
    conventional unbounded-slack solve would park the entire deficit on
    one machine, and no synchronous steady state exists there.
    """
    if partition is None:
        partition = find_islands(case)
    arr = case.arrays
    nb = len(case.buses)
    vm = np.zeros(nb)
    va = np.zeros(nb)
    energized = np.zeros(nb, dtype=bool)
    records: list[IslandSolve] = []
    all_ok = True
    iters = 0
    worst = 0.0
    for isl in partition.islands:
        if not isl.servable:
            records.append(IslandSolve(isl.buses, None, converged=False, iterations=0,
                                       max_mismatch=0.0, cause="dead_island"))
            continue
        sub = sorted(isl.buses)
        take = [case.bus_index[b] for b in sub]
        if enforce_capability and arr.load_p[take].sum() > arr.gen_mva[take].sum():
            records.append(IslandSolve(isl.buses, isl.slack_bus, converged=False, iterations=0,
                                       max_mismatch=np.inf, cause="generation_deficit"))
            all_ok = False
            worst = np.inf
            continue
        sol = solve_newton(case, options, bus_subset=sub, slack_override=isl.slack_bus,
                           partition=partition)
        rec = replace(sol.islands[0], buses=isl.buses)
        records.append(rec)
        all_ok &= sol.converged
        iters = max(iters, sol.iterations)
        worst = max(worst, sol.max_mismatch) if np.isfinite(sol.max_mismatch) else np.inf
        vm[take] = sol.vm[take]
        va[take] = sol.va[take]
        energized[take] = True
    servable = [r for r in records if r.cause != "dead_island"]
    if not servable:
        all_ok = False
    on = arr.status if partition.in_service is None else partition.in_service
    merged = _solution(
        case, on, vm, va, energized,
        converged=all_ok,
        iterations=iters,
        max_mismatch=worst if servable else np.inf,
        cause=None if all_ok else "island_divergence" if servable else "dead_system",
        islands=tuple(records),
    )
    return merged, partition


def check_violations(
    case: GridCase,
    solution: PowerFlowSolution,
    v_min: float = 0.94,
    v_max: float = 1.06,
    max_loading: float = 1.0,
) -> list[Violation]:
    """Scan a converged solution for voltage and loading violations.

    De-energized buses and branches are skipped; branches without a
    rating (rating 0) are never flagged for overload. Results are
    ordered deterministically: buses by id, then branches by endpoints.

    Raises:
        ValueError: If called on a diverged solution.
    """
    if not solution.converged:
        raise ValueError("violations are only defined for a converged solution")
    vm, on = solution.vm, solution.energized
    low = on & (vm < v_min)
    high = on & (vm > v_max)
    out: list[Violation] = []
    for j in np.flatnonzero(low | high):
        kind, limit = ("undervoltage", v_min) if low[j] else ("overvoltage", v_max)
        out.append(Violation(kind, str(solution.bus_ids[j]), float(vm[j]), limit))
    arr = case.arrays
    s = np.maximum(
        np.hypot(solution.p_from, solution.q_from),
        np.hypot(solution.p_to, solution.q_to),
    )
    over = arr.status & (arr.rating > 0) & (s > max_loading * arr.rating)
    for k in sorted(np.flatnonzero(over), key=lambda k: case.branches[k].endpoints):
        br = case.branches[k]
        out.append(Violation(
            "branch_overload", f"{br.from_bus}-{br.to_bus}", float(s[k]), br.rating
        ))
    return out
