"""AC power flow: sparse Newton-Raphson with reactive-limit handling.

Solves the polar mismatch equations with a full Newton iteration and
PV -> PQ switching at generator reactive limits. Divergence is
a verdict, not an exception: screening classifies diverged cases, so
``solve_newton`` always returns a solution object with ``converged``
set accordingly and a ``cause`` tag when it failed.

Islanded cases are handled by :func:`solve_islands`, which solves each
servable island separately (with the island slack designated by the
topology layer) and de-energizes dead islands. Solutions hold voltages,
not flows; :func:`branch_flows` computes the flows for the callers that
read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import GridCase
from .topology import Island, IslandPartition, find_islands

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "PowerFlowOptions",
    "PowerFlowSolution",
    "Violation",
    "build_admittance",
    "solve_newton",
    "solve_islands",
    "branch_flows",
    "check_violations",
]


def build_admittance(
    case: GridCase, in_service: np.ndarray | None = None
) -> sp.csr_matrix:
    """Assemble the complex nodal admittance matrix, over the case's bus
    order, from the case's pi entries, with every diagonal stored.

    ``in_service`` is a boolean mask over the case's branches (default:
    their statuses); masked-out branches contribute nothing. Transformer
    taps are on the from side. Raises ``ValueError`` for an in-service
    branch with zero impedance.
    """
    arr = case.arrays
    on = arr.status if in_service is None else np.asarray(in_service, dtype=bool)
    _reject_zero_impedance(case, on)
    return arr.admittance(on)


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


@dataclass(frozen=True)
class Violation:
    """An operating-limit violation found in a converged solution."""

    kind: str        # undervoltage | overvoltage | branch_overload
    entity: str      # bus id or "from-to" endpoint pair
    value: float
    limit: float


@dataclass(frozen=True)
class IslandSolve:
    """Per-island convergence record inside a multi-island solution, one
    per island of the partition solved, in its order."""

    converged: bool
    iterations: int
    max_mismatch: float
    cause: str | None


@dataclass(frozen=True)
class PowerFlowSolution:
    """Power flow result over a case's full bus/branch ordering.

    ``vm``/``va`` align with ``bus_ids``; de-energized buses carry zero
    voltage and ``energized`` False. ``in_service`` masks the case's
    branches the solve ran on, for :func:`branch_flows`.
    """

    converged: bool
    iterations: int
    max_mismatch: float
    bus_ids: tuple[int, ...]
    vm: np.ndarray
    va: np.ndarray
    energized: np.ndarray
    in_service: np.ndarray
    cause: str | None = None
    islands: tuple[IslandSolve, ...] = ()


# What ``splu`` and ``spsolve(..., permc_spec="NATURAL")`` pass to SuperLU.
_SPLU_OPTIONS = dict(DiagPivotThresh=None, ColPerm=None, PanelSize=None, Relax=None)
_NATURAL_OPTIONS = dict(ColPerm="NATURAL")


class _Jacobian:
    """Newton's kernel on one island, as raw arrays on fixed patterns.

    The island's admittance matrix is held in CSR form with sorted columns
    and every diagonal entry stored, as ``CaseArrays.admittance`` builds
    it. ``injections`` computes the voltages, ``Ibus = Y V`` and the
    complex power injections; ``split`` maps Y's pattern onto the four
    blocks of the Jacobian, in CSC form, for one PV/PQ split; ``fill``
    computes dS/dVa and dS/dVm over Y's nonzeros with the scalar
    expressions of MATPOWER's ``dSbus_dV`` and gathers them into the
    Jacobian's data; ``solve`` orders the split's pattern once and
    reuses that order. Every array an iteration writes is allocated once,
    for the island or for the split.
    """

    def __init__(self, Y: sp.csr_matrix):
        """The kernel of the island whose admittance is ``Y``, as
        ``CaseArrays.admittance`` builds it."""
        from scipy.sparse import csc_array
        from scipy.sparse._sparsetools import csr_matvec
        from scipy.sparse.linalg._dsolve import _superlu

        # scipy's entry points, imported here: importing this module loads none
        self.csc_array, self.csr_matvec, self.superlu = csc_array, csr_matvec, _superlu
        n = self.n = Y.shape[0]
        at = np.arange(n)
        y, cols, self.indptr = Y.data, Y.indices, Y.indptr
        self.y, self.cols = y, cols
        rows = at.repeat(np.diff(self.indptr))
        self.diag = (rows == cols).nonzero()[0]  # in row order
        nnz = rows.size
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
    island: Island | None = None,
    partition: IslandPartition | None = None,
) -> PowerFlowSolution:
    """Full Newton-Raphson solve of the network, or of one island of it.

    The network is assumed connected with one slack bus; use
    :func:`solve_islands` for possibly-islanded cases. Non-convergence
    (iteration cap, singular Jacobian, numerical blow-up) is reported in
    the returned solution, never raised. An in-service branch with zero
    impedance raises ``ValueError`` when the solve holds it, that is when
    both its ends are among the solve's buses; that check comes before a
    case without a slack bus returns cause ``no_slack``.

    Args:
        case: The network.
        options: Solver controls.
        island: Restrict the solve to this island's buses, with its slack
            as the angle/balance reference instead of the case slack.
        partition: The partition ``island`` belongs to, as
            :func:`find_islands` returns it: the solve runs on its
            in-service branches instead of the case's.

    The solve sums its buses' admittance once, over the branches it sees.
    """
    arr = case.arrays
    on = arr.status if partition is None else partition.in_service
    nb = len(case.buses)
    take = np.arange(nb) if island is None else island.at
    # only the branches this solve sees: those with both ends among its buses
    inside = np.zeros(nb, dtype=bool)
    inside[take] = True
    _reject_zero_impedance(case, on & inside[arr.f] & inside[arr.t])
    if island is None:
        slacks = np.flatnonzero(arr.kind == "slack")
        if not slacks.size:
            return PowerFlowSolution(False, 0, np.inf, tuple(case.bus_index), np.zeros(nb),
                                     np.zeros(nb), np.zeros(nb, dtype=bool), on,
                                     cause="no_slack")
        slack = int(slacks[0])
    else:
        slack = case.bus_index[island.slack_bus]
    islack = int(np.flatnonzero(take == slack)[0])
    n = take.size
    base = case.base_mva
    pd, qd = arr.load_p[take], arr.load_q[take]
    pg, qg_fixed = arr.gen_p[take], arr.gen_q[take]
    qmin, qmax = arr.q_min[take], arr.q_max[take]
    vset, has_machine = arr.v_set[take], arr.has_machine[take]
    kind = arr.kind[take]

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
    jac = _Jacobian(arr.admittance(on, take))
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
            if _q_limit_pass(
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

    vm_out = np.zeros(nb)
    va_out = np.zeros(nb)
    energized = np.zeros(nb, dtype=bool)
    vm_out[take] = vm
    va_out[take] = va
    energized[take] = True
    return PowerFlowSolution(
        converged=converged,
        iterations=iterations,
        max_mismatch=max_mismatch,
        bus_ids=tuple(case.bus_index),
        vm=vm_out,
        va=va_out,
        energized=energized,
        in_service=on,
        cause=cause,
    )


def _generation_deficit(case: GridCase, island: Island) -> bool:
    """Whether the island's load exceeds the summed nameplate MVA of its
    in-island generating units: no synchronous steady state exists there."""
    arr = case.arrays
    return arr.load_p[island.at].sum() > arr.gen_mva[island.at].sum()


def solve_islands(
    case: GridCase,
    options: PowerFlowOptions = PowerFlowOptions(),
    partition: IslandPartition | None = None,
) -> tuple[PowerFlowSolution, IslandPartition]:
    """Island-aware power flow driver.

    Each servable island is solved on its own with its designated slack;
    dead islands are left de-energized. The merged solution's
    ``converged`` is True iff every servable island converged.

    An island whose load exceeds the summed nameplate MVA of its
    in-island generating units is unsolvable (cause
    ``generation_deficit``) and is not iterated: an unbounded-slack solve
    would park the entire deficit on one machine, and no synchronous
    steady state exists there.
    """
    if partition is None:
        partition = find_islands(case)
    nb = len(case.buses)
    vm = np.zeros(nb)
    va = np.zeros(nb)
    energized = np.zeros(nb, dtype=bool)
    records: list[IslandSolve] = []
    all_ok = True
    iters = 0
    worst = 0.0
    for isl in partition.islands:
        at = isl.at
        if not isl.servable:
            records.append(IslandSolve(False, 0, 0.0, "dead_island"))
            continue
        if _generation_deficit(case, isl):
            records.append(IslandSolve(False, 0, np.inf, "generation_deficit"))
            all_ok = False
            worst = np.inf
            continue
        sol = solve_newton(case, options, island=isl, partition=partition)
        records.append(IslandSolve(sol.converged, sol.iterations, sol.max_mismatch, sol.cause))
        all_ok &= sol.converged
        iters = max(iters, sol.iterations)
        worst = max(worst, sol.max_mismatch) if np.isfinite(sol.max_mismatch) else np.inf
        vm[at] = sol.vm[at]
        va[at] = sol.va[at]
        energized[at] = True
    servable = any(isl.servable for isl in partition.islands)
    all_ok &= servable
    merged = PowerFlowSolution(
        converged=all_ok,
        iterations=iters,
        max_mismatch=worst if servable else np.inf,
        bus_ids=tuple(case.bus_index),
        vm=vm,
        va=va,
        energized=energized,
        in_service=partition.in_service,
        cause=None if all_ok else "island_divergence" if servable else "dead_system",
        islands=tuple(records),
    )
    return merged, partition


def branch_flows(
    case: GridCase, solution: PowerFlowSolution
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(p_from, q_from, p_to, q_to)`` in MW/MVAr, aligned with the case's
    branches: zero unless the branch was in service for the solve and both
    its ends are energized."""
    arr = case.arrays
    energized = solution.energized
    live = np.flatnonzero(solution.in_service & energized[arr.f] & energized[arr.t])
    V = solution.vm * np.exp(1j * solution.va)
    Vf, Vt = V[arr.f[live]], V[arr.t[live]]
    sf = np.zeros(len(case.branches), dtype=complex)
    st = np.zeros(len(case.branches), dtype=complex)
    sf[live] = Vf * np.conj(arr.yff[live] * Vf + arr.yft[live] * Vt) * case.base_mva
    st[live] = Vt * np.conj(arr.ytf[live] * Vf + arr.ytt[live] * Vt) * case.base_mva
    return sf.real, sf.imag, st.real, st.imag


# Screening limits: the voltage band in p.u. and the loading, as a share of
# a branch's rating, above which a branch is overloaded.
V_MIN, V_MAX, MAX_LOADING = 0.94, 1.06, 1.0


def check_violations(case: GridCase, solution: PowerFlowSolution) -> list[Violation]:
    """Scan a converged solution for voltage and loading violations
    outside ``V_MIN`` .. ``V_MAX`` and ``MAX_LOADING``.

    De-energized buses and branches are skipped; branches without a
    rating (rating 0) are never flagged for overload. Results are
    ordered deterministically: buses by id, then branches by endpoints.

    Raises:
        ValueError: If called on a diverged solution.
    """
    if not solution.converged:
        raise ValueError("violations are only defined for a converged solution")
    vm, on = solution.vm, solution.energized
    low = on & (vm < V_MIN)
    high = on & (vm > V_MAX)
    out: list[Violation] = []
    for j in sorted(np.flatnonzero(low | high), key=lambda j: solution.bus_ids[j]):
        kind, limit = ("undervoltage", V_MIN) if low[j] else ("overvoltage", V_MAX)
        out.append(Violation(kind, str(solution.bus_ids[j]), float(vm[j]), limit))
    arr = case.arrays
    p_from, q_from, p_to, q_to = branch_flows(case, solution)
    s = np.maximum(np.hypot(p_from, q_from), np.hypot(p_to, q_to))
    over = arr.status & (arr.rating > 0) & (s > MAX_LOADING * arr.rating)
    for k in sorted(np.flatnonzero(over), key=lambda k: case.branches[k].endpoints):
        br = case.branches[k]
        out.append(Violation(
            "branch_overload", f"{br.from_bus}-{br.to_bus}", float(s[k]), br.rating
        ))
    return out
