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
    violations: tuple[Violation, ...] = ()

    def vm_at(self, bus_id: int) -> float:
        return float(self.vm[self.bus_ids.index(bus_id)])

    def va_at(self, bus_id: int) -> float:
        return float(self.va[self.bus_ids.index(bus_id)])


class _Jacobian:
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


def _q_limit_pass(qg, vm, vset, qmin, qmax, is_pv, q_mode, switch_count) -> bool:
    """Latch/unlatch reactive limits in place; True when anything changed.

    A free PV bus whose machine output ``qg`` (MVAr) leaves its limits
    latches there (``q_mode`` +1 at ``qmax``, -1 at ``qmin``); then a
    latched bus whose voltage has crossed its setpoint in the releasing
    direction returns to PV at the setpoint. A bus switches at most three
    times.
    """
    free = is_pv & (q_mode == 0) & (switch_count < 3)
    up = free & (qg > qmax + 1e-7)
    down = free & ~up & (qg < qmin - 1e-7)
    q_mode[up] = 1
    q_mode[down] = -1
    switch_count[up | down] += 1
    # taken after the latching above, so a bus latched in this pass is
    # already a candidate for release
    latched = is_pv & (q_mode != 0) & (switch_count < 3)
    release = latched & (
        ((q_mode == 1) & (vm > vset + 1e-7)) | ((q_mode == -1) & (vm < vset - 1e-7))
    )
    q_mode[release] = 0
    vm[release] = vset[release]
    switch_count[release] += 1
    return bool(up.any() or down.any() or release.any())


def solve_newton(
    case: GridCase,
    options: PowerFlowOptions = PowerFlowOptions(),
    bus_subset: Sequence[int] | None = None,
    slack_override: int | None = None,
) -> PowerFlowSolution:
    """Full Newton-Raphson solve of the (sub)network.

    The network is assumed connected with one slack bus; use
    :func:`solve_islands` for possibly-islanded cases. Non-convergence
    (iteration cap, singular Jacobian, numerical blow-up) is reported in
    the returned solution, never raised.

    Args:
        case: The network.
        options: Solver controls.
        bus_subset: Restrict the solve to these buses (an island).
        slack_override: Use this bus as the angle/balance reference
            instead of the case slack (island solves).
    """
    arr = case.arrays
    _reject_zero_impedance(case, arr.status)
    if bus_subset is None:
        ids = list(case.bus_index)
        take = np.arange(len(ids))
    else:
        ids = list(bus_subset)
        take = np.fromiter(map(case.bus_index.__getitem__, ids), dtype=int, count=len(ids))
    n = len(ids)
    base = case.base_mva
    pd, qd = arr.load_p[take], arr.load_q[take]
    pg, qg_fixed = arr.gen_p[take], arr.gen_q[take]
    qmin, qmax = arr.q_min[take], arr.q_max[take]
    vset, has_machine = arr.v_set[take], arr.has_machine[take]
    kind = arr.kind[take]

    Y = arr.ybus
    if not np.array_equal(take, np.arange(arr.load_p.size)):
        Y = Y[take][:, take]

    if slack_override is not None:
        islack = ids.index(slack_override)
    else:
        slacks = np.flatnonzero(kind == "slack")
        if not slacks.size:
            return _failed_solution(case, "no_slack")
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
    # machine contributes its fixed q_output.
    p_spec = (pg - pd) / base
    q_spec = (qg_fixed - qd) / base

    q_mode = np.zeros(n, dtype=int)  # 0 free/PV, +1 latched at qmax, -1 at qmin
    switch_count = np.zeros(n, dtype=int)

    iterations = 0
    converged = False
    cause: str | None = None
    max_mismatch = np.inf
    jac = _Jacobian(Y)
    Y = jac.Y  # the same values, every diagonal stored
    split = True  # the PV/PQ split changed since the Jacobian was indexed

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
            # the unknowns' positions in x, and their mismatches' in the
            # interleaved (P, Q) of S
            unknown = np.concatenate([pvpq, n + pq_idx])
            at_pq = np.concatenate([2 * pvpq, 2 * pq_idx + 1])
            spec = np.concatenate([p_spec[pvpq], q_target[pq_idx]])
        V = vm * np.exp(1j * va)
        Ibus = Y @ V
        S = V * np.conj(Ibus)
        F = S.view(float)[at_pq] - spec
        max_mismatch = float(np.max(np.abs(F))) if F.size else 0.0
        if not math.isfinite(max_mismatch):
            cause = "numerical_overflow"
            break
        if max_mismatch <= options.tolerance:
            if options.enforce_q_limits and _q_limit_pass(
                S.imag * base + qd, vm, vset, qmin, qmax, is_pv, q_mode, switch_count
            ):
                split = True
                continue  # limits moved; resume with new bus types
            converged = True
            break
        if iterations == options.max_iterations:
            cause = "max_iterations"
            break

        if split:
            jac.split(pvpq, pq_idx)
            split = False
        jac.fill(V, Ibus)
        try:
            dx = jac.solve(-F)
        except RuntimeError:
            cause = "singular_jacobian"
            break
        if not np.all(np.isfinite(dx)):
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
        case, vm_out, va_out, energized,
        converged=converged,
        iterations=iterations,
        max_mismatch=max_mismatch,
        cause=cause,
        islands=(record,),
    )


def _failed_solution(case, cause) -> PowerFlowSolution:
    nb = len(case.buses)
    return _solution(
        case, np.zeros(nb), np.zeros(nb), np.zeros(nb, dtype=bool),
        converged=False, iterations=0, max_mismatch=np.inf, cause=cause,
    )


def _solution(case: GridCase, vm, va, energized, **verdict) -> PowerFlowSolution:
    """Wrap full-length bus voltages into a solution, adding the branch
    flows (MW/MVAr at both ends; zero unless in service and energized)."""
    arr = case.arrays
    live = np.flatnonzero(arr.status & energized[arr.f] & energized[arr.t])
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
    flows = np.zeros((4, len(case.branches)))
    records: list[IslandSolve] = []
    all_ok = True
    iters = 0
    worst = 0.0
    for isl in partition.islands:
        if not isl.servable:
            records.append(
                IslandSolve(
                    buses=isl.buses,
                    slack_bus=None,
                    converged=False,
                    iterations=0,
                    max_mismatch=0.0,
                    cause="dead_island",
                )
            )
            continue
        sub = sorted(isl.buses)
        take = [case.bus_index[b] for b in sub]
        if enforce_capability and arr.load_p[take].sum() > arr.gen_mva[take].sum():
            records.append(
                IslandSolve(
                    buses=isl.buses,
                    slack_bus=isl.slack_bus,
                    converged=False,
                    iterations=0,
                    max_mismatch=np.inf,
                    cause="generation_deficit",
                )
            )
            all_ok = False
            worst = np.inf
            continue
        sol = solve_newton(case, options, bus_subset=sub, slack_override=isl.slack_bus)
        rec = replace(sol.islands[0], buses=isl.buses)
        records.append(rec)
        all_ok &= sol.converged
        iters = max(iters, sol.iterations)
        worst = max(worst, sol.max_mismatch) if np.isfinite(sol.max_mismatch) else np.inf
        vm[take] = sol.vm[take]
        va[take] = sol.va[take]
        energized[take] = True
        # no branch joins two islands: each island's flows are zero on
        # the branches of the others
        flows += (sol.p_from, sol.q_from, sol.p_to, sol.q_to)
    servable = [r for r in records if r.cause != "dead_island"]
    if not servable:
        all_ok = False
    merged = PowerFlowSolution(
        bus_ids=tuple(case.bus_index),
        vm=vm,
        va=va,
        energized=energized,
        p_from=flows[0],
        q_from=flows[1],
        p_to=flows[2],
        q_to=flows[3],
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
