"""Time-domain simulation of ordered switching attacks on the grid.

Machines carry classical rotor dynamics (swing equation) behind a
transient reactance, a first-order high-gain voltage regulator driving
the internal EMF, and, for generating units, a first-order droop
governor. Synchronous condensers swing too but have no turbine, so
their mechanical power is pinned at zero. Loads are constant impedance,
folded into the network admittance at the pre-event operating point, so
the network stays linear. After every topology change it is factorized
once and reduced to the machines' internal EMFs (Kundur 1994, ch. 13),
so each RHS evaluation costs one small dense matrix-vector product.
Each sampling step is one step of ROS34PW2, a 4-stage Rosenbrock-W
method (Rang & Angermann 2005): the regulator lag, whose eigenvalues
reach -(1 + gain)/Te (about -1020/s with the default regulator), is
treated linearly implicitly through its machines-by-machines Jacobian
block, frozen at each topology change, so a 10 ms step takes four RHS
evaluations where an explicit method would need many short substeps.

A scenario is a strictly ordered list of switching events (branch
openings or whole-substation removals), applied to two masks over the
base case: the buses and the branches still on. Parallel circuits switch
as one endpoint pair: opening 42-49 opens every circuit between buses 42
and 49. After every event the island pattern is re-detected; islands
left without any generating unit are dead and get de-energized on the
spot (their machines drop out of the simulation, their loads
disappear). Per-island monitors watch the rotor-angle spread and the
inertia-weighted island frequency; the run halts at the first
instability verdict and the remaining events are marked skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .model import GridCase, _ascii_int, _substation_id
from .powerflow import (
    PowerFlowOptions,
    PowerFlowSolution,
    build_admittance,
    solve_newton,
)
from .topology import (
    OutageAction,
    apply_branch_outages,  # noqa: F401  (gridbench/spans.py wraps it here)
    apply_substation_outage,  # noqa: F401  (gridbench/spans.py wraps it here)
    find_islands,
)

try:  # the ufunc np.clip calls and the C function np.count_nonzero
    # calls, without their Python wrappers' cost (5 us a call for clip)
    from numpy._core.multiarray import count_nonzero as _count_nonzero
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.multiarray import count_nonzero as _count_nonzero
    from numpy.core.umath import clip as _clip

# The integrator's ufuncs, bound once: an RHS evaluation makes about 30
# calls on 54-element vectors, where each np.<name> lookup and out=
# keyword costs a measurable share, so they take their output positionally.
_add, _sub, _mul, _div = np.add, np.subtract, np.multiply, np.divide
_abs, _conj, _exp, _matmul = np.abs, np.conjugate, np.exp, np.matmul
_ge, _le, _gt, _lt = np.greater_equal, np.less_equal, np.greater, np.less
_and, _or = np.logical_and, np.logical_or

# ROS34PW2 (Rang & Angermann, BIT 45, 2005): a 4-stage Rosenbrock-W
# method, order 3 with the exact Jacobian and order 2 with any other,
# L-stable and stiffly accurate. Its coefficients alpha and Gamma
# (diagonal gamma) are used in the transformed variables u = Gamma k,
# which need no product with the Jacobian (Hairer & Wanner, IV.7):
# a stage solves (I/(h gamma) - J) u_i = f(y + sum_j a_ij u_j)
# + sum_j (c_ij / h) u_j with A = alpha Gamma^-1 and
# C = diag(1/gamma) - Gamma^-1. Its weights b equal the last row of
# alpha + Gamma, so the solution is the last stage point plus u_4.
_ROS_GAMMA = 0.43586652150845900
# the strictly lower parts of alpha and Gamma, row by row
_ROS_ALPHA = (
    (),
    (0.87173304301691801,),
    (0.84457060015369423, -0.11299064236484185),
    (0.0, 0.0, 1.0),
)
_ROS_GAMMAS = (
    (),
    (-0.87173304301691801,),
    (-0.90338057013044082, 0.054180672388095326),
    (0.24212380706095346, -1.2232505839045147, 0.54526025533510214),
)


def _transformed(alpha, gammas, gamma):
    """(A, C) of a Rosenbrock method with the strictly lower parts alpha
    and gammas, row i holding columns 0 .. i-1. In plain Python: a LAPACK
    call at import would map pages that runs without dynamics never use."""
    n = len(alpha)
    g_inv = [[0.0] * n for _ in range(n)]  # Gamma^-1, by forward substitution
    for i in range(n):
        g_inv[i][i] = 1.0 / gamma
        for j in range(i):
            g_inv[i][j] = -sum(gammas[i][k] * g_inv[k][j] for k in range(j, i)) / gamma
    a = [[sum(alpha[i][k] * g_inv[k][j] for k in range(j, i)) for j in range(i)]
         for i in range(n)]
    c = [[-g_inv[i][j] for j in range(i)] for i in range(n)]
    return a, c


_ROS_A, _ROS_C = _transformed(_ROS_ALPHA, _ROS_GAMMAS, _ROS_GAMMA)

__all__ = [
    "ExciterParams",
    "GovernorParams",
    "MachineModel",
    "default_machine_models",
    "SwitchingSchedule",
    "parse_schedule",
    "load_schedule",
    "ScenarioOptions",
    "DynamicState",
    "EventRecord",
    "DynamicTrace",
    "StabilityVerdict",
    "init_dynamic_state",
    "initial_state",
    "run_scenario",
    "trace_to_csv",
]

# Default rotor damping torque coefficient (p.u. torque per p.u. speed
# deviation, machine base). Deliberately light: the high-gain fast
# exciter below erodes oscillation damping, which is the regime the
# sequential-switching studies probe.
DEFAULT_DAMPING = 0.5


@dataclass(frozen=True)
class ExciterParams:
    """First-order voltage regulator acting directly on the internal EMF."""

    gain: float = 50.0
    time_constant: float = 0.05
    e_min: float = 0.0
    e_max: float = 2.5

    def __post_init__(self) -> None:
        if self.gain <= 0 or self.time_constant <= 0:
            raise ValueError("exciter gain and time constant must be positive")
        if self.e_max <= self.e_min:
            raise ValueError("exciter ceiling must exceed its floor")


@dataclass(frozen=True)
class GovernorParams:
    """First-order droop governor; powers are on the machine MVA base."""

    droop: float = 0.05
    time_constant: float = 0.5
    p_max: float = 1.0

    def __post_init__(self) -> None:
        if self.droop <= 0 or self.time_constant <= 0:
            raise ValueError("governor droop and time constant must be positive")
        if self.p_max <= 0:
            raise ValueError("governor p_max must be positive")


@dataclass(frozen=True)
class MachineModel:
    """Dynamic parameters of one synchronous machine.

    ``transient_reactance_xd`` is on the machine MVA base. Condensers
    (and any machine without a turbine) carry ``governor=None``.
    """

    bus: int
    inertia_H: float = 5.0
    damping_D: float = DEFAULT_DAMPING
    transient_reactance_xd: float = 0.25
    exciter: ExciterParams = field(default_factory=ExciterParams)
    governor: GovernorParams | None = None

    def __post_init__(self) -> None:
        if self.inertia_H <= 0:
            raise ValueError(f"machine at bus {self.bus}: inertia_H must be > 0")
        if self.transient_reactance_xd <= 0:
            raise ValueError(f"machine at bus {self.bus}: xd' must be > 0")


def default_machine_models(case: GridCase) -> tuple[MachineModel, ...]:
    """One default model per machine, in the case's generator order.

    Generating units get a droop governor with headroom 1.5x dispatch;
    condensers get the voltage regulator only.
    """
    models = []
    for g in case.generators:
        gov = None
        if not g.is_condenser:
            p0 = g.p_output / g.mva_base
            gov = GovernorParams(p_max=1.5 * p0)
        models.append(MachineModel(bus=g.bus, governor=gov))
    return tuple(models)


# --- schedules --------------------------------------------------------------


@dataclass(frozen=True)
class SwitchingSchedule:
    """Ordered switching events: (time s, action), strictly increasing."""

    events: tuple[tuple[float, OutageAction], ...]

    def __post_init__(self) -> None:
        times = [t for t, _ in self.events]
        if not all(math.isfinite(t) for t in times):
            raise ValueError("event times must be finite")
        if any(t < 0 for t in times):
            raise ValueError("event times must be non-negative")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("event times must be strictly increasing")

    @property
    def end_time(self) -> float:
        return self.events[-1][0] if self.events else 0.0

    @staticmethod
    def evenly_spaced(
        actions: Sequence[OutageAction],
        interval: float,
        start: float = 0.0,
    ) -> "SwitchingSchedule":
        """Actions at ``start``, ``start+interval``, ..."""
        if not 0 < interval < math.inf:
            raise ValueError("interval must be positive and finite")
        return SwitchingSchedule(
            tuple((start + i * interval, a) for i, a in enumerate(actions))
        )


def parse_schedule(text: str) -> SwitchingSchedule:
    """Parse a scenario file.

    One event per line: ``t_sec open_branch FROM TO`` or
    ``t_sec remove_substation ID``. Blank lines and ``#`` comments are
    ignored.
    """
    events: list[tuple[float, OutageAction]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            t = float(toks[0])
        except ValueError:
            raise ValueError(f"line {no}: bad event time {toks[0]!r}") from None
        if not math.isfinite(t):
            raise ValueError(f"line {no}: event time must be finite, got {toks[0]!r}")
        kind = toks[1] if len(toks) > 1 else ""
        if kind == "open_branch" and len(toks) == 4:
            try:
                ends = _ascii_int(toks[2]), _ascii_int(toks[3])
            except ValueError:
                raise ValueError(f"line {no}: bad bus id in {line!r}") from None
            action = OutageAction.open_branch(*ends)
        elif kind == "remove_substation" and len(toks) == 3:
            action = OutageAction.remove_substation(_substation_id(toks[2]))
        else:
            raise ValueError(f"line {no}: unrecognized event {line!r}")
        events.append((t, action))
    return SwitchingSchedule(tuple(events))


def load_schedule(path: str | Path) -> SwitchingSchedule:
    return parse_schedule(Path(path).read_text())


# --- options and result types ----------------------------------------------


# Instability limits: an island whose COI-relative angle spread exceeds
# the separation (degrees) is transient-unstable at once; one whose
# frequency stays outside the band around nominal (Hz) for the dwell (s)
# is frequency-unstable.
ANGLE_SEPARATION_DEG, FREQ_BAND_HZ, F_NOMINAL, DWELL_S = 360.0, 2.5, 60.0, 1.0


@dataclass(frozen=True)
class ScenarioOptions:
    dt: float = 0.01
    t_end: float | None = None  # default: last event + 10 s
    sample_every: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.t_end is not None and not 0 <= self.t_end < math.inf:
            raise ValueError("t_end must be non-negative and finite")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")


@dataclass(frozen=True)
class DynamicState:
    """Machine states plus the algebraic network voltages.

    Angles are absolute rotor angles in radians; ``omega`` is per-unit
    speed deviation; ``efd`` is the internal EMF magnitude driven by
    the regulator; ``pm`` is mechanical power on the system base.
    ``vref`` and ``pm_ref`` are the regulator/governor setpoints fixed
    at initialization. ``inertia`` holds each machine's 2*H*S/S_system
    so COI weighting is available from the state alone. ``models`` are
    the machine models the state is an equilibrium of.
    """

    delta: np.ndarray
    omega: np.ndarray
    efd: np.ndarray
    pm: np.ndarray
    vref: np.ndarray
    pm_ref: np.ndarray
    inertia: np.ndarray
    voltages: np.ndarray  # complex, one per case bus
    models: tuple[MachineModel, ...]


@dataclass(frozen=True)
class EventRecord:
    time: float
    action: OutageAction
    status: str  # executed | skipped
    cause: str | None = None
    island_count: int | None = None


@dataclass(frozen=True)
class DynamicTrace:
    """Sampled trajectory of a scenario run.

    One row per recorded sample: every sample of a run with
    ``trace_every=1``, every ``trace_every``-th otherwise, none with
    ``trace_every=None``. ``angles_deg`` holds COI-relative machine
    angles (degrees, NaN once a machine is dropped); ``machine_island``
    the island key each machine belonged to at each row (-1 when
    dropped); ``island_freq`` maps island key (its lowest bus id) to an
    inertia-weighted frequency trace in Hz (NaN before formation or
    after death), with a column for every island the run saw, recorded
    or not; ``voltages`` per-bus magnitudes (0 when de-energized).
    """

    times: np.ndarray
    machine_buses: tuple[int, ...]
    angles_deg: np.ndarray
    machine_island: np.ndarray
    island_freq: dict[int, np.ndarray]
    voltages: np.ndarray
    bus_ids: tuple[int, ...]
    events: tuple[EventRecord, ...]


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of instability monitoring.

    ``overall`` is stable when every energized island stayed clean,
    the single instability kind when all fired islands agree, and
    islanded_mixed when energized islands disagree (including the
    stable-plus-unstable split of an islanding event).
    """

    overall: str  # stable | transient_unstable | frequency_unstable | islanded_mixed
    per_island: dict[int, str]
    time_of_first_violation: float | None


def _aggregate_overall(per_island: dict[int, str]) -> str:
    kinds = set(per_island.values())
    if kinds <= {"stable"}:
        return "stable"
    fired = kinds - {"stable"}
    if len(fired) == 1 and "stable" not in kinds:
        return next(iter(fired))
    return "islanded_mixed"


# --- initialization ----------------------------------------------------------


def init_dynamic_state(
    case: GridCase,
    pf: PowerFlowSolution,
    models: Sequence[MachineModel],
) -> DynamicState:
    """Exact equilibrium initialization from a converged power flow.

    Internal EMFs are placed so the linear network solve reproduces the
    power-flow voltages, mechanical powers match electrical powers, and
    regulator references absorb their steady-state offsets; all state
    derivatives start at numerical zero.
    """
    if not pf.converged:
        raise ValueError("dynamic initialization requires a converged power flow")
    if len(models) != len(case.generators):
        raise ValueError(
            f"need one model per machine: {len(case.generators)} machines, "
            f"{len(models)} models"
        )
    for g, m in zip(case.generators, models):
        if g.bus != m.bus:
            raise ValueError(
                f"model order mismatch: machine at bus {g.bus}, model for {m.bus}"
            )

    base = case.base_mva
    idx = case.bus_index
    V = pf.vm * np.exp(1j * pf.va)

    s_inj = V * np.conj(build_admittance(case) @ V)  # p.u. net injection

    # net machine output per bus = injection + local load
    s_gen_bus = s_inj + (case.arrays.load_p / base + 1j * (case.arrays.load_q / base))

    nm = len(models)
    delta = np.zeros(nm)
    efd = np.zeros(nm)
    pm = np.zeros(nm)
    vref = np.zeros(nm)
    inertia = np.zeros(nm)

    # share a bus's output among its machines: dispatch first, any slack
    # correction and all reactive by nameplate share
    mach_by_bus: dict[int, list[int]] = {}
    for i, g in enumerate(case.generators):
        mach_by_bus.setdefault(g.bus, []).append(i)

    s_mach = np.array([g.mva_base for g in case.generators])
    for bus, members in mach_by_bus.items():
        total = s_gen_bus[idx[bus]]
        disp = sum(case.generators[i].p_output for i in members) / base
        share = s_mach[members] / s_mach[members].sum()
        extra = total.real - disp
        for k, i in enumerate(members):
            g = case.generators[i]
            m = models[i]
            p_i = g.p_output / base + extra * share[k]
            q_i = total.imag * share[k]
            vb = V[idx[bus]]
            xd_sys = m.transient_reactance_xd * base / g.mva_base
            e_ph = vb + 1j * xd_sys * np.conj(complex(p_i, q_i) / vb)
            delta[i] = np.angle(e_ph)
            efd[i] = abs(e_ph)
            pm[i] = p_i
            vref[i] = abs(vb) + efd[i] / m.exciter.gain
            inertia[i] = 2.0 * m.inertia_H * g.mva_base / base

    state = DynamicState(
        delta=delta,
        omega=np.zeros(nm),
        efd=efd,
        pm=pm.copy(),
        vref=vref,
        pm_ref=pm.copy(),
        inertia=inertia,
        voltages=V.copy(),
        models=tuple(models),
    )

    # defensive equilibrium check: the construction above should zero
    # every derivative to solver precision
    engine = _Engine(case, models, state)
    dy = engine.rhs(engine.y)
    worst = float(np.max(np.abs(dy))) if dy.size else 0.0
    if worst > 1e-8:
        raise ValueError(
            f"equilibrium initialization failed: max |dx/dt| = {worst:.3e}"
        )
    return state


def initial_state(
    case: GridCase, models: Sequence[MachineModel]
) -> DynamicState:
    """Solve the base-case power flow and initialize the dynamics from it.

    The state depends on the case and the models only, so runs of
    several schedules on one case can share it.
    """
    pf = solve_newton(case, PowerFlowOptions())
    if not pf.converged:
        raise ValueError("base-case power flow did not converge")
    return init_dynamic_state(case, pf, models)


def _state_vector(state: DynamicState) -> np.ndarray:
    """The integrator's state vector [delta, omega, efd, pm]."""
    return np.concatenate([state.delta, state.omega, state.efd, state.pm])


# --- the integration engine --------------------------------------------------


class _Engine:
    """Linear-network swing integrator over the current topology.

    At every topology change the augmented admittance of the energized
    network is factorized once and solved for a unit EMF behind each
    active machine's transient reactance. That reduces the network to
    the machines (the classical reduced-network form; Kundur 1994,
    ch. 13): bus voltages are ``W @ E`` and machine terminal voltages
    ``K @ E`` for the vector E of internal EMF phasors, so an RHS
    evaluation costs one small dense product. At the same time the
    regulator block of the Jacobian is built at the current state; each
    step then solves its four stages with W = I/(h gamma) - J, inverted
    once per topology and step size.
    """

    def __init__(
        self,
        case: GridCase,
        models: Sequence[MachineModel],
        state: DynamicState,
    ):
        self.base_case = case
        self.models = tuple(models)
        self.nb = len(case.buses)
        self.nm = len(models)
        self.omega_s = 2.0 * math.pi * F_NOMINAL

        base = case.base_mva
        self.mach_bus_pos = np.array(
            [case.bus_index[m.bus] for m in self.models], dtype=int
        )
        s_mach = np.array([g.mva_base for g in case.generators])
        self.xd_sys = np.array(
            [m.transient_reactance_xd for m in self.models]
        ) * base / s_mach
        self.y_mach = 1.0 / (1j * self.xd_sys)
        self.M = state.inertia.copy()  # 2 H S / S_sys
        self.D = np.array([m.damping_D for m in self.models]) * s_mach / base
        self.ka = np.array([m.exciter.gain for m in self.models])
        self.te = np.array([m.exciter.time_constant for m in self.models])
        self.governed = np.array(
            [m.governor is not None for m in self.models], dtype=bool
        )
        r_droop = np.array(
            [m.governor.droop if m.governor else 1.0 for m in self.models]
        )
        self.tg = np.array(
            [m.governor.time_constant if m.governor else 1.0 for m in self.models]
        )
        p_max_sys = np.array(
            [
                (m.governor.p_max * g.mva_base / base) if m.governor else np.inf
                for m, g in zip(self.models, case.generators)
            ]
        )
        self.droop_gain = s_mach / base / r_droop
        self.vref = state.vref
        self.pm_ref = state.pm_ref

        # box of the state vector [delta, omega, efd, pm]: efd within the
        # regulator limits, pm within 0 .. p_max (no ceiling without a
        # governor)
        free = np.full(self.nm, np.inf)
        self.lo = np.concatenate(
            [-free, -free, [m.exciter.e_min for m in self.models], np.zeros(self.nm)]
        )
        self.hi = np.concatenate(
            [free, free, [m.exciter.e_max for m in self.models], p_max_sys]
        )

        # constant-impedance loads anchored at the initial operating point
        V0 = state.voltages
        self.y_load = np.zeros(self.nb, dtype=complex)
        for j, b in enumerate(case.buses):
            s = complex(b.load_p, b.load_q) / base
            if s != 0:
                self.y_load[j] = np.conj(s) / (abs(V0[j]) ** 2)

        # Persistent buffers, so a step allocates nothing: the state vector
        # the engine advances in place, the step's stage point, stage
        # derivative, temporary and four stage increments (with block
        # views of the first two and the exciter blocks of the derivative
        # and increments), and the temporaries of rhs and bus_voltages.
        # Each holds the result of the same ufunc on the same operands as
        # an allocating expression would, so the arithmetic is unchanged
        # bit for bit.
        n, nb = self.nm, self.nb
        self.y = _state_vector(state)
        self._s, self._r, self._tmp, *self._u = np.empty((7, 4 * n))
        self._yb, self._sb, self._rb = (self._blocks(v) for v in (self.y, self._s, self._r))
        self._r_efd = self._rb[2]
        self._u_efd = [self._blocks(u)[2] for u in self._u]
        self._phase, self._eph, self._vt, self._prod = np.empty((4, n), dtype=complex)
        self._prod_imag = self._prod.imag
        self._pe, self._t, self._t2 = np.empty((3, n))
        self._masks = np.empty((3, 4 * n), dtype=bool)
        self._eri, self._p = np.empty((n, 2)), np.empty((2 * nb, 2))
        self._v_re, self._v_im = np.empty((2, nb))
        self._v = np.empty(nb, dtype=complex)

        # evolving topology: the buses and branches still on, the
        # substations removed, and what stays energized
        self.bus_on = np.ones(self.nb, dtype=bool)
        self.branch_on = case.arrays.status.copy()
        self.removed: set = set()
        self.bus_active = np.ones(self.nb, dtype=bool)
        self.mach_active = np.ones(self.nm, dtype=bool)
        self.refresh_topology()

    # -- topology ------------------------------------------------------------

    def refresh_topology(self) -> int:
        """Re-detect islands, de-energize dead ones, refactorize.

        Returns the number of islands in the current in-service
        network (dead ones included, matching find_islands).
        """
        partition = find_islands(self.base_case, self.bus_on, self.branch_on)
        keys = []  # of the servable islands, each its lowest bus id
        alive = np.zeros(self.nb, dtype=bool)
        bus_island = np.full(self.nb, -1, dtype=int)
        for isl in partition.islands:
            if isl.servable:
                key = min(isl.buses)
                keys.append(key)
                alive[isl.at] = True
                bus_island[isl.at] = key
        # buses formerly active that fell into dead islands or were
        # removed (and so are in no island) are de-energized now
        self.bus_active &= alive
        self.mach_active &= self.bus_active[self.mach_bus_pos]
        self.bus_dead = ~self.bus_active

        # island key of each machine (-1 when dropped) and, per island
        # with machines, its members, their inertias, the inertias' sum
        # and a buffer for per-member values
        self.mach_island = np.where(
            self.mach_active, bus_island[self.mach_bus_pos], -1
        )
        self.island_members = []
        for key in keys:
            members = np.flatnonzero(self.mach_island == key)
            if members.size:
                w = self.M[members]
                self.island_members.append(
                    (key, members, w, w.sum(), np.empty(members.size))
                )

        # derivative coefficients, zero for dropped machines
        act = self.mach_active.astype(float)
        self.c_delta = self.omega_s * act
        self.c_omega = act / self.M
        self.c_efd = act / self.te
        self.c_pm = (self.governed & self.mach_active) / self.tg
        # the states the RHS box test looks at: those whose coefficient is
        # not 0, since a derivative that is 0 never moves a state out (a
        # dropped machine's states, a condenser's pm pinned at its floor)
        self._moving = np.concatenate(
            [self.c_delta, self.c_omega, self.c_efd, self.c_pm]) != 0.0
        self._factorize()
        # the step's Jacobian, frozen until the next topology change
        self.J_efd = self._exciter_jacobian()
        self._h = None
        return len(partition)

    def admittance(self):
        """Augmented admittance over the full original bus set, in CSC.

        A branch is on while it is still on and both its ends are
        energized. The diagonal adds the loads and each active machine's
        transient reactance; de-energized buses get a unit diagonal so the
        linear system stays regular with V = 0 there.
        """
        arr = self.base_case.arrays
        on = self.branch_on & self.bus_active[arr.f] & self.bus_active[arr.t]
        Y = build_admittance(self.base_case, on)
        diag = Y.diagonal() + self.y_load
        act = self.mach_active
        np.add.at(diag, self.mach_bus_pos[act], self.y_mach[act])
        diag[~self.bus_active] = 1.0
        Y.setdiag(diag)
        return Y.tocsc()

    def _factorize(self) -> None:
        from scipy.sparse.linalg import splu

        # bus voltages per unit EMF behind each active machine's reactance,
        # one column at a time: a many-column solve goes through
        # multithreaded BLAS, whose idle thread then spins on a core
        lu = splu(self.admittance())
        W = np.zeros((self.nb, self.nm), dtype=complex)
        inj = np.zeros(self.nb, dtype=complex)
        for i in np.flatnonzero(self.mach_active):
            pos = self.mach_bus_pos[i]
            inj[pos] = self.y_mach[i]
            W[:, i] = lu.solve(inj)
            inj[pos] = 0.0
        self.K = W[self.mach_bus_pos]
        self.W_ri = np.vstack([W.real, W.imag])

    def _exciter_jacobian(self) -> np.ndarray:
        """d(defd/dt)/d(efd) at the current state, the one block of the
        Jacobian the step treats implicitly: -c_efd (K_A d|Vt|/d(efd) + I).

        d|Vt_i|/d(efd_j) = Re(conj(Vt_i) K_ij e^(j delta_j)) / |Vt_i|; a
        machine without terminal voltage (a dropped one) gets a zero row.
        """
        n = self.nm
        phase = np.exp(1j * self.y[:n])
        vt = self.K @ (self.y[2 * n : 3 * n] * phase)
        vm = np.abs(vt)
        on = vm > 0.0
        dvm = np.zeros((n, n))
        dvm[on] = (np.conj(vt[on])[:, None] * self.K[on] * phase).real / vm[on, None]
        return -self.c_efd[:, None] * (self.ka[:, None] * dvm + np.eye(n))

    def apply_event(self, action: OutageAction) -> tuple[bool, str | None]:
        """Apply one switching action; returns (executed, skip cause).

        Opening a pair clears all its circuits, and is skipped when none
        survives (one of its buses was removed, or it never had one) or
        all of them are open already.
        Removing a substation clears its buses and their branches, and is
        skipped when the case has no such substation or it is out already.
        """
        base = self.base_case
        arr = base.arrays
        if action.kind == "open_branch":
            pair = tuple(sorted((action.from_bus, action.to_bus)))
            at = base.endpoint_branches.get(pair)
            if at is None or not (self.bus_on[arr.f[at[0]]] and self.bus_on[arr.t[at[0]]]):
                return False, f"no branch with endpoints {[pair]}"
            if not self.branch_on[at].any():
                return False, f"branch {pair[0]}-{pair[1]} already open"
            self.branch_on[at] = False
        else:
            sid = action.substation
            at = base.substation_positions.get(sid)
            if at is None:
                return False, f"unknown substation id {sid!r}"
            if sid in self.removed:
                return False, f"substation {sid!r} already removed"
            self.removed.add(sid)
            self.bus_on[at] = False
            self.branch_on &= self.bus_on[arr.f] & self.bus_on[arr.t]
        return True, None

    # -- dynamics ------------------------------------------------------------

    def _blocks(self, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of y's blocks delta, omega, efd and pm."""
        n = self.nm
        return y[:n], y[n : 2 * n], y[2 * n : 3 * n], y[3 * n :]

    def emf(self, y: np.ndarray) -> np.ndarray:
        """Internal EMF phasors of the state vector y, in an engine buffer
        that the next call overwrites."""
        n = self.nm
        _mul(1j, y[:n], self._phase)
        _exp(self._phase, self._phase)
        return _mul(y[2 * n : 3 * n], self._phase, self._eph)

    def bus_voltages(self, e_ph: np.ndarray) -> np.ndarray:
        """Bus voltage phasors W @ e_ph for the machines' EMF phasors e_ph,
        in an engine buffer that the next call overwrites."""
        # in real arithmetic as one small matrix product: OpenBLAS runs a
        # complex matrix-vector product of this size on two threads, and
        # the idle one then spins on a core between samples
        self._eri[:, 0] = e_ph.real
        self._eri[:, 1] = e_ph.imag
        p = np.matmul(self.W_ri, self._eri, out=self._p)
        nb = self.nb
        np.subtract(p[:nb, 0], p[nb:, 1], out=self._v_re)
        np.add(p[:nb, 1], p[nb:, 0], out=self._v_im)
        np.multiply(1j, self._v_im, out=self._v)
        return np.add(self._v_re, self._v, out=self._v)

    def rhs(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """dy/dt of the state vector [delta, omega, efd, pm], into out.

        A state at a bound of its box does not move further out.
        """
        if out is None:
            out = np.empty_like(y)
        return self._rhs(y, self._blocks(y), out, self._blocks(out))

    def _rhs(self, y, yb, out, ob) -> np.ndarray:
        """rhs of y into out, given both vectors' block views."""
        delta, omega, efd, pm = yb
        phase, e_ph, vt, prod = self._phase, self._eph, self._vt, self._prod
        pe, t, t2 = self._pe, self._t, self._t2
        _mul(1j, delta, phase)  # e_ph as in emf
        _exp(phase, phase)
        _mul(efd, phase, e_ph)
        _matmul(self.K, e_ph, vt)
        _conj(vt, prod)
        _mul(e_ph, prod, prod)
        _div(self._prod_imag, self.xd_sys, pe)  # E Vt sin(delta - theta) / x'd
        _mul(self.c_delta, omega, ob[0])
        _sub(pm, pe, t)
        _mul(self.D, omega, t2)
        _sub(t, t2, t)
        _mul(t, self.c_omega, ob[1])
        _abs(vt, t)
        _sub(self.vref, t, t)
        _mul(self.ka, t, t)
        _sub(t, efd, t)
        _mul(t, self.c_efd, ob[2])
        _mul(omega, self.droop_gain, t)
        _sub(self.pm_ref, t, t)
        _sub(t, pm, t)
        _mul(t, self.c_pm, ob[3])
        # a moving state at a bound of its box is rare: look for any before
        # finding the stuck ones
        up, down, stuck = self._masks
        _ge(y, self.hi, up)
        _le(y, self.lo, down)
        if _count_nonzero(_and(_or(up, down, stuck), self._moving, stuck)):
            _and(up, _gt(out, 0.0, stuck), up)
            _and(down, _lt(out, 0.0, stuck), down)
            out[_or(up, down, stuck)] = 0.0
        return out

    def step(self, y: np.ndarray, h: float) -> np.ndarray:
        """Advance one sampling step of size h by one ROS34PW2 step.

        Each of the four stages evaluates the RHS once and solves with
        W = I/(h gamma) - J, where J is the exciter block frozen at the
        last topology change: one product with W's precomputed inverse
        on the exciter block, a scaling by h gamma on the others. The
        step runs in place in the engine's state vector ``self.y`` (y is
        copied there first when it is another array) and returns it.
        """
        if y is not self.y:
            np.copyto(self.y, y)
        if h != self._h:
            self._h, self._hg = h, h * _ROS_GAMMA
            self._ch = [[c / h for c in row] for row in _ROS_C]
            self._w_inv = np.linalg.inv(np.eye(self.nm) / self._hg - self.J_efd)
        y, s, r, tmp, u = self.y, self._s, self._r, self._tmp, self._u
        for i in range(4):
            # stage point y + sum_j a_ij u_j, summed left to right
            if i:
                _add(y, _mul(_ROS_A[i][0], u[0], s), s)
                for j in range(1, i):
                    _add(s, _mul(_ROS_A[i][j], u[j], tmp), s)
                self._rhs(s, self._sb, r, self._rb)
            else:
                self._rhs(y, self._yb, r, self._rb)
            for j in range(i):
                _add(r, _mul(self._ch[i][j], u[j], tmp), r)
            _mul(self._hg, r, u[i])
            _matmul(self._w_inv, self._r_efd, self._u_efd[i])
        # stiffly accurate: the solution is the last stage point plus its
        # increment
        _add(s, u[3], y)
        # keep clamped states inside their boxes
        _clip(y, self.lo, self.hi, y)
        return y


class _Monitor:
    """Online instability detection over the sampled trajectory: the one
    judge of every run's stability verdict."""

    def __init__(self):
        self.per_island: dict[int, str] = {}
        self.first_violation: float | None = None
        self._outside_since: dict[int, float] = {}

    def update(
        self,
        t: float,
        island_key: int,
        spread_deg: float,
        freq_hz: float,
    ) -> str | None:
        """Feed one island sample; returns a verdict when one fires."""
        self.per_island.setdefault(island_key, "stable")
        if self.per_island[island_key] != "stable":
            return None

        if spread_deg > ANGLE_SEPARATION_DEG:
            return self._fire(island_key, "transient_unstable", t)

        if abs(freq_hz - F_NOMINAL) > FREQ_BAND_HZ:
            since = self._outside_since.setdefault(island_key, t)
            if t - since >= DWELL_S:
                return self._fire(island_key, "frequency_unstable", t)
        else:
            self._outside_since.pop(island_key, None)
        return None

    def _fire(self, key: int, verdict: str, t: float) -> str:
        self.per_island[key] = verdict
        if self.first_violation is None:
            self.first_violation = t
        return verdict

    def verdict(self) -> StabilityVerdict:
        per = dict(self.per_island) or {0: "stable"}
        return StabilityVerdict(
            overall=_aggregate_overall(per),
            per_island=per,
            time_of_first_violation=self.first_violation,
        )


class _Run:
    """A run in progress: the engine at time ``t``, the monitors, the event
    log and the trace buffers of ``capacity`` rows, filled row by row (a
    halted run never touches their tail)."""

    def __init__(self, engine: _Engine, sample_every: int, trace_every: int | None, capacity: int):
        self.engine, self.monitor, self.t = engine, _Monitor(), 0.0
        self.sample_every, self.trace_every = sample_every, trace_every
        self.n_samples = 0  # judged by the monitors
        self.n_rows = 0  # recorded in the trace
        self.events: list[EventRecord] = []
        self.times, self.volts = np.empty(capacity), np.empty((capacity, engine.nb))
        self.angles = np.empty((capacity, engine.nm))
        self.mach_isl = np.empty((capacity, engine.nm), dtype=int)
        self.island_freq: dict[int, np.ndarray] = {}  # NaN before formation, after death

    def advance(self, t_stop: float, n_steps: int) -> bool:
        """Take ``n_steps`` equal steps to ``t_stop``, judging a sample after
        every ``sample_every``-th step and the last; True at a halt, with
        ``t`` at the sample that fired."""
        engine, t_a = self.engine, self.t
        h = (t_stop - t_a) / n_steps
        for k in range(1, n_steps + 1):
            engine.step(engine.y, h)
            if k % self.sample_every == 0 or k == n_steps:
                self.t = t_a + k * h
                if self.sample(self.t):
                    return True
        self.t = t_stop
        return False

    def apply(self, t: float, action: OutageAction) -> None:
        """Execute one switching action, re-detect the islands and log it."""
        ok, cause = self.engine.apply_event(action)
        n_isl = self.engine.refresh_topology() if ok else None
        self.events.append(EventRecord(t, action, "executed" if ok else "skipped", cause, n_isl))

    def sample(self, t: float) -> str | None:
        """Judge the sample at t, and record it when it falls on the trace's
        grid (samples 0, ``trace_every``, 2 ``trace_every``, ...); returns
        the verdict of a monitor that fired."""
        engine, i = self.engine, self.n_rows
        keep = self.trace_every is not None and self.n_samples % self.trace_every == 0
        self.n_samples += 1
        if keep:
            np.abs(engine.bus_voltages(engine.emf(engine.y)), out=self.volts[i])
            self.volts[i, engine.bus_dead] = 0.0
            self.angles[i].fill(np.nan)
            self.times[i] = t
            self.mach_isl[i] = engine.mach_island
            self.n_rows += 1
        delta, omega = engine._yb[:2]
        fired = None
        for key, members, w, w_sum, rel in engine.island_members:
            delta.take(members, out=rel)
            coi = float(np.dot(w, rel) / w_sum)
            np.subtract(rel, coi, out=rel)
            np.degrees(rel, out=rel)
            if keep:
                self.angles[i, members] = rel
            spread = float(rel.max() - rel.min()) if members.size > 1 else 0.0
            omega.take(members, out=rel)
            f_isl = F_NOMINAL * (1.0 + float(np.dot(w, rel) / w_sum))
            freq = self.island_freq.get(key)
            if freq is None:
                freq = self.island_freq[key] = np.full(len(self.times), np.nan)
            if keep:
                freq[i] = f_isl
            fired = self.monitor.update(t, key, spread, f_isl) or fired
        return fired


def run_scenario(
    case: GridCase,
    schedule: SwitchingSchedule,
    models: Sequence[MachineModel] | None = None,
    options: ScenarioOptions | None = None,
    state: DynamicState | None = None,
    trace_every: int | None = 1,
) -> tuple[DynamicTrace, StabilityVerdict]:
    """Integrate a switching scenario and judge per-island stability.

    Events land exactly on integration step boundaries: the run reaches
    each event time, and then ``t_end``, in the fewest equal steps no
    longer than ``options.dt``. After every event the island pattern is
    re-detected; islands without a generating unit are de-energized
    immediately. The run halts at the first instability verdict and the
    remaining events are marked skipped. A run from ``state`` uses the
    models the state was built for; ``models``, when given as well, must
    equal them.

    The monitors judge every sample, but the trace records only samples
    0, ``trace_every``, 2 ``trace_every``, ... (the rows
    ``trace_to_csv(full_trace, trace_every)`` would write; a halt sample
    off that grid is not recorded), and ``trace_every=None`` records
    none: the trace then holds the event log and zero rows. Either way
    ``island_freq`` has a column for every island seen at any sample.
    """
    if trace_every is not None and trace_every < 1:
        raise ValueError("trace_every must be >= 1 or None")
    if state is None:
        state = initial_state(case, default_machine_models(case) if models is None else models)
    elif models is not None and tuple(models) != state.models:
        raise ValueError("models differ from the ones the state was initialized for")
    options = options or ScenarioOptions()

    t_end = schedule.end_time + 10.0 if options.t_end is None else options.t_end
    if schedule.events and schedule.end_time > t_end:
        raise ValueError("t_end must reach the last scheduled event")

    # the legs: to every event time after 0, then to t_end, each in the
    # fewest equal steps no longer than dt (a ratio above an integer by
    # float noise counts as that integer: 0.07 / 0.01 is 7.000000000000001)
    stops = sorted({t_end, *(t for t, _ in schedule.events)} - {0.0})
    legs = [(t_b, max(1, math.ceil((t_b - t_a) / options.dt - 1e-9)))
            for t_a, t_b in zip([0.0, *stops], stops)]
    # the buffers hold every sample an unhalted run records
    n_total = 1 + sum(-(-n_steps // options.sample_every) for _, n_steps in legs)
    capacity = 0 if trace_every is None else -(-n_total // trace_every)
    run = _Run(_Engine(case, state.models, state), options.sample_every, trace_every, capacity)

    # the t = 0 sample opens the trace at the pre-event equilibrium; the
    # events at t = 0 apply after it, even when it fired, and an event at
    # t_end applies after the last step
    pending = list(schedule.events)
    halted = run.sample(0.0)
    for t_stop, n_steps in [(0.0, 0), *legs]:
        if n_steps and (halted := run.advance(t_stop, n_steps)):
            break
        while pending and pending[0][0] <= t_stop:
            run.apply(*pending.pop(0))
        if halted:
            break
    for t_ev, action in pending:
        run.events.append(EventRecord(t_ev, action, "skipped", "instability_halt", None))

    n = run.n_rows  # a halted run's buffers end in rows it never wrote
    trace = DynamicTrace(
        times=run.times[:n],
        machine_buses=tuple(m.bus for m in state.models),
        angles_deg=run.angles[:n],
        machine_island=run.mach_isl[:n],
        island_freq={key: freq[:n] for key, freq in run.island_freq.items()},
        voltages=run.volts[:n],
        bus_ids=tuple(case.bus_index),
        events=tuple(run.events),
    )
    return trace, run.monitor.verdict()


def trace_to_csv(trace: DynamicTrace, decimate: int = 1) -> str:
    """Render a trace as CSV for external plotting.

    Columns: time, ang_<bus> (COI-relative degrees) per machine,
    freq_<island> (Hz), v_<bus> (p.u.).
    """
    if decimate < 1:
        raise ValueError("decimate must be >= 1")
    return "".join(_csv_lines(trace, decimate))


def _csv_lines(trace: DynamicTrace, decimate: int) -> Iterator[str]:
    """The lines of ``trace_to_csv``, header first, one at a time."""
    keys = sorted(trace.island_freq)
    header = (
        ["time"]
        + [f"ang_{b}" for b in trace.machine_buses]
        + [f"freq_{k}" for k in keys]
        + [f"v_{b}" for b in trace.bus_ids]
    )
    yield ",".join(header) + "\n"
    columns = [trace.times, trace.angles_deg,
               *(trace.island_freq[k] for k in keys), trace.voltages]
    table = np.column_stack([c[::decimate] for c in columns])
    # '%.6f' prints any NaN as 'nan' and -0.0 as '-0.000000'
    row = "%.4f" + ",%.6f" * (len(header) - 1) + "\n"
    for r in table:
        yield row % tuple(r.tolist())
