"""Time-domain simulation of ordered switching attacks on the grid.

Machines carry classical rotor dynamics (swing equation) behind a
transient reactance, a first-order high-gain voltage regulator driving
the internal EMF, and, for generating units, a first-order droop
governor. Synchronous condensers swing too but have no turbine, so
their mechanical power is pinned at zero. Loads are constant impedance,
folded into the network admittance at the pre-event operating point, so
the network stays linear. After every topology change it is factorized
once and reduced to the machines' internal EMFs (Kundur 1994, ch. 13),
so each integration stage costs one small dense matrix-vector product.

A scenario is a strictly ordered list of switching events (branch
openings or whole-substation removals). Parallel circuits switch as one
endpoint pair: opening 42-49 opens every circuit between buses 42 and
49, and the network keeps a branch only while its pair is still in
service. After every event the island pattern is re-detected; islands
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
from typing import Sequence

import numpy as np

from .model import GridCase
from .powerflow import (
    PowerFlowOptions,
    PowerFlowSolution,
    build_admittance,
    solve_newton,
)
from .topology import (
    OutageAction,
    apply_branch_outages,
    apply_substation_outage,
    find_islands,
)

__all__ = [
    "ExciterParams",
    "GovernorParams",
    "MachineModel",
    "default_machine_models",
    "SwitchingSchedule",
    "parse_schedule",
    "load_schedule",
    "dumps_schedule",
    "DetectionThresholds",
    "ScenarioOptions",
    "DynamicState",
    "EventRecord",
    "DynamicTrace",
    "StabilityVerdict",
    "init_dynamic_state",
    "initial_state",
    "run_scenario",
    "detect_instability",
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
        if any(t < 0 for t in times):
            raise ValueError("event times must be non-negative")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("event times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def end_time(self) -> float:
        return self.events[-1][0] if self.events else 0.0

    @staticmethod
    def evenly_spaced(
        actions: Sequence[OutageAction],
        interval: float = 5.0,
        start: float = 0.0,
    ) -> "SwitchingSchedule":
        """Actions at ``start``, ``start+interval``, ... (default 5 s apart)."""
        if interval <= 0:
            raise ValueError("interval must be positive")
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
        kind = toks[1] if len(toks) > 1 else ""
        if kind == "open_branch" and len(toks) == 4:
            action = OutageAction.open_branch(int(toks[2]), int(toks[3]))
        elif kind == "remove_substation" and len(toks) == 3:
            sub: int | str = toks[2]
            if isinstance(sub, str) and sub.lstrip("-").isdigit():
                sub = int(sub)
            action = OutageAction.remove_substation(sub)
        else:
            raise ValueError(f"line {no}: unrecognized event {line!r}")
        events.append((t, action))
    return SwitchingSchedule(tuple(events))


def load_schedule(path: str | Path) -> SwitchingSchedule:
    return parse_schedule(Path(path).read_text())


def dumps_schedule(schedule: SwitchingSchedule) -> str:
    lines = []
    for t, a in schedule:
        if a.kind == "open_branch":
            lines.append(f"{t:g} open_branch {a.from_bus} {a.to_bus}")
        else:
            lines.append(f"{t:g} remove_substation {a.substation}")
    return "\n".join(lines) + ("\n" if lines else "")


# --- options and result types ----------------------------------------------


@dataclass(frozen=True)
class DetectionThresholds:
    """Instability monitors: angle spread, frequency band with dwell."""

    angle_separation_deg: float = 360.0
    freq_band_hz: float = 2.5
    f_nominal: float = 60.0
    dwell_s: float = 1.0


@dataclass(frozen=True)
class ScenarioOptions:
    dt: float = 0.01
    t_end: float | None = None  # default: last event + 10 s
    sample_every: int = 1
    thresholds: DetectionThresholds = field(default_factory=DetectionThresholds)

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
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
    so COI weighting is available from the state alone.
    """

    machine_buses: tuple[int, ...]
    delta: np.ndarray
    omega: np.ndarray
    efd: np.ndarray
    pm: np.ndarray
    vref: np.ndarray
    pm_ref: np.ndarray
    inertia: np.ndarray
    voltages: np.ndarray  # complex, one per case bus


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

    ``angles_deg`` holds COI-relative machine angles (degrees, NaN once
    a machine is dropped); ``machine_island`` the island key each
    machine belonged to at each sample (-1 when dropped);
    ``island_freq`` maps island key (its lowest bus id) to an
    inertia-weighted frequency trace in Hz (NaN before formation or
    after death); ``voltages`` per-bus magnitudes (0 when de-energized).
    """

    times: np.ndarray
    machine_buses: tuple[int, ...]
    angles_deg: np.ndarray
    machine_island: np.ndarray
    island_freq: dict[int, np.ndarray]
    voltages: np.ndarray
    bus_ids: tuple[int, ...]
    events: tuple[EventRecord, ...]
    dt: float


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
    growing_oscillation: dict[int, bool]

    @property
    def unstable(self) -> bool:
        return self.overall != "stable"


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
    nb = len(case.buses)
    idx = case.bus_index
    V = pf.vm * np.exp(1j * pf.va)

    adm = build_admittance(case)
    s_inj = V * np.conj(adm.matrix @ V)  # p.u. net injection

    # net machine output per bus = injection + local load
    s_gen_bus = {}
    for b in case.buses:
        j = idx[b.id]
        s_gen_bus[b.id] = s_inj[j] + complex(b.load_p, b.load_q) / base

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
        total = s_gen_bus[bus]
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
        machine_buses=tuple(g.bus for g in case.generators),
        delta=delta,
        omega=np.zeros(nm),
        efd=efd,
        pm=pm.copy(),
        vref=vref,
        pm_ref=pm.copy(),
        inertia=inertia,
        voltages=V.copy(),
    )

    # defensive equilibrium check: the construction above should zero
    # every derivative to solver precision
    engine = _Engine(case, models, state, DetectionThresholds())
    dy = engine.rhs(_state_vector(state))
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
    ``K @ E`` for the vector E of internal EMF phasors, so an
    integration stage costs one small dense product.
    """

    def __init__(
        self,
        case: GridCase,
        models: Sequence[MachineModel],
        state: DynamicState,
        thresholds: DetectionThresholds,
    ):
        self.base_case = case
        self.models = tuple(models)
        self.nb = len(case.buses)
        self.nm = len(models)
        self.bus_ids = tuple(b.id for b in case.buses)
        self.bus_pos = {b: i for i, b in enumerate(self.bus_ids)}
        self.omega_s = 2.0 * math.pi * thresholds.f_nominal

        base = case.base_mva
        self.mach_bus_pos = np.array(
            [self.bus_pos[m.bus] for m in self.models], dtype=int
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
        for b in case.buses:
            j = self.bus_pos[b.id]
            s = complex(b.load_p, b.load_q) / base
            if s != 0:
                self.y_load[j] = np.conj(s) / (abs(V0[j]) ** 2)

        # The regulator lag is stiff against a 10 ms sampling step: its
        # linearized eigenvalue reaches -(1 + gain)/Te when a machine
        # dominates its own terminal voltage. Substep so |lambda| h
        # stays well inside the explicit RK4 stability region.
        lam = np.max((1.0 + self.ka) / self.te) if self.nm else 1.0
        self.h_stable = 2.0 / lam
        self._k = np.empty((4, 4 * self.nm))  # RK4 stage derivatives

        # evolving topology
        self.current_case = case
        self.bus_active = np.ones(self.nb, dtype=bool)
        self.mach_active = np.ones(self.nm, dtype=bool)
        self.islands: list[tuple[int, frozenset[int]]] = []  # (key, buses)
        self.refresh_topology(initial=True)

    # -- topology ------------------------------------------------------------

    def refresh_topology(self, initial: bool = False) -> int:
        """Re-detect islands, de-energize dead ones, refactorize.

        Returns the number of islands in the current in-service
        network (dead ones included, matching find_islands).
        """
        partition = find_islands(self.current_case)
        self.islands = []
        alive = np.zeros(self.nb, dtype=bool)
        bus_island = np.full(self.nb, -1, dtype=int)
        for isl in partition.islands:
            if isl.servable:
                key = min(isl.buses)
                self.islands.append((key, isl.buses))
                positions = [self.bus_pos[b] for b in isl.buses]
                alive[positions] = True
                bus_island[positions] = key
        # buses formerly active that fell into dead islands or dropped
        # out of the case entirely are de-energized now
        present = np.zeros(self.nb, dtype=bool)
        present[[self.bus_pos[b.id] for b in self.current_case.buses]] = True
        self.bus_active &= alive & present
        self.mach_active &= self.bus_active[self.mach_bus_pos]

        # island key of each machine (-1 when dropped) and, per island
        # with machines, its members and their inertias
        self.mach_island = np.where(
            self.mach_active, bus_island[self.mach_bus_pos], -1
        )
        self.island_members = []
        for key, _buses in self.islands:
            members = np.flatnonzero(self.mach_island == key)
            if members.size:
                self.island_members.append((key, members, self.M[members]))

        # derivative coefficients, zero for dropped machines
        act = self.mach_active.astype(float)
        self.c_delta = self.omega_s * act
        self.c_omega = act / self.M
        self.c_efd = act / self.te
        self.c_pm = (self.governed & self.mach_active) / self.tg
        self._factorize()
        return len(partition)

    def admittance(self):
        """Augmented admittance over the full original bus set, in CSC.

        A base branch is on while its endpoint pair is in service in the
        current case and both its ends are energized. The diagonal adds
        the loads and each active machine's transient reactance;
        de-energized buses get a unit diagonal so the linear system
        stays regular with V = 0 there.
        """
        pairs = {br.endpoints for br in self.current_case.branches if br.status}
        base = self.base_case
        arr = base.arrays
        on = np.array([br.endpoints in pairs for br in base.branches], dtype=bool)
        on &= arr.status & self.bus_active[arr.f] & self.bus_active[arr.t]
        Y = build_admittance(base, on).matrix
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

    def apply_event(self, action: OutageAction) -> tuple[bool, str | None]:
        """Apply one switching action; returns (executed, skip cause)."""
        try:
            if action.kind == "open_branch":
                self.current_case = apply_branch_outages(
                    self.current_case, [(action.from_bus, action.to_bus)]
                )
            else:
                self.current_case, _, _ = apply_substation_outage(
                    self.current_case, [action.substation]
                )
        except ValueError as exc:
            return False, str(exc)
        return True, None

    # -- dynamics ------------------------------------------------------------

    def emf(self, y: np.ndarray) -> np.ndarray:
        """Internal EMF phasors of the state vector y."""
        n = self.nm
        return y[2 * n : 3 * n] * np.exp(1j * y[:n])

    def bus_voltages(self, e_ph: np.ndarray) -> np.ndarray:
        """Bus voltage phasors W @ e_ph for the machines' EMF phasors e_ph."""
        # in real arithmetic as one small matrix product: OpenBLAS runs a
        # complex matrix-vector product of this size on two threads, and
        # the idle one then spins on a core between samples
        p = self.W_ri @ np.column_stack([e_ph.real, e_ph.imag])
        nb = self.nb
        return (p[:nb, 0] - p[nb:, 1]) + 1j * (p[:nb, 1] + p[nb:, 0])

    def rhs(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """dy/dt of the state vector [delta, omega, efd, pm], into out.

        A state at a bound of its box does not move further out.
        """
        n = self.nm
        if out is None:
            out = np.empty_like(y)
        omega, efd, pm = y[n : 2 * n], y[2 * n : 3 * n], y[3 * n :]
        e_ph = self.emf(y)
        vt = self.K @ e_ph
        pe = (e_ph * vt.conj()).imag / self.xd_sys  # E Vt sin(delta - theta) / x'd
        np.multiply(self.c_delta, omega, out=out[:n])
        np.multiply(pm - pe - self.D * omega, self.c_omega, out=out[n : 2 * n])
        np.multiply(
            self.ka * (self.vref - np.abs(vt)) - efd, self.c_efd, out=out[2 * n : 3 * n]
        )
        np.multiply(
            self.pm_ref - omega * self.droop_gain - pm, self.c_pm, out=out[3 * n :]
        )
        stuck = ((y >= self.hi) & (out > 0)) | ((y <= self.lo) & (out < 0))
        out[stuck] = 0.0
        return out

    def rk4_step(self, y: np.ndarray, h: float) -> np.ndarray:
        """Advance one sampling step of size h with stable substeps."""
        m = max(1, math.ceil(h / self.h_stable))
        hs = h / m
        k1, k2, k3, k4 = self._k
        for _ in range(m):
            self.rhs(y, k1)
            self.rhs(y + 0.5 * hs * k1, k2)
            self.rhs(y + 0.5 * hs * k2, k3)
            self.rhs(y + hs * k3, k4)
            y = y + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # keep clamped states inside their boxes
            np.clip(y, self.lo, self.hi, out=y)
        return y


class _Monitor:
    """Online instability detection over the sampled trajectory."""

    def __init__(self, thresholds: DetectionThresholds):
        self.th = thresholds
        self.per_island: dict[int, str] = {}
        self.growing: dict[int, bool] = {}
        self.first_violation: float | None = None
        self._outside_since: dict[int, float] = {}
        self._spread_hist: dict[int, list[float]] = {}
        self._peaks: dict[int, list[float]] = {}

    def update(
        self,
        t: float,
        island_key: int,
        spread_deg: float,
        freq_hz: float,
    ) -> str | None:
        """Feed one island sample; returns a verdict when one fires."""
        self.per_island.setdefault(island_key, "stable")
        self.growing.setdefault(island_key, False)
        if self.per_island[island_key] != "stable":
            return None

        hist = self._spread_hist.setdefault(island_key, [])
        hist.append(spread_deg)
        if len(hist) >= 3 and hist[-2] > hist[-3] and hist[-2] > hist[-1]:
            peaks = self._peaks.setdefault(island_key, [])
            peaks.append(hist[-2])
            if len(peaks) >= 3 and peaks[-3] < peaks[-2] < peaks[-1]:
                self.growing[island_key] = True
        if len(hist) > 3:
            del hist[0]

        if spread_deg > self.th.angle_separation_deg:
            return self._fire(island_key, "transient_unstable", t)

        if abs(freq_hz - self.th.f_nominal) > self.th.freq_band_hz:
            since = self._outside_since.setdefault(island_key, t)
            if t - since >= self.th.dwell_s:
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
            growing_oscillation=dict(self.growing),
        )


def run_scenario(
    case: GridCase,
    schedule: SwitchingSchedule,
    models: Sequence[MachineModel] | None = None,
    options: ScenarioOptions | None = None,
    state: DynamicState | None = None,
) -> tuple[DynamicTrace, StabilityVerdict]:
    """Integrate a switching scenario and judge per-island stability.

    Events land exactly on integration step boundaries. After every
    event the island pattern is re-detected; islands without a
    generating unit are de-energized immediately. The run halts at the
    first instability verdict and the remaining events are marked
    skipped.
    """
    models = tuple(models) if models is not None else default_machine_models(case)
    options = options or ScenarioOptions()
    if state is None:
        state = initial_state(case, models)

    t_end = options.t_end
    if t_end is None:
        t_end = schedule.end_time + 10.0
    if schedule.events and schedule.end_time > t_end:
        raise ValueError("t_end must reach the last scheduled event")

    th = options.thresholds
    engine = _Engine(case, models, state, th)
    monitor = _Monitor(th)

    # timeline segments between events
    boundaries = [t for t, _ in schedule.events if t > 0.0]
    if not boundaries or boundaries[-1] < t_end:
        boundaries = boundaries + [t_end]

    nm, nb = engine.nm, engine.nb
    times: list[float] = []
    angles: list[np.ndarray] = []
    mach_isl: list[np.ndarray] = []
    volts: list[np.ndarray] = []
    freq_samples: dict[int, dict[int, float]] = {}
    events_log: list[EventRecord] = []

    y = _state_vector(state)
    pending = list(schedule.events)
    halted = False

    def record_sample(t: float) -> str | None:
        delta, omega = y[:nm], y[nm : 2 * nm]
        V = engine.bus_voltages(engine.emf(y))
        vmag = np.where(engine.bus_active, np.abs(V), 0.0)
        ang = np.full(nm, np.nan)
        fired = None
        for key, members, w in engine.island_members:
            coi = float(np.dot(w, delta[members]) / w.sum())
            rel = np.degrees(delta[members] - coi)
            ang[members] = rel
            spread = float(rel.max() - rel.min()) if members.size > 1 else 0.0
            f_isl = th.f_nominal * (
                1.0 + float(np.dot(w, omega[members]) / w.sum())
            )
            freq_samples.setdefault(key, {})[len(times)] = f_isl
            v = monitor.update(t, key, spread, f_isl)
            fired = fired or v
        times.append(t)
        angles.append(ang)
        mach_isl.append(engine.mach_island)
        volts.append(vmag)
        return fired

    # events at t=0 apply before integration starts; the t=0 sample is
    # recorded first so the trace opens at the pre-event equilibrium
    fired = record_sample(0.0)
    while pending and pending[0][0] == 0.0 and not halted:
        t_ev, action = pending.pop(0)
        ok, cause = engine.apply_event(action)
        n_isl = engine.refresh_topology() if ok else None
        events_log.append(
            EventRecord(t_ev, action, "executed" if ok else "skipped", cause, n_isl)
        )
    if fired:
        halted = True

    t_now = 0.0
    for t_b in boundaries:
        if halted or t_now >= t_end:
            break
        n_steps = max(1, round((t_b - t_now) / options.dt))
        h = (t_b - t_now) / n_steps
        for k in range(n_steps):
            y = engine.rk4_step(y, h)
            t = t_now + (k + 1) * h
            if (k + 1) % options.sample_every == 0 or k == n_steps - 1:
                if record_sample(t):
                    halted = True
                    break
        t_now = t_b
        if halted:
            break
        # apply events scheduled exactly at this boundary
        while pending and pending[0][0] <= t_now + 1e-9:
            t_ev, action = pending.pop(0)
            ok, cause = engine.apply_event(action)
            n_isl = engine.refresh_topology() if ok else None
            events_log.append(
                EventRecord(
                    t_ev, action, "executed" if ok else "skipped", cause, n_isl
                )
            )

    for t_ev, action in pending:
        events_log.append(
            EventRecord(t_ev, action, "skipped", "instability_halt", None)
        )

    n_samples = len(times)
    freq_arrays: dict[int, np.ndarray] = {}
    for key, by_sample in freq_samples.items():
        arr = np.full(n_samples, np.nan)
        for si, f in by_sample.items():
            arr[si] = f
        freq_arrays[key] = arr

    trace = DynamicTrace(
        times=np.array(times),
        machine_buses=state.machine_buses,
        angles_deg=np.vstack(angles) if angles else np.zeros((0, nm)),
        machine_island=np.vstack(mach_isl) if mach_isl else np.zeros((0, nm), int),
        island_freq=freq_arrays,
        voltages=np.vstack(volts) if volts else np.zeros((0, nb)),
        bus_ids=engine.bus_ids,
        events=tuple(events_log),
        dt=options.dt,
    )
    return trace, monitor.verdict()


def detect_instability(
    trace: DynamicTrace,
    thresholds: DetectionThresholds | None = None,
) -> StabilityVerdict:
    """Replay a sampled trace through the instability monitors.

    Produces the same verdict the online run would have reached on the
    same samples: angle-spread threshold per island, frequency band
    with dwell, growing-oscillation flags.
    """
    th = thresholds or DetectionThresholds()
    monitor = _Monitor(th)
    n_samples = trace.times.shape[0]
    for si in range(n_samples):
        t = float(trace.times[si])
        keys = set(int(k) for k in np.unique(trace.machine_island[si]) if k >= 0)
        for key in sorted(keys):
            members = np.where(trace.machine_island[si] == key)[0]
            rel = trace.angles_deg[si, members]
            rel = rel[~np.isnan(rel)]
            spread = float(rel.max() - rel.min()) if rel.size > 1 else 0.0
            farr = trace.island_freq.get(key)
            f = float(farr[si]) if farr is not None and not np.isnan(farr[si]) \
                else th.f_nominal
            if monitor.update(t, key, spread, f):
                return monitor.verdict()
    return monitor.verdict()


def trace_to_csv(trace: DynamicTrace, decimate: int = 1) -> str:
    """Render a trace as CSV for external plotting.

    Columns: time, ang_<bus> (COI-relative degrees) per machine,
    freq_<island> (Hz), v_<bus> (p.u.).
    """
    if decimate < 1:
        raise ValueError("decimate must be >= 1")
    keys = sorted(trace.island_freq)
    header = (
        ["time"]
        + [f"ang_{b}" for b in trace.machine_buses]
        + [f"freq_{k}" for k in keys]
        + [f"v_{b}" for b in trace.bus_ids]
    )
    columns = [trace.times, trace.angles_deg,
               *(trace.island_freq[k] for k in keys), trace.voltages]
    table = np.column_stack([c[::decimate] for c in columns])
    # '%.6f' prints any NaN as 'nan' and -0.0 as '-0.000000'
    row = "%.4f" + ",%.6f" * (len(header) - 1) + "\n"
    return ",".join(header) + "\n" + "".join(row % tuple(r.tolist()) for r in table)
