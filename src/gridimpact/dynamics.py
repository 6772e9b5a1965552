"""Time-domain simulation of ordered switching attacks on the grid.

Machines carry classical rotor dynamics (swing equation) behind a
transient reactance, a first-order high-gain voltage regulator driving
the internal EMF, and, for generating units, a first-order droop
governor. Synchronous condensers swing too but have no turbine, so
their mechanical power is pinned at zero. Loads are constant impedance,
folded into the network admittance at the pre-event operating point, so
the network stays linear and each integration stage costs one sparse
triangular solve.

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

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse.linalg as spla

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
    dy = engine.rhs(engine.pack(state.delta, state.omega, state.efd, state.pm))
    worst = float(np.max(np.abs(dy))) if dy.size else 0.0
    if worst > 1e-8:
        raise ValueError(
            f"equilibrium initialization failed: max |dx/dt| = {worst:.3e}"
        )
    return state


# --- the integration engine --------------------------------------------------


class _Engine:
    """Linear-network swing integrator over the current topology.

    Holds the factorized augmented admittance for the active island
    set; refactorizes only when events change the topology.
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
        self.M = state.inertia.copy()  # 2 H S / S_sys
        self.D = np.array([m.damping_D for m in self.models]) * s_mach / base
        self.ka = np.array([m.exciter.gain for m in self.models])
        self.te = np.array([m.exciter.time_constant for m in self.models])
        self.e_min = np.array([m.exciter.e_min for m in self.models])
        self.e_max = np.array([m.exciter.e_max for m in self.models])
        self.governed = np.array(
            [m.governor is not None for m in self.models], dtype=bool
        )
        self.r_droop = np.array(
            [m.governor.droop if m.governor else 1.0 for m in self.models]
        )
        self.tg = np.array(
            [m.governor.time_constant if m.governor else 1.0 for m in self.models]
        )
        self.p_max_sys = np.array(
            [
                (m.governor.p_max * g.mva_base / base) if m.governor else 0.0
                for m, g in zip(self.models, case.generators)
            ]
        )
        self.s_ratio = s_mach / base
        self.vref = state.vref
        self.pm_ref = state.pm_ref

        # constant-impedance loads anchored at the initial operating point
        V0 = state.voltages
        self.y_load = np.zeros(self.nb, dtype=complex)
        for b in case.buses:
            j = self.bus_pos[b.id]
            s = complex(b.load_p, b.load_q) / base
            if s != 0:
                self.y_load[j] = np.conj(s) / (abs(V0[j]) ** 2)

        self.is_condenser = np.array(
            [g.is_condenser for g in case.generators], dtype=bool
        )

        # The regulator lag is stiff against a 10 ms sampling step: its
        # linearized eigenvalue reaches -(1 + gain)/Te when a machine
        # dominates its own terminal voltage. Substep so |lambda| h
        # stays well inside the explicit RK4 stability region.
        lam = np.max((1.0 + self.ka) / self.te) if self.nm else 1.0
        self.h_stable = 2.0 / lam

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
        for isl in partition.islands:
            positions = [self.bus_pos[b] for b in isl.buses]
            if isl.servable:
                key = min(isl.buses)
                self.islands.append((key, isl.buses))
                alive[positions] = True
        # buses formerly active that fell into dead islands or dropped
        # out of the case entirely are de-energized now
        present = np.zeros(self.nb, dtype=bool)
        present[[self.bus_pos[b.id] for b in self.current_case.buses]] = True
        self.bus_active &= alive & present
        for i, m in enumerate(self.models):
            if not self.bus_active[self.mach_bus_pos[i]]:
                self.mach_active[i] = False
        self._factorize()
        return len(partition)

    def _factorize(self) -> None:
        # admittance over the full original bus set: a base branch is on
        # while its endpoint pair is in service in the current case and
        # both its ends are energized; de-energized buses get a unit
        # diagonal so the linear system stays regular with V = 0 there
        pairs = {br.endpoints for br in self.current_case.branches if br.status}
        base = self.base_case
        arr = base.arrays
        on = np.array([br.endpoints in pairs for br in base.branches], dtype=bool)
        on &= arr.status & self.bus_active[arr.f] & self.bus_active[arr.t]
        Y = build_admittance(base, on).matrix
        diag = Y.diagonal() + self.y_load
        act = self.mach_active
        np.add.at(diag, self.mach_bus_pos[act], 1.0 / (1j * self.xd_sys[act]))
        diag[~self.bus_active] = 1.0
        Y.setdiag(diag)
        self.lu = spla.splu(Y.tocsc())

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

    def pack(self, delta, omega, efd, pm) -> np.ndarray:
        return np.concatenate([delta, omega, efd, pm])

    def unpack(self, y: np.ndarray):
        n = self.nm
        return y[0:n], y[n : 2 * n], y[2 * n : 3 * n], y[3 * n : 4 * n]

    def solve_network(self, delta, efd) -> np.ndarray:
        inj = np.zeros(self.nb, dtype=complex)
        act = self.mach_active
        e_ph = efd[act] * np.exp(1j * delta[act])
        np.add.at(inj, self.mach_bus_pos[act], e_ph / (1j * self.xd_sys[act]))
        return self.lu.solve(inj)

    def rhs(self, y: np.ndarray) -> np.ndarray:
        delta, omega, efd, pm = self.unpack(y)
        act = self.mach_active
        V = self.solve_network(delta, efd)
        vt = V[self.mach_bus_pos]
        e_ph = efd * np.exp(1j * delta)
        i_m = np.where(act, (e_ph - vt) / (1j * self.xd_sys), 0.0)
        pe = np.real(e_ph * np.conj(i_m))
        vm = np.abs(vt)

        ddelta = np.where(act, self.omega_s * omega, 0.0)
        domega = np.where(act, (pm - pe - self.D * omega) / self.M, 0.0)

        defd = (self.ka * (self.vref - vm) - efd) / self.te
        defd = np.where(act, defd, 0.0)
        # anti-windup at the regulator limits
        at_top = (efd >= self.e_max) & (defd > 0)
        at_bot = (efd <= self.e_min) & (defd < 0)
        defd[at_top | at_bot] = 0.0

        gov = self.governed & act
        p_cmd = self.pm_ref - (omega / self.r_droop) * self.s_ratio
        dpm = np.where(gov, (p_cmd - pm) / self.tg, 0.0)
        at_top = (pm >= self.p_max_sys) & (dpm > 0)
        at_bot = (pm <= 0.0) & (dpm < 0)
        dpm[(at_top | at_bot) & gov] = 0.0

        return self.pack(ddelta, domega, defd, dpm)

    def rk4_step(self, y: np.ndarray, h: float) -> np.ndarray:
        """Advance one sampling step of size h with stable substeps."""
        m = max(1, math.ceil(h / self.h_stable))
        hs = h / m
        for _ in range(m):
            k1 = self.rhs(y)
            k2 = self.rhs(y + 0.5 * hs * k1)
            k3 = self.rhs(y + 0.5 * hs * k2)
            k4 = self.rhs(y + hs * k3)
            y = y + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # keep clamped states inside their boxes
            delta, omega, efd, pm = self.unpack(y)
            np.clip(efd, self.e_min, self.e_max, out=efd)
            np.clip(
                pm, 0.0, np.where(self.governed, self.p_max_sys, np.inf), out=pm
            )
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
        pf = solve_newton(case, PowerFlowOptions())
        if not pf.converged:
            raise ValueError("base-case power flow did not converge")
        state = init_dynamic_state(case, pf, models)

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

    y = engine.pack(state.delta, state.omega, state.efd, state.pm)
    pending = list(schedule.events)
    halted = False

    mach_buses = state.machine_buses

    def machine_islands() -> np.ndarray:
        out = np.full(nm, -1, dtype=int)
        for key, buses in engine.islands:
            for i in range(nm):
                if engine.mach_active[i] and mach_buses[i] in buses:
                    out[i] = key
        return out

    def record_sample(t: float) -> str | None:
        delta, omega, efd, _pm = engine.unpack(y)
        V = engine.solve_network(delta, efd)
        vmag = np.where(engine.bus_active, np.abs(V), 0.0)
        ang = np.full(nm, np.nan)
        isl_of = machine_islands()
        fired = None
        for key, buses in engine.islands:
            members = np.where((isl_of == key) & engine.mach_active)[0]
            if members.size == 0:
                continue
            w = engine.M[members]
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
        mach_isl.append(isl_of)
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
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    keys = sorted(trace.island_freq)
    header = (
        ["time"]
        + [f"ang_{b}" for b in trace.machine_buses]
        + [f"freq_{k}" for k in keys]
        + [f"v_{b}" for b in trace.bus_ids]
    )
    w.writerow(header)
    for si in range(0, trace.times.shape[0], decimate):
        row = [f"{trace.times[si]:.4f}"]
        row += [_fmt(x) for x in trace.angles_deg[si]]
        row += [_fmt(trace.island_freq[k][si]) for k in keys]
        row += [_fmt(x) for x in trace.voltages[si]]
        w.writerow(row)
    return buf.getvalue()


def _fmt(x: float) -> str:
    return "nan" if np.isnan(x) else f"{x:.6f}"
