"""Network data model and case file I/O.

A grid case describes a transmission network as buses, branches,
generators and substations, with electrical quantities in per-unit on a
common MVA base. Cases are immutable once constructed, so they can be
shared freely across worker processes.

The on-disk format is a plain text file with an optional ``base_mva``
preamble line followed by ``[BUS]``, ``[BRANCH]``, ``[GEN]`` and
``[SUBSTATION]`` sections. Columns are whitespace delimited, in the
declaration order of the corresponding dataclass fields; ``#`` starts a
comment. When no ``[SUBSTATION]`` section is present, every bus forms
its own single-bus substation, which matches the common usage where
"substation 100" simply denotes bus 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Union

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "Bus",
    "Branch",
    "Generator",
    "Substation",
    "GridCase",
    "CaseArrays",
    "CaseSummary",
    "CaseFormatError",
    "CaseValidationError",
    "load_case",
    "loads_case",
    "validate",
    "summarize",
]

BUS_KINDS = ("slack", "PV", "PQ")

SubstationId = Union[int, str]


class CaseFormatError(ValueError):
    """Raised when a case file cannot be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CaseValidationError(ValueError):
    """Raised when a loaded case violates a structural invariant."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class Bus:
    """A network node.

    Attributes:
        id: Positive integer identifier, unique within a case.
        kind: One of ``slack``, ``PV``, ``PQ``.
        voltage_magnitude: Initial/solved voltage magnitude in per-unit.
        voltage_angle: Initial/solved voltage angle in radians.
        base_kv: Nominal voltage level in kV.
        load_p: Active power demand in MW.
        load_q: Reactive power demand in MVAr.
    """

    id: int
    kind: str = "PQ"
    voltage_magnitude: float = 1.0
    voltage_angle: float = 0.0
    base_kv: float = 138.0
    load_p: float = 0.0
    load_q: float = 0.0

    @property
    def has_load(self) -> bool:
        """True when the bus carries active demand (MW); pure reactive
        compensation folded into ``load_q`` does not make a load bus."""
        return self.load_p != 0.0


@dataclass(frozen=True)
class Branch:
    """A transmission line or transformer between two buses.

    ``tap_ratio`` is 1.0 for plain lines; ``total_charging`` is the full
    line charging susceptance in per-unit (split evenly between the two
    ends in the pi model). ``status`` False means out of service.
    """

    from_bus: int
    to_bus: int
    resistance: float
    reactance: float
    total_charging: float = 0.0
    rating: float = 0.0
    tap_ratio: float = 1.0
    is_transformer: bool = False
    status: bool = True

    @property
    def endpoints(self) -> tuple[int, int]:
        """Orientation-free endpoint pair (low bus id first)."""
        a, b = self.from_bus, self.to_bus
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Generator:
    """A synchronous machine: generator or synchronous condenser.

    Condensers (``is_condenser``) hold zero active output and exist for
    reactive support; they count separately from generators in summaries
    and island viability checks.
    """

    bus: int
    p_output: float
    q_output: float = 0.0
    q_min: float = -9999.0
    q_max: float = 9999.0
    v_setpoint: float = 1.0
    mva_base: float = 100.0
    is_condenser: bool = False


@dataclass(frozen=True)
class Substation:
    """A named group of buses that is lost as a unit in an outage."""

    id: SubstationId
    member_buses: frozenset[int]


@dataclass(frozen=True, eq=False)
class CaseArrays:
    """A case compiled once into arrays, in its bus and branch order.

    Per bus: load, the summed output and reactive limits of its machines
    (condensers included), the voltage setpoint (the stored magnitude,
    overridden by the last machine's setpoint), whether any machine sits
    there, the nameplate MVA of its generating units (condensers
    excluded), the output of its largest generating unit (-inf where it
    has none), the stored voltage and the bus kind.

    Per branch: from/to bus positions and the pi-model entries ``yff``,
    ``yft``, ``ytf``, ``ytt`` (tap on the from side, charging split
    evenly), rating and status. A zero-impedance branch has NaN entries.

    ``admittance`` sums the branch stamps into an admittance matrix, over
    every bus or one island's; ``ybus``, the one over the in-service
    branches, is built on first use.
    """

    load_p: np.ndarray
    load_q: np.ndarray
    gen_p: np.ndarray
    gen_q: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray
    v_set: np.ndarray
    has_machine: np.ndarray
    gen_mva: np.ndarray
    unit_p: np.ndarray
    vm: np.ndarray
    va: np.ndarray
    kind: np.ndarray
    f: np.ndarray
    t: np.ndarray
    yff: np.ndarray
    yft: np.ndarray
    ytf: np.ndarray
    ytt: np.ndarray
    rating: np.ndarray
    status: np.ndarray

    def admittance(self, on: np.ndarray, at: np.ndarray | None = None) -> sp.csr_matrix:
        """The nodal admittance matrix over the buses at positions ``at``
        (default: every bus), numbered in ``at``'s order, and the branches
        where ``on`` holds with both ends among them: an incidence sum of
        the pi entries, in canonical CSR form with every diagonal stored
        and only nonzero off-diagonal admittances."""
        import scipy.sparse as sp

        n = self.load_p.size
        at = np.arange(n) if at is None else at
        m = at.size
        pos = np.full(n, -1)
        pos[at] = np.arange(m)
        f, t = pos[self.f], pos[self.t]
        on = on & (f >= 0) & (t >= 0)
        f, t = f[on], t[on]
        # interleaved from/to ends, branch by branch: each diagonal sums its
        # stamps in branch order, as the element-wise stamp would
        ends, other = np.empty((2, 2 * f.size), dtype=int)
        ends[0::2] = other[1::2] = f
        ends[1::2] = other[0::2] = t
        stamp, off = np.empty((2, 2 * f.size), dtype=complex)
        stamp[0::2], stamp[1::2] = self.yff[on], self.ytt[on]
        off[0::2], off[1::2] = self.yft[on], self.ytf[on]
        diag = np.empty(m, dtype=complex)
        diag.real = np.bincount(ends, stamp.real, m)
        diag.imag = np.bincount(ends, stamp.imag, m)
        key = np.concatenate([ends * m + other, np.arange(0, m * m, m + 1)])
        value = np.concatenate([off, diag])
        # a stable sort keeps the stamps of one entry in branch order, and
        # they are summed left to right, as a coo -> csr pass sums parallel
        # circuits; off the diagonal, sums of exactly zero are dropped
        order = key.argsort(kind="stable")
        key, value = key[order], value[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        data = value[first]
        np.add.at(data, first.cumsum()[~first] - 1, value[~first])
        rows, cols = np.divmod(key[first], m)
        stored = (data != 0) | (rows == cols)
        indptr = np.zeros(m + 1, dtype=np.intc)
        indptr[1:] = np.bincount(rows[stored], minlength=m).cumsum()
        Y = sp.csr_matrix((data[stored], cols[stored].astype(np.intc), indptr), shape=(m, m))
        Y.has_canonical_format = True
        return Y

    @cached_property
    def ybus(self) -> sp.csr_matrix:
        """``admittance`` over the in-service branches; read-only."""
        return self.admittance(self.status)


def _pi_entries(br: Branch) -> tuple[complex, complex, complex, complex]:
    """A branch's pi-model entries ``(yff, yft, ytf, ytt)``: tap on the from
    side, charging split evenly, NaN at zero impedance. They are computed
    with scalar complex arithmetic: numpy's array division rounds some of
    them differently in the last bit."""
    z = complex(br.resistance, br.reactance)
    y = 1.0 / z if z else complex("nan")
    shunt = 0.5j * br.total_charging
    a = br.tap_ratio
    return (y + shunt) / (a * a), -y / a, -y / a, y + shunt


@dataclass(frozen=True)
class GridCase:
    """Immutable network case: buses, branches, machines, substations."""

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    substations: tuple[Substation, ...]

    @cached_property
    def bus_index(self) -> dict[int, int]:
        """Bus id -> position in ``buses``."""
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def arrays(self) -> CaseArrays:
        """The case compiled into arrays, built on first use."""
        buses, idx = self.buses, self.bus_index
        n = len(buses)
        gen_p, gen_q, q_min, q_max, gen_mva = (np.zeros(n) for _ in range(5))
        vm = np.array([b.voltage_magnitude for b in buses], dtype=float)
        v_set = vm.copy()
        has_machine = np.zeros(n, dtype=bool)
        unit_p = np.full(n, -np.inf)
        for g in self.generators:
            k = idx.get(g.bus)
            if k is None:
                continue
            gen_p[k] += g.p_output
            gen_q[k] += g.q_output
            q_min[k] += g.q_min
            q_max[k] += g.q_max
            v_set[k] = g.v_setpoint
            has_machine[k] = True
            if not g.is_condenser:
                gen_mva[k] += g.mva_base
                unit_p[k] = max(unit_p[k], g.p_output)

        # Every layer gathers these entries, so the admittance matrix and
        # the branch flows share one pi model.
        pi = [_pi_entries(br) for br in self.branches]
        yff, yft, ytf, ytt = np.array(pi, dtype=complex).reshape(-1, 4).T.copy()

        return CaseArrays(
            load_p=np.array([b.load_p for b in buses], dtype=float),
            load_q=np.array([b.load_q for b in buses], dtype=float),
            gen_p=gen_p,
            gen_q=gen_q,
            q_min=q_min,
            q_max=q_max,
            v_set=v_set,
            has_machine=has_machine,
            gen_mva=gen_mva,
            unit_p=unit_p,
            vm=vm,
            va=np.array([b.voltage_angle for b in buses], dtype=float),
            kind=np.array([b.kind for b in buses], dtype=str),
            f=np.array([idx[br.from_bus] for br in self.branches], dtype=int),
            t=np.array([idx[br.to_bus] for br in self.branches], dtype=int),
            yff=yff,
            yft=yft,
            ytf=ytf,
            ytt=ytt,
            rating=np.array([br.rating for br in self.branches], dtype=float),
            status=np.array([br.status for br in self.branches], dtype=bool),
        )

    @cached_property
    def substation_index(self) -> dict[SubstationId, Substation]:
        return {s.id: s for s in self.substations}

    @cached_property
    def substation_positions(self) -> dict[SubstationId, list[int]]:
        """Substation id -> positions in ``buses`` of its member buses."""
        idx = self.bus_index
        return {s.id: [idx[b] for b in s.member_buses if b in idx] for s in self.substations}

    @cached_property
    def endpoint_branches(self) -> dict[tuple[int, int], list[int]]:
        """Endpoint pair (as ``Branch.endpoints``) -> positions in
        ``branches`` of all its circuits, whatever their status."""
        out: dict[tuple[int, int], list[int]] = {}
        for k, br in enumerate(self.branches):
            out.setdefault(br.endpoints, []).append(k)
        return out

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.bus_index[bus_id]]

    def with_(self, **kwargs) -> "GridCase":
        """Functional update preserving immutability."""
        return replace(self, **kwargs)


def default_substations(buses: Iterable[Bus]) -> tuple[Substation, ...]:
    """One single-bus substation per bus, id equal to the bus id."""
    return tuple(Substation(id=b.id, member_buses=frozenset((b.id,))) for b in buses)


@dataclass(frozen=True)
class CaseSummary:
    """Inventory counts for a case; ``loads`` counts nonzero-load buses."""

    buses: int
    branches: int
    lines: int
    transformers: int
    generators: int
    condensers: int
    loads: int
    substations: int


def summarize(case: GridCase) -> CaseSummary:
    """Count the case inventory.

    Generators and condensers are distinguished by the ``is_condenser``
    flag; ``loads`` counts buses with nonzero active demand.
    """
    n_xfmr = sum(1 for br in case.branches if br.is_transformer)
    n_cond = sum(1 for g in case.generators if g.is_condenser)
    return CaseSummary(
        buses=len(case.buses),
        branches=len(case.branches),
        lines=len(case.branches) - n_xfmr,
        transformers=n_xfmr,
        generators=len(case.generators) - n_cond,
        condensers=n_cond,
        loads=sum(1 for b in case.buses if b.has_load),
        substations=len(case.substations),
    )


def validate(case: GridCase) -> list[str]:
    """Check structural invariants; returns violation messages (empty if OK).

    Violations are data, not exceptions: callers decide whether to raise.
    """
    out: list[str] = []
    if case.base_mva <= 0:
        out.append(f"case: base_mva must be positive, got {case.base_mva}")

    seen: set[int] = set()
    for b in case.buses:
        if b.id in seen:
            out.append(f"bus {b.id}: duplicate id")
        seen.add(b.id)
        if b.id <= 0:
            out.append(f"bus {b.id}: id must be a positive integer")
        if b.kind not in BUS_KINDS:
            out.append(f"bus {b.id}: unknown kind {b.kind!r}")
        if b.voltage_magnitude <= 0:
            out.append(f"bus {b.id}: initial voltage magnitude must be > 0")

    n_slack = sum(1 for b in case.buses if b.kind == "slack")
    if n_slack != 1:
        out.append(f"case: expected exactly one slack bus, found {n_slack}")

    ids = {b.id for b in case.buses}
    for br in case.branches:
        tag = f"branch {br.from_bus}-{br.to_bus}"
        if br.from_bus not in ids or br.to_bus not in ids:
            out.append(f"{tag}: endpoint bus does not exist")
        if br.resistance == 0.0 and br.reactance == 0.0:
            out.append(f"{tag}: resistance and reactance are both zero")
        if br.rating < 0:
            out.append(f"{tag}: rating must be >= 0")
        if br.tap_ratio <= 0:
            out.append(f"{tag}: tap ratio must be > 0")
    out += _cancelling_pairs(case)

    if not case.generators:
        out.append("case: at least one generator is required")
    for g in case.generators:
        tag = f"generator at bus {g.bus}"
        if g.bus not in ids:
            out.append(f"{tag}: bus does not exist")
        if g.q_min > g.q_max:
            out.append(f"{tag}: q_min exceeds q_max")
        if g.is_condenser and g.p_output != 0.0:
            out.append(f"{tag}: condenser must have zero active output")

    covered: set[int] = set()
    for s in case.substations:
        tag = f"substation {s.id}"
        if not s.member_buses:
            out.append(f"{tag}: member bus set is empty")
        unknown = s.member_buses - ids
        if unknown:
            out.append(f"{tag}: unknown member buses {sorted(unknown)}")
        overlap = covered & s.member_buses
        if overlap:
            out.append(f"{tag}: buses {sorted(overlap)} already belong to another substation")
        covered |= s.member_buses
    if case.substations and covered != ids:
        missing = sorted(ids - covered)
        out.append(f"case: buses {missing} belong to no substation")

    return out


def _cancelling_pairs(case: GridCase) -> list[str]:
    """A violation for each endpoint pair whose in-service circuits'
    off-diagonal admittances sum to an exact zero: the admittance matrix
    then holds no entry between the buses, an open circuit that the
    islanding still reads as a connection. The entries are summed in
    branch order, as ``CaseArrays.admittance`` sums them."""
    off: dict[tuple[int, int], complex] = {}
    for br in case.branches:
        a, b = br.endpoints
        if br.status and a != b and br.tap_ratio != 0:  # a zero tap is refused above
            _, yft, ytf, _ = _pi_entries(br)
            off[a, b] = off.get((a, b), 0) + (yft if br.from_bus == a else ytf)
    return [f"branches {a}-{b}: the in-service circuits' admittances cancel exactly"
            for (a, b), y in off.items() if y == 0]


# ---------------------------------------------------------------------------
# Text format I/O
# ---------------------------------------------------------------------------

# Section -> (row class, GridCase field, header comment). A row's columns
# are its class's fields in declaration order.
_ROWS = {
    "[BUS]": (Bus, "buses", "# id kind vm_pu va_rad base_kv load_mw load_mvar"),
    "[BRANCH]": (Branch, "branches", "# from to r_pu x_pu b_pu rating_mva tap xfmr status"),
    "[GEN]": (Generator, "generators",
              "# bus p_mw q_mvar q_min q_max v_set mva_base condenser"),
}
_SECTIONS = (*_ROWS, "[SUBSTATION]")


def _ascii_int(tok: str) -> int:
    """An ASCII ``-?[0-9]+`` token (the rule for every id) as an int; raises
    ``ValueError`` for others, such as ``1_0``, ``+5`` or ``١``, unlike int()."""
    digits = tok[1:] if tok[:1] == "-" else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII integer: {tok!r}")
    return int(tok)


class _NotFinite(ValueError):
    """A number token that float() reads as nan or an infinity."""


def _finite_float(tok: str) -> float:
    """A number token as a finite float; raises ``ValueError`` for others,
    and ``_NotFinite`` for ``nan``, ``inf`` or ``1e999``, which float()
    reads."""
    x = float(tok)
    if not math.isfinite(x):
        raise _NotFinite(tok)
    return x


# A column's declared type (a string under postponed annotations) -> how a
# token converts to it, what a bad token was expected to be, and how a value
# is written back.
_TYPES = {
    "int": (_ascii_int, "an integer", str),
    "float": (_finite_float, "a number", lambda x: repr(float(x))),
    "bool": ({"0": False, "1": True}.__getitem__, "0/1 flag", lambda x: str(int(x))),
    "str": (str, "a name", str),
}
# section -> (row class, one converter per column)
_ROW_CONVERTERS = {
    section: (cls, tuple(_TYPES[f.type][0] for f in fields(cls)))
    for section, (cls, _, _) in _ROWS.items()
}


def _parse(type_: str, tok: str, line_no: int):
    convert, expected, _ = _TYPES[type_]
    try:
        return convert(tok)
    except _NotFinite:
        expected = "a finite number"
    except (ValueError, KeyError):
        pass
    raise CaseFormatError(line_no, f"expected {expected}, got {tok!r}")


def _substation_id(tok: str) -> SubstationId:
    """A substation id token: an ASCII ``-?[0-9]+`` token is an int id,
    any other token a name."""
    try:
        return _ascii_int(tok)
    except ValueError:
        return tok


def loads_case(text: str, check: bool = True) -> GridCase:
    """Parse a case from a string. See :func:`load_case`."""
    base_mva = 100.0
    rows: dict[str, list] = {section: [] for section in _ROWS}
    subs: list[Substation] = []
    section: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in _SECTIONS:
                raise CaseFormatError(line_no, f"unknown section {line}")
            section = line
            continue
        toks = line.split()
        if section is None:
            if toks[0] == "base_mva" and len(toks) == 2:
                base_mva = _parse("float", toks[1], line_no)
                continue
            raise CaseFormatError(line_no, f"data before any section: {line!r}")
        if section == "[SUBSTATION]":
            if len(toks) < 2:
                raise CaseFormatError(line_no, "[SUBSTATION] rows take an id plus member buses")
            members = frozenset(_parse("int", t, line_no) for t in toks[1:])
            subs.append(Substation(_substation_id(toks[0]), members))
            continue
        cls, converters = _ROW_CONVERTERS[section]
        if len(toks) != len(converters):
            raise CaseFormatError(
                line_no, f"{section} rows take {len(converters)} columns, got {len(toks)}"
            )
        if cls is Bus and toks[1] not in BUS_KINDS:
            raise CaseFormatError(line_no, f"unknown bus kind {toks[1]!r}")
        try:
            rows[section].append(cls(*[conv(tok) for conv, tok in zip(converters, toks)]))
        except (ValueError, KeyError):
            for f, tok in zip(fields(cls), toks):  # raises at the first bad column
                _parse(f.type, tok, line_no)
            raise

    case = GridCase(
        base_mva=base_mva,
        **{name: tuple(rows[section]) for section, (_, name, _) in _ROWS.items()},
        substations=tuple(subs) if subs else default_substations(rows["[BUS]"]),
    )
    if check:
        problems = validate(case)
        if problems:
            raise CaseValidationError(problems)
    return case


def load_case(path: str | Path, check: bool = True) -> GridCase:
    """Load and validate a case file.

    Args:
        path: Case file path.
        check: Run :func:`validate` and raise on violations.

    Raises:
        CaseFormatError: On malformed input, with the line number.
        CaseValidationError: When ``check`` and an invariant fails.
    """
    return loads_case(Path(path).read_text(), check=check)


def dumps_case(case: GridCase) -> str:
    """Serialize to the text format; inverse of :func:`loads_case`.

    Floats are written with ``repr`` so a round trip is exact;
    flags are written as 0/1.
    """
    out: list[str] = [f"base_mva {float(case.base_mva)!r}", ""]
    for section, (cls, name, header) in _ROWS.items():
        out += [section, header]
        columns = [(f.name, _TYPES[f.type][2]) for f in fields(cls)]
        out.extend(
            " ".join(fmt(getattr(row, col)) for col, fmt in columns)
            for row in getattr(case, name)
        )
        out.append("")
    out += ["[SUBSTATION]", "# id member_buses..."]
    for s in case.substations:
        out.append(f"{s.id} " + " ".join(str(b) for b in sorted(s.member_buses)))
    out.append("")
    return "\n".join(out)
