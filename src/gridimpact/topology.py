"""Outage application and electrical island analysis.

A substation outage disconnects every member bus of the targeted
substations together with all incident branches, removing their loads
and machines from the case. The reduced network is then partitioned
into islands (connected components over in-service branches); each
island is classified as servable (has at least one generator), dead (no
generation, possibly condensers only), or load-free.

All functions here are pure: they take immutable cases and return new
objects, so they are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .model import Branch, GridCase, SubstationId

__all__ = [
    "OutageAction",
    "Island",
    "IslandPartition",
    "apply_substation_outage",
    "apply_branch_outages",
    "find_islands",
]


@dataclass(frozen=True)
class OutageAction:
    """A single switching action: open one branch or drop one substation.

    ``kind`` is ``open_branch`` (with ``from_bus``/``to_bus``) or
    ``remove_substation`` (with ``substation``).
    """

    kind: str
    from_bus: int | None = None
    to_bus: int | None = None
    substation: SubstationId | None = None

    def __post_init__(self):
        if self.kind == "open_branch":
            if self.from_bus is None or self.to_bus is None:
                raise ValueError("open_branch needs from_bus and to_bus")
        elif self.kind == "remove_substation":
            if self.substation is None:
                raise ValueError("remove_substation needs a substation id")
        else:
            raise ValueError(f"unknown outage action kind {self.kind!r}")

    @classmethod
    def open_branch(cls, from_bus: int, to_bus: int) -> "OutageAction":
        return cls(kind="open_branch", from_bus=from_bus, to_bus=to_bus)

    @classmethod
    def remove_substation(cls, substation: SubstationId) -> "OutageAction":
        return cls(kind="remove_substation", substation=substation)

    def __str__(self) -> str:
        if self.kind == "open_branch":
            return f"open_branch {self.from_bus}-{self.to_bus}"
        return f"remove_substation {self.substation}"


@dataclass(frozen=True)
class Island:
    """One connected component of the in-service network."""

    buses: frozenset[int]
    has_generation: bool
    has_load: bool
    slack_bus: int | None  # designated per-island slack, None if dead

    @property
    def servable(self) -> bool:
        return self.has_generation

    @property
    def dead(self) -> bool:
        return not self.has_generation


@dataclass(frozen=True)
class IslandPartition:
    """Disjoint islands covering all in-service buses, ordered by
    smallest member bus id."""

    islands: tuple[Island, ...]

    def __len__(self) -> int:
        return len(self.islands)

    def island_of(self, bus_id: int) -> Island:
        for isl in self.islands:
            if bus_id in isl.buses:
                return isl
        raise KeyError(f"bus {bus_id} is in no island")


def apply_substation_outage(
    case: GridCase, targets: Iterable[SubstationId]
) -> tuple[GridCase, list[Branch], list[int]]:
    """Remove the targeted substations from the case.

    Every in-service branch incident to a member bus of any target is
    taken out of the case entirely, and the member buses themselves are
    removed along with their loads and generators.

    Returns:
        (reduced case, removed branches sorted by endpoints and
        duplicate-free, removed bus ids sorted)

    Raises:
        ValueError: If ``targets`` is empty or an id is unknown.
    """
    target_list = list(targets)
    if not target_list:
        raise ValueError("substation outage requires at least one target")
    index = case.substation_index
    dead_buses: set[int] = set()
    for sid in target_list:
        sub = index.get(sid)
        if sub is None:
            raise ValueError(f"unknown substation id {sid!r}")
        dead_buses |= sub.member_buses

    arr = case.arrays
    keep_bus = np.ones(len(case.buses), dtype=bool)
    bus_index = case.bus_index
    keep_bus[[bus_index[b] for b in dead_buses if b in bus_index]] = False
    # out-of-service branches incident to a dead bus vanish silently: they
    # were already disconnected and their endpoint is gone
    keep_branch = keep_bus[arr.f] & keep_bus[arr.t]
    removed = [case.branches[k] for k in np.flatnonzero(~keep_branch & arr.status)]
    gone = set(target_list)
    reduced = GridCase(
        base_mva=case.base_mva,
        buses=tuple(compress(case.buses, keep_bus)),
        branches=tuple(compress(case.branches, keep_branch)),
        generators=tuple(g for g in case.generators if g.bus not in dead_buses),
        substations=tuple(s for s in case.substations if s.id not in gone),
    )
    # Every array of the reduced case is a slice of the parent's: fill the
    # ``arrays`` cache instead of compiling the reduced case again.
    reduced.__dict__["arrays"] = case.arrays.restrict(keep_bus, keep_branch)
    removed_sorted = sorted(set(removed), key=lambda br: br.endpoints)
    return reduced, removed_sorted, sorted(dead_buses)


def apply_branch_outages(
    case: GridCase, endpoints: Sequence[tuple[int, int]]
) -> GridCase:
    """Open the branches with the given endpoint pairs (orientation-free).

    All in-service parallel circuits between a named pair are opened.
    Unknown pairs raise ``ValueError``.
    """
    wanted = {tuple(sorted(p)) for p in endpoints}
    known = {br.endpoints for br in case.branches}
    missing = wanted - known
    if missing:
        raise ValueError(f"no branch with endpoints {sorted(missing)}")
    new_branches = tuple(
        replace(br, status=False) if br.endpoints in wanted and br.status else br
        for br in case.branches
    )
    return case.with_(branches=new_branches)


def find_islands(case: GridCase) -> IslandPartition:
    """Partition in-service buses into connected components.

    Connectivity is taken over in-service branches only, read off the
    pattern of the case's admittance matrix (``case.arrays.ybus``, which
    the power flow then reuses); a bus with no in-service incident branch
    forms a singleton island. Islands are ordered by their smallest member
    bus id.

    An island is servable when it contains at least one generator
    (condensers do not count as generation). The island slack is the
    original slack bus when present, otherwise the bus of the
    largest-output generator, ties broken by lowest bus id. Dead islands
    get no slack.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    arr = case.arrays
    Y = arr.ybus
    n = Y.shape[0]
    # The pattern only: csgraph would cast the complex values to real, and
    # an r = 0 branch has a purely imaginary admittance. The pattern is
    # symmetric (yft and ytf are both -y/a), so its strong components are
    # the islands, found without the transpose an undirected search builds.
    pattern = sp.csr_matrix((np.ones(Y.indices.size), Y.indices, Y.indptr), shape=(n, n))
    count, labels = connected_components(pattern, directed=True, connection="strong")

    ids = np.fromiter(case.bus_index, dtype=int, count=n)
    generating = arr.unit_p > -np.inf
    # the slack candidates sort first: a slack bus, else the largest unit
    rank = -arr.unit_p
    rank[arr.kind == "slack"] = -np.inf
    has_load = arr.load_p != 0.0

    islands = []
    for label in range(count):
        at = np.flatnonzero(labels == label)
        members = ids[at]
        servable = bool(generating[at].any())
        # the best-ranked bus, lowest id on ties
        slack = int(members[np.lexsort((members, rank[at]))[0]]) if servable else None
        islands.append(Island(
            buses=frozenset(members.tolist()),
            has_generation=servable,
            has_load=bool(has_load[at].any()),
            slack_bus=slack,
        ))
    islands.sort(key=lambda isl: min(isl.buses))
    return IslandPartition(islands=tuple(islands))
