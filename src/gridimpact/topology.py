"""Outage application and electrical island analysis.

A topology is two masks over a case's compiled arrays, ``bus_on`` and
``branch_on``. A substation outage clears the member buses of the
targeted substations and every branch incident to them; a switching
event clears branch bits. What is left on is partitioned into islands
(connected components); each island is servable (has at least one
generator) or dead (no generation, possibly condensers only), and carries
its bus positions for the layers that solve it. ``apply_substation_outage``
and ``apply_branch_outages`` still build a reduced ``GridCase`` for
callers that want one.

All functions here are pure: they take immutable cases and return new
objects, so they are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .model import Branch, GridCase, SubstationId

__all__ = [
    "OutageAction",
    "Island",
    "IslandPartition",
    "outage_masks",
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
    """One connected component of the in-service network: its bus ids,
    whether it holds generation, and its designated slack (None if dead).
    ``at`` holds its buses' positions in the case, in ascending bus-id
    order; it takes no part in comparisons."""

    buses: frozenset[int]
    servable: bool
    slack_bus: int | None
    at: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class IslandPartition:
    """Disjoint islands covering all in-service buses, ordered by
    smallest member bus id. ``in_service``, the branches they were read
    off, serves the island solves and takes no part in comparisons
    (without it: the case's in-service branches)."""

    islands: tuple[Island, ...]
    in_service: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.islands)


def outage_masks(
    case: GridCase, targets: Iterable[SubstationId]
) -> tuple[np.ndarray, np.ndarray]:
    """``(bus_on, branch_on)`` of the case with the targeted substations
    out: their member buses off, and on the in-service branches that touch
    none of them. Raises ``ValueError`` for no target or an unknown id."""
    targets = list(targets)
    if not targets:
        raise ValueError("substation outage requires at least one target")
    bus_on = np.ones(len(case.buses), dtype=bool)
    for sid in targets:
        at = case.substation_positions.get(sid)
        if at is None:
            raise ValueError(f"unknown substation id {sid!r}")
        bus_on[at] = False
    arr = case.arrays
    return bus_on, arr.status & bus_on[arr.f] & bus_on[arr.t]


def apply_substation_outage(
    case: GridCase, targets: Iterable[SubstationId]
) -> tuple[GridCase, list[Branch], list[int]]:
    """Remove the targeted substations from the case.

    Every in-service branch incident to a member bus of any target is
    taken out of the case entirely, and the member buses themselves are
    removed along with their loads and generators. The reduced case is
    what :func:`outage_masks` leaves, as a ``GridCase`` of its own.

    Returns:
        (reduced case, removed branches sorted by endpoints and
        duplicate-free, removed bus ids sorted)

    Raises:
        ValueError: If ``targets`` is empty or an id is unknown.
    """
    targets = list(targets)
    bus_on, branch_on = outage_masks(case, targets)
    arr = case.arrays
    dead_buses = set().union(*(case.substation_index[sid].member_buses for sid in targets))
    removed = [case.branches[k] for k in np.flatnonzero(arr.status & ~branch_on)]
    gone = set(targets)
    # out-of-service branches incident to a dead bus vanish silently: they
    # were already disconnected and their endpoint is gone
    reduced = GridCase(
        base_mva=case.base_mva,
        buses=tuple(compress(case.buses, bus_on)),
        branches=tuple(compress(case.branches, bus_on[arr.f] & bus_on[arr.t])),
        generators=tuple(g for g in case.generators if g.bus not in dead_buses),
        substations=tuple(s for s in case.substations if s.id not in gone),
    )
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


def find_islands(
    case: GridCase,
    bus_on: np.ndarray | None = None,
    branch_on: np.ndarray | None = None,
) -> IslandPartition:
    """Partition the buses still on into connected components.

    ``bus_on`` and ``branch_on`` mask the case's buses and branches
    (default: every bus, and the branches in service). A branch connects
    while it is on and both its ends are; the islands are the components
    of those branches, which the partition carries for the power flow,
    and a bus with no such branch forms a singleton island. Islands are
    ordered by their smallest member bus id.

    An island is servable when it contains at least one generator
    (condensers do not count as generation). The island slack is the
    original slack bus when present, otherwise the bus of the
    largest-output generator, ties broken by lowest bus id. Dead islands
    get no slack.
    """
    # csgraph's strong-components search on raw CSR arrays: the entry
    # point connected_components calls once it has checked its input
    from scipy.sparse.csgraph._traversal import _connected_components_directed

    arr = case.arrays
    n = arr.load_p.size
    bus_on = np.ones(n, dtype=bool) if bus_on is None else bus_on
    on = (arr.status if branch_on is None else branch_on) & bus_on[arr.f] & bus_on[arr.t]
    f, t = arr.f[on], arr.t[on]
    # Each connection once each way: parallel circuits would store duplicate
    # entries, on which csgraph's strong-components search does not return.
    # The pattern is symmetric, so its strong components are the islands,
    # found without the transpose an undirected search builds.
    key = np.concatenate([f * n + t, t * n + f])
    key.sort()
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    rows, cols = np.divmod(key[new], n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = np.bincount(rows, minlength=n).cumsum()
    labels = np.empty(n, dtype=np.int32)
    _connected_components_directed(cols.astype(np.int32), indptr, labels)

    ids = np.fromiter(case.bus_index, dtype=int, count=n)
    generating = arr.unit_p > -np.inf
    # the slack candidates sort first: a slack bus, else the largest unit
    rank = -arr.unit_p
    rank[arr.kind == "slack"] = -np.inf

    islands = []
    # a bus that is off touches no branch that is on: it is a component of
    # its own, and no island
    for label in np.unique(labels[bus_on]):
        at = np.flatnonzero(labels == label)
        members = ids[at]
        servable = bool(generating[at].any())
        # the best-ranked bus, lowest id on ties
        slack = int(members[np.lexsort((members, rank[at]))[0]]) if servable else None
        islands.append(Island(
            buses=frozenset(members.tolist()),
            servable=servable,
            slack_bus=slack,
            at=at[members.argsort()],
        ))
    islands.sort(key=lambda isl: min(isl.buses))
    return IslandPartition(islands=tuple(islands), in_service=on)
