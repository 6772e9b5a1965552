"""Island detection, outage application, switching actions."""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from hypothesis import given
from hypothesis import strategies as st

from gridimpact.model import Branch, Bus, Generator, GridCase, Substation
from gridimpact.topology import (
    Island,
    IslandPartition,
    OutageAction,
    apply_branch_outages,
    apply_substation_outage,
    find_islands,
)

from toys import star_case, two_bus_case, two_island_case

CASE1_SUBSTATIONS = (13, 14, 17, 21, 34)
CASE1_BRANCHES = {
    (17, 113), (34, 43), (34, 37), (19, 34), (17, 31), (21, 22), (20, 21),
    (17, 18), (16, 17), (15, 17), (14, 15), (12, 14), (13, 15), (11, 13),
}


def brute_force_components(case: GridCase) -> set[frozenset[int]]:
    """Reference reachability: repeated breadth-first expansion."""
    adjacency: dict[int, set[int]] = {b.id: set() for b in case.buses}
    for br in case.branches:
        if br.status:
            adjacency[br.from_bus].add(br.to_bus)
            adjacency[br.to_bus].add(br.from_bus)
    remaining = set(adjacency)
    components: set[frozenset[int]] = set()
    while remaining:
        seed = next(iter(remaining))
        seen = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for node in frontier:
                for nb in adjacency[node]:
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            frontier = nxt
        components.add(frozenset(seen))
        remaining -= seen
    return components


def random_case(rng: random.Random, max_buses: int = 50) -> GridCase:
    """A random (not necessarily sane) network for reachability checks."""
    n = rng.randint(1, max_buses)
    bus_ids = list(range(1, n + 1))
    buses = tuple(Bus(id=b) for b in bus_ids)
    m = rng.randint(0, 2 * n)
    branches = []
    for _ in range(m):
        f, t = rng.sample(bus_ids, 2) if n > 1 else (1, 1)
        if f == t:
            continue
        branches.append(
            Branch(from_bus=f, to_bus=t, resistance=0.01, reactance=0.1,
                   status=rng.random() > 0.25)
        )
    gens = tuple(
        Generator(bus=b, p_output=0.0 if rng.random() < 0.5 else 10.0,
                  is_condenser=rng.random() < 0.5)
        for b in rng.sample(bus_ids, rng.randint(0, n))
    )
    gens = tuple(
        g if not (g.is_condenser and g.p_output) else
        Generator(bus=g.bus, p_output=0.0, is_condenser=True)
        for g in gens
    )
    return GridCase(base_mva=100.0, buses=buses, branches=branches and tuple(branches) or (),
                    generators=gens, substations=())


class TestFindIslands:
    def test_single_island(self):
        part = find_islands(two_bus_case())
        assert len(part) == 1
        assert part.islands[0].buses == frozenset({1, 2})

    def test_two_islands_ordered_by_min_bus(self):
        part = find_islands(two_island_case())
        assert len(part) == 2
        assert part.islands[0].buses == frozenset({1, 2})
        assert part.islands[1].buses == frozenset({3, 4})

    def test_out_of_service_branch_does_not_connect(self):
        case = two_bus_case()
        case = apply_branch_outages(case, [(1, 2)])
        part = find_islands(case)
        assert len(part) == 2

    def test_isolated_bus_is_singleton_island(self):
        case = two_bus_case()
        case = case.with_(buses=case.buses + (Bus(id=9),))
        part = find_islands(case)
        assert frozenset({9}) in {isl.buses for isl in part.islands}

    def test_dead_island_has_no_generation(self):
        case = apply_branch_outages(two_bus_case(), [(1, 2)])
        part = find_islands(case)
        assert part.islands[0].servable
        assert not part.islands[1].servable
        assert part.islands[1].slack_bus is None

    def test_condenser_only_island_is_dead(self):
        case = two_bus_case()
        case = case.with_(
            generators=case.generators + (Generator(bus=2, p_output=0.0,
                                                    is_condenser=True),)
        )
        case = apply_branch_outages(case, [(1, 2)])
        part = find_islands(case)
        assert not part.islands[1].servable

    def test_island_slack_prefers_original_slack(self):
        part = find_islands(two_island_case())
        assert part.islands[0].slack_bus == 1
        assert part.islands[1].slack_bus == 3

    def test_island_slack_largest_dispatch_lowest_id_tie(self):
        case = two_island_case()
        # second island gets two equal generators; lowest bus id wins
        case = case.with_(
            generators=case.generators + (Generator(bus=4, p_output=20.0),)
        )
        part = find_islands(case)
        assert part.islands[1].slack_bus == 3

    @given(seed=st.integers(0, 10_000))
    def test_matches_brute_force_reachability(self, seed):
        case = random_case(random.Random(seed))
        part = find_islands(case)
        got = {isl.buses for isl in part.islands}
        assert got == brute_force_components(case)
        # partition property: disjoint and covering
        assert sum(len(isl.buses) for isl in part.islands) == len(case.buses)


def reference_find_islands(case: GridCase) -> IslandPartition:
    """The branch-graph partition and per-island loops that preceded the
    admittance-pattern version."""
    arr = case.arrays
    n = len(case.buses)
    on = arr.status
    graph = sp.csr_matrix((np.ones(int(on.sum())), (arr.f[on], arr.t[on])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    groups: dict[int, set[int]] = {}
    for bus, label in zip(case.buses, labels):
        groups.setdefault(label, set()).add(bus.id)
    slack_ids = {b.id for b in case.buses if b.kind == "slack"}
    islands = []
    for comp in sorted(groups.values(), key=min):
        gens = [g for g in case.generators if g.bus in comp and not g.is_condenser]
        slack = None
        if gens:
            in_island_slack = slack_ids & comp
            slack = (min(in_island_slack) if in_island_slack
                     else min(gens, key=lambda g: (-g.p_output, g.bus)).bus)
        islands.append(Island(
            buses=frozenset(comp),
            servable=bool(gens),
            slack_bus=slack,
            at=np.array([case.bus_index[b] for b in sorted(comp)], dtype=int),
        ))
    return IslandPartition(islands=tuple(islands), in_service=on)


def assert_matches_reference(case: GridCase) -> IslandPartition:
    """find_islands equals the reference, and each island's positions
    (which take no part in ``==``) are its buses' in ascending id order."""
    part = find_islands(case)
    assert part == reference_find_islands(case)
    for isl in part.islands:
        assert isl.at.tolist() == [case.bus_index[b] for b in sorted(isl.buses)]
    return part


class TestIslandsFromAdmittance:
    """find_islands on reduced cases and edge cases: the partition, flags
    and slacks equal the branch graph's."""

    def test_level_1_and_seeded_level_2_reductions(self, case118):
        ids = [s.id for s in case118.substations]
        rng = random.Random(42)
        targets = [[i] for i in ids] + [rng.sample(ids, 2) for _ in range(60)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning from csgraph
            for target in targets:
                reduced, _, _ = apply_substation_outage(case118, target)
                assert_matches_reference(reduced)

    def test_zero_resistance_and_open_branch(self):
        """An r = 0 branch (purely imaginary admittance) connects; an
        out-of-service branch does not; two generators tie on output."""
        case = GridCase(
            base_mva=100.0,
            buses=(Bus(id=5, kind="PV"), Bus(id=2), Bus(id=7, kind="PV", load_p=10.0),
                   Bus(id=1), Bus(id=3, load_p=4.0)),
            branches=(
                Branch(from_bus=5, to_bus=2, resistance=0.0, reactance=0.1),
                Branch(from_bus=2, to_bus=7, resistance=0.0, reactance=0.05,
                       total_charging=0.02),
                Branch(from_bus=7, to_bus=1, resistance=0.01, reactance=0.1, status=False),
                Branch(from_bus=1, to_bus=3, resistance=0.0, reactance=0.2),
            ),
            generators=(Generator(bus=7, p_output=20.0), Generator(bus=5, p_output=20.0),
                        Generator(bus=1, p_output=0.0, is_condenser=True)),
            substations=(),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            part = assert_matches_reference(case)
        assert [sorted(isl.buses) for isl in part.islands] == [[1, 3], [2, 5, 7]]
        assert not part.islands[0].servable
        assert part.islands[1].slack_bus == 5

    def test_empty_and_branchless_cases(self):
        empty = GridCase(base_mva=100.0, buses=(), branches=(), generators=(), substations=())
        assert find_islands(empty) == IslandPartition(islands=(), in_service=np.zeros(0, bool))
        lone = GridCase(base_mva=100.0, buses=(Bus(id=4, kind="slack", load_p=5.0), Bus(id=2)),
                        branches=(), generators=(Generator(bus=4, p_output=5.0),),
                        substations=())
        assert_matches_reference(lone)

    @given(seed=st.integers(0, 10_000))
    def test_random_cases_equal_the_branch_graph(self, seed):
        case = random_case(random.Random(seed))
        assert_matches_reference(case)


class TestApplyOutages:
    def test_branch_outage_opens_status(self):
        case = apply_branch_outages(star_case(), [(1, 2)])
        opened = [br for br in case.branches if br.endpoints == (1, 2)]
        assert all(not br.status for br in opened)

    def test_branch_outage_orientation_free(self):
        case = apply_branch_outages(star_case(), [(2, 1)])
        assert not [br for br in case.branches if br.endpoints == (1, 2)][0].status

    def test_unknown_branch_raises(self):
        with pytest.raises(ValueError):
            apply_branch_outages(star_case(), [(1, 9)])

    def test_substation_outage_removes_buses_and_branches(self):
        reduced, removed, dead = apply_substation_outage(star_case(), [1])
        assert dead == [1]
        assert {br.endpoints for br in removed} == {(1, 2), (1, 3), (1, 4)}
        assert {b.id for b in reduced.buses} == {2, 3, 4}
        assert all(1 not in br.endpoints for br in reduced.branches)
        assert all(g.bus != 1 for g in reduced.generators)

    def test_substation_outage_unknown_id(self):
        with pytest.raises(ValueError):
            apply_substation_outage(star_case(), [99])

    def test_substation_outage_empty_targets(self):
        with pytest.raises(ValueError):
            apply_substation_outage(star_case(), [])

    def test_hub_outage_islands_the_spokes(self):
        reduced, _, _ = apply_substation_outage(star_case(), [1])
        part = find_islands(reduced)
        assert len(part) == 3
        assert part.islands[1].servable
        assert not part.islands[0].servable and not part.islands[2].servable

    def test_case1_substations_remove_exactly_the_printed_branches(self, case118):
        _, removed, dead = apply_substation_outage(case118, CASE1_SUBSTATIONS)
        assert {br.endpoints for br in removed} == CASE1_BRANCHES
        assert dead == sorted(CASE1_SUBSTATIONS)

    def test_substation_100_cut_set(self, case118):
        _, removed, _ = apply_substation_outage(case118, [100])
        assert {br.endpoints for br in removed} == {
            (92, 100), (94, 100), (98, 100), (99, 100),
            (100, 101), (100, 103), (100, 104), (100, 106),
        }

    def test_pocket_separates_after_substation_100(self, case118):
        reduced, _, _ = apply_substation_outage(case118, [100])
        part = find_islands(reduced)
        pocket = part.islands[1]
        assert pocket.buses == frozenset(range(103, 113))
        assert pocket.servable  # bus 103 keeps the pocket's one generator


class TestOutageAction:
    def test_open_branch_factory_and_str(self):
        act = OutageAction.open_branch(15, 17)
        assert (act.kind, act.from_bus, act.to_bus) == ("open_branch", 15, 17)
        assert str(act) == "open_branch 15-17"

    def test_remove_substation_factory_and_str(self):
        act = OutageAction.remove_substation(100)
        assert str(act) == "remove_substation 100"

    def test_invalid_action_kind(self):
        with pytest.raises(ValueError):
            OutageAction(kind="close_branch", from_bus=1, to_bus=2)

    def test_open_branch_requires_endpoints(self):
        with pytest.raises(ValueError):
            OutageAction(kind="open_branch", from_bus=1)
