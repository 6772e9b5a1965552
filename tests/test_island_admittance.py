"""One admittance builder: each island's matrix is summed from its own
branches, and the islands are read off the in-service branch list.

The references (``reference_admittance.py``) are the paths this replaced:
the network admittance with exact zeros dropped, its nonzero pattern's
components, and the island's rows cut back out of it.
"""

from __future__ import annotations

import random

import numpy as np
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from gridimpact.model import Branch, Bus, Generator, GridCase
from gridimpact.powerflow import _Jacobian, solve_islands
from gridimpact.screening import enumerate_combinations
from gridimpact.topology import find_islands, outage_masks

from reference_admittance import island_rows, network_admittance, pattern_islands
from screening_fixture import fixture_combinations
from test_compiled import network_case


def assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix) -> None:
    """Same shape, index arrays and the same bits in every stored value."""
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


def assert_same_partition(case: GridCase, bus_on=None, branch_on=None):
    """find_islands equals the pattern partition, island positions and
    in-service branches included; returns it."""
    part = find_islands(case, bus_on, branch_on)
    on, islands = pattern_islands(case, bus_on, branch_on)
    assert np.array_equal(part.in_service, on)
    assert len(part.islands) == len(islands)
    for isl, at in zip(part.islands, islands):
        assert np.array_equal(isl.at, at)
        assert isl.buses == {case.buses[k].id for k in at}
    return part


def assert_islands_equal_their_rows(case: GridCase, bus_on=None, branch_on=None) -> int:
    """Every island's admittance, and the whole network's, equal the rows
    cut out of the network admittance; returns the islands checked."""
    arr = case.arrays
    part = assert_same_partition(case, bus_on, branch_on)
    Y = network_admittance(arr, part.in_service)
    for isl in part.islands:
        assert_same_csr(arr.admittance(part.in_service, isl.at), island_rows(Y, isl.at))
    everything = np.arange(arr.load_p.size)
    assert_same_csr(arr.admittance(part.in_service), island_rows(Y, everything))
    assert_same_csr(arr.admittance(part.in_service, everything), island_rows(Y, everything))
    return len(part.islands)


def test_every_island_of_the_screening_fixture(case118):
    """Each island of the fixture's combinations (every level-1 one and
    the level-2 pairs of its sub-universe) and of the unmasked case."""
    combos = fixture_combinations(case118)
    checked = assert_islands_equal_their_rows(case118)
    for combo in combos:
        checked += assert_islands_equal_their_rows(
            case118, *outage_masks(case118, combo.substations))
    assert checked > 1 + len(combos)  # some combinations split the network


def test_partition_of_every_level_1_and_level_2_combination(case118):
    combos = [*enumerate_combinations(case118, 1), *enumerate_combinations(case118, 2)]
    assert len(combos) == 7021
    for combo in combos:
        assert_same_partition(case118, *outage_masks(case118, combo.substations))


@given(seed=st.integers(0, 10_000))
def test_random_networks_with_parallel_circuits(seed):
    """Taps, charging, open and parallel circuits, and islands."""
    assert_islands_equal_their_rows(network_case(random.Random(seed)))


def test_island_order_numbers_the_matrix():
    """Buses listed out of id order: the island's matrix follows its
    positions, and the kernel takes it as it is."""
    case = network_case(random.Random(5))
    case = case.with_(buses=tuple(reversed(case.buses)))
    assert_islands_equal_their_rows(case)
    arr = case.arrays
    for isl in find_islands(case).islands:
        Y = arr.admittance(arr.status, isl.at)
        jac = _Jacobian(Y)
        assert jac.n == isl.at.size
        for got, want in ((jac.y, Y.data), (jac.cols, Y.indices), (jac.indptr, Y.indptr)):
            assert np.shares_memory(got, want) and np.array_equal(got, want)
        assert np.array_equal(jac.cols[jac.diag], np.arange(jac.n))


def cancelling_pair() -> GridCase:
    """Two buses joined by parallel circuits of impedance z and -z, whose
    series admittances cancel exactly, and a third bus on a normal branch."""
    return GridCase(
        base_mva=100.0,
        buses=(Bus(id=1, kind="slack"), Bus(id=2, load_p=5.0), Bus(id=3, load_p=5.0)),
        branches=(
            Branch(from_bus=1, to_bus=2, resistance=0.01, reactance=0.1),
            Branch(from_bus=1, to_bus=2, resistance=-0.01, reactance=-0.1),
            Branch(from_bus=1, to_bus=3, resistance=0.01, reactance=0.1),
        ),
        generators=(Generator(bus=1, p_output=10.0),),
        substations=(),
    )


def test_parallel_circuits_whose_admittances_cancel_connect():
    """The one case where the branch list and the nonzero pattern differ:
    the pair connects its buses, though their off-diagonal entry is an
    exact zero and is not stored. ``validate`` refuses such a pair; this
    pins what the unchecked case does."""
    case = cancelling_pair()
    arr = case.arrays
    assert arr.yft[0] + arr.yft[1] == 0
    assert [sorted(isl.buses) for isl in find_islands(case).islands] == [[1, 2, 3]]
    assert [case.buses[at[0]].id for at in pattern_islands(case)[1]] == [1, 2]
    Y = arr.admittance(arr.status)
    assert Y[0, 1] == 0 and Y.nnz == 5  # every diagonal, and 1-3 both ways
    sol, _ = solve_islands(case)
    assert (sol.converged, sol.cause) == (False, "island_divergence")
