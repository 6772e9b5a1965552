"""The compiled array form: one pi model, masks, and the frozen old path."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, given
from hypothesis import strategies as st

from gridimpact.model import Branch, Bus, Generator, GridCase, load_case
from gridimpact.powerflow import branch_flows, build_admittance, solve_islands
from gridimpact.topology import apply_substation_outage, outage_masks

from conftest import CASE_PATH
from reference_admittance import island_rows, network_admittance
from screening_fixture import FIXTURE, describe, fixture_combinations


def network_case(rng: random.Random) -> GridCase:
    """A random solvable network: a spanning tree plus extra and parallel
    circuits, with taps, charging and some branches open (which may
    island it)."""
    n = rng.randint(2, 12)
    buses = [Bus(id=1, kind="slack")]
    gens = [Generator(bus=1, p_output=20.0)]
    for b in range(2, n + 1):
        pv = rng.random() < 0.3
        buses.append(Bus(id=b, kind="PV" if pv else "PQ",
                         load_p=rng.uniform(0.0, 20.0), load_q=rng.uniform(-5.0, 8.0)))
        if pv:
            gens.append(Generator(bus=b, p_output=rng.uniform(0.0, 15.0),
                                  v_setpoint=rng.uniform(0.98, 1.04)))

    def circuit(f: int, t: int) -> Branch:
        tap = rng.random() < 0.3
        return Branch(
            from_bus=f, to_bus=t,
            resistance=rng.uniform(0.0, 0.03), reactance=rng.uniform(0.03, 0.2),
            total_charging=rng.uniform(0.0, 0.2),
            tap_ratio=rng.uniform(0.92, 1.08) if tap else 1.0,
            is_transformer=tap, status=rng.random() > 0.15,
        )

    branches = [circuit(rng.randint(1, b - 1), b) for b in range(2, n + 1)]
    branches += [circuit(*rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, n))]
    for br in rng.sample(branches, rng.randint(0, min(3, len(branches)))):
        twin = circuit(br.from_bus, br.to_bus)
        branches.append(br if rng.random() < 0.5 else twin)  # parallel circuit
    return GridCase(base_mva=100.0, buses=tuple(buses), branches=tuple(branches),
                    generators=tuple(gens), substations=())


@given(seed=st.integers(0, 10_000))
def test_branch_flows_sum_to_bus_injections(seed):
    """At every energized bus the branch flows add up to V conj(Y V):
    the admittance matrix and the flows use one pi model."""
    case = network_case(random.Random(seed))
    sol, _ = solve_islands(case)
    assume(sol.converged)
    V = sol.vm * np.exp(1j * sol.va)
    injected = V * np.conj(build_admittance(case) @ V) * case.base_mva
    arr = case.arrays
    summed = np.zeros(len(case.buses), dtype=complex)
    p_from, q_from, p_to, q_to = branch_flows(case, sol)
    np.add.at(summed, arr.f, p_from + 1j * q_from)
    np.add.at(summed, arr.t, p_to + 1j * q_to)
    on = sol.energized
    assert np.max(np.abs(summed[on] - injected[on]), initial=0.0) <= 1e-9


@given(seed=st.integers(0, 10_000))
def test_branch_mask_equals_opened_branches(seed, case118):
    rng = random.Random(seed)
    mask = np.array([br.status and rng.random() > 0.1 for br in case118.branches])
    opened = case118.with_(branches=tuple(
        br if on else replace(br, status=False)
        for br, on in zip(case118.branches, mask)
    ))
    masked = build_admittance(case118, mask)
    assert (masked != build_admittance(opened)).nnz == 0


def reference_admittance(arr, on) -> sp.csr_matrix:
    """The coo -> csr incidence sum that preceded the sorted-key one, with
    every diagonal stored, as an island's rows over all buses."""
    return island_rows(network_admittance(arr, on), np.arange(arr.load_p.size))


def assert_same_matrix(got: sp.csr_matrix, want: sp.csr_matrix) -> None:
    """Same pattern and the same bits in every stored value."""
    assert got.has_canonical_format and want.has_canonical_format
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


def test_admittance_equals_the_coo_sum(case118):
    """Every level-1 and a seeded sample of level-2 reductions, all branches
    and a random branch mask each."""
    ids = [s.id for s in case118.substations]
    rng = random.Random(7)
    targets = [[i] for i in ids] + [rng.sample(ids, 2) for _ in range(60)]
    for target in targets:
        arr = apply_substation_outage(case118, target)[0].arrays
        mask = arr.status & np.array([rng.random() > 0.1 for _ in arr.status], dtype=bool)
        for on in (arr.status, mask):
            assert_same_matrix(arr.admittance(on), reference_admittance(arr, on))


@given(seed=st.integers(0, 10_000))
def test_admittance_equals_the_coo_sum_with_parallel_circuits(seed):
    arr = network_case(random.Random(seed)).arrays
    assert_same_matrix(arr.admittance(arr.status), reference_admittance(arr, arr.status))


def test_arrays_compile_lazily():
    case = load_case(CASE_PATH)
    assert "arrays" not in case.__dict__
    assert case.arrays is case.arrays
    assert case.arrays.status.shape == (len(case.branches),)


def test_masked_admittance_equals_the_reduced_ybus(case118):
    """The admittance over a combination's masks and the buses still on is
    the reduced case's Ybus bit for bit, on every level-1 reduction and a
    seeded sample of level-2 and level-3 ones."""
    ids = [s.id for s in case118.substations]
    rng = random.Random(42)
    targets = [[i] for i in ids] + [rng.sample(ids, k) for k in (2, 3) for _ in range(40)]
    for target in targets:
        bus_on, branch_on = outage_masks(case118, target)
        live = np.flatnonzero(bus_on)
        got = case118.arrays.admittance(branch_on, at=live)
        reduced = apply_substation_outage(case118, target)[0].arrays
        want = reduced.admittance(reduced.status)
        assert np.array_equal(got.indptr, want.indptr), target
        assert np.array_equal(got.indices, want.indices), target
        assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64)), target


def test_screening_matches_frozen_fixture(case118):
    """The screening verdicts, islands, Newton iterations and causes equal
    the frozen records exactly; violation values agree within 1e-9."""
    frozen = json.loads(FIXTURE.read_text())
    combos = fixture_combinations(case118)
    assert [r["combination"] for r in frozen] == [list(c.substations) for c in combos]
    mismatched = []
    for record, combo in zip(frozen, combos):
        want, want_values = _split(record)
        got, got_values = _split(describe(case118, combo))
        if got != want or not np.allclose(got_values, want_values, rtol=0.0, atol=1e-9):
            mismatched.append(str(combo))
    assert mismatched == []


def _split(record: dict) -> tuple[dict, list[float]]:
    """(the record with violation values dropped, those values)."""
    exact = {**record, "violations": [v[:2] for v in record["violations"]]}
    return exact, [v[2] for v in record["violations"]]
