"""The compiled array form: one pi model, masks, and the frozen old path."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from gridimpact.model import Branch, Bus, Generator, GridCase, load_case
from gridimpact.powerflow import build_admittance, solve_islands

from conftest import CASE_PATH
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
    injected = V * np.conj(build_admittance(case).matrix @ V) * case.base_mva
    arr = case.arrays
    summed = np.zeros(len(case.buses), dtype=complex)
    np.add.at(summed, arr.f, sol.p_from + 1j * sol.q_from)
    np.add.at(summed, arr.t, sol.p_to + 1j * sol.q_to)
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
    masked = build_admittance(case118, mask).matrix
    assert (masked != build_admittance(opened).matrix).nnz == 0


def test_arrays_compile_lazily():
    case = load_case(CASE_PATH)
    assert "arrays" not in case.__dict__
    assert case.arrays is case.arrays
    assert case.arrays.status.shape == (len(case.branches),)


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
