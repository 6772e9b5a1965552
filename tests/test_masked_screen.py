"""Screening on masks over the base case equals the reduced-case screen.

``screen_combination`` solves a combination on ``(bus_on, branch_on)``
masks over the base case. The reference below is the screen it replaced:
it builds the reduced ``GridCase`` with the public
``apply_substation_outage`` and runs ``find_islands``, ``solve_islands``
and ``check_violations`` on that copy. Both must give equal results and
bit-equal island solves; a sha256 over them pins what the reduced-case
screen gave.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest

from gridimpact import powerflow
from gridimpact.model import Branch, Bus, Generator, GridCase, Substation
from gridimpact.powerflow import PowerFlowOptions, check_violations, solve_islands
from gridimpact.screening import (
    OutageCombination,
    ScreeningResult,
    enumerate_combinations,
    screen_combination,
)
from gridimpact.topology import apply_substation_outage, find_islands

SUB_UNIVERSE = (80, 92, 94, 95, 96, 98, 99, 100, 101, 102)  # AC07's

# sha256 over the results and island solves of ``combinations`` below, as
# the reduced-case screen gave them
REDUCED_SCREEN_SHA256 = "f91eb7e857826be35b2d1c813fd70419f7a93efa2e3166d7d43e580b0a7a8e1a"


def reference_screen(case, combo, options=PowerFlowOptions()) -> ScreeningResult:
    """The screen on the reduced case, verdict by verdict as
    ``screen_combination`` decides."""
    reduced, _, _ = apply_substation_outage(case, combo.substations)
    partition = find_islands(reduced)
    solution, _ = solve_islands(reduced, options, partition=partition, enforce_capability=True)
    unserved = sum(
        reduced.bus(b).load_p for isl in partition.islands if isl.dead for b in isl.buses
    )
    common = dict(combination=combo, island_count=len(partition), unserved_mw=unserved)
    if solution.cause == "dead_system":
        return ScreeningResult(verdict="critical", reason="dead_system", violations=(),
                               cause="dead_system", **common)
    if not solution.converged:
        cause = next(isl.cause for isl in solution.islands
                     if isl.cause not in (None, "dead_island"))
        return ScreeningResult(verdict="critical", reason="diverged", violations=(),
                               cause=cause, **common)
    violations = tuple(check_violations(reduced, solution))
    reason = ("islanded_unserved_load" if unserved > 0.0
              else "violations_only" if violations else "clean")
    return ScreeningResult(verdict="non_critical", reason=reason, violations=violations,
                           **common)


def combinations(case) -> list[OutageCombination]:
    """Every level-1 combination, the 45 AC07 pairs, 400 seeded pairs and
    150 seeded triples."""
    ids = sorted(s.id for s in case.substations)
    rng = random.Random(2011)
    return [
        *enumerate_combinations(case, 1),
        *enumerate_combinations(case, 2, SUB_UNIVERSE),
        *(OutageCombination(tuple(sorted(rng.sample(ids, 2)))) for _ in range(400)),
        *(OutageCombination(tuple(sorted(rng.sample(ids, 3)))) for _ in range(150)),
    ]


def recorded_solves(monkeypatch):
    """Install a recorder on ``powerflow.solve_newton``; returns the list it
    appends to: per island solve, its buses, iterations, cause, convergence,
    and the bytes of its max mismatch and of vm/va on its buses."""
    solves = []
    inner = powerflow.solve_newton

    def recording(case, *args, **kwargs):
        sol = inner(case, *args, **kwargs)
        ids = kwargs.get("bus_subset")
        take = [case.bus_index[b] for b in ids]
        solves.append((tuple(ids), sol.iterations, sol.cause, sol.converged,
                       np.float64(sol.max_mismatch).tobytes(),
                       sol.vm[take].tobytes(), sol.va[take].tobytes()))
        return sol

    monkeypatch.setattr(powerflow, "solve_newton", recording)
    return solves


def test_masked_screen_equals_the_reduced_case_screen(case118, monkeypatch):
    solves = recorded_solves(monkeypatch)
    digest = hashlib.sha256()
    combos = combinations(case118)
    assert len(combos) == 713
    for combo in combos:
        result = screen_combination(case118, combo)
        masked = solves[:]
        solves.clear()
        expected = reference_screen(case118, combo)
        reduced = solves[:]
        solves.clear()
        assert result == expected, combo
        assert masked == reduced, combo
        digest.update(repr((result, masked)).encode())
    assert digest.hexdigest() == REDUCED_SCREEN_SHA256


def test_zero_impedance_branch_fails_a_screen_that_solves_with_it():
    """An in-service r = x = 0 branch makes the screen raise (a sweep records
    ``error``) only when the island holding it reaches Newton, as the
    dynamics engine checks only energized branches; in a dead island, or
    with one of its ends removed, or when nothing solves, it is unaffected."""
    case = GridCase(
        base_mva=100.0,
        buses=(Bus(1, "slack"), Bus(2, load_p=10.0), Bus(3, load_p=5.0), Bus(4, load_p=5.0)),
        branches=(Branch(1, 2, 0.01, 0.1), Branch(2, 3, 0.01, 0.1), Branch(3, 4, 0.0, 0.0)),
        generators=(Generator(1, 20.0),),
        substations=tuple(Substation(i, frozenset((i,))) for i in range(1, 5)),
    )
    dead = screen_combination(case, OutageCombination((2,)))  # {1} solves, {3, 4} is dead
    assert (dead.verdict, dead.reason, dead.island_count, dead.unserved_mw) == (
        "non_critical", "islanded_unserved_load", 2, 10.0)
    assert screen_combination(case, OutageCombination((4,))).reason == "clean"
    assert screen_combination(case, OutageCombination((1,))).reason == "dead_system"
    # a unit at bus 3 makes {3, 4} servable: its Newton holds the branch
    fed = replace(case, generators=(Generator(1, 20.0), Generator(3, 10.0)))
    with pytest.raises(ValueError, match="^branch 3-4: zero impedance in service$"):
        screen_combination(fed, OutageCombination((2,)))
