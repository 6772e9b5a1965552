"""Newton power flow: admittance, convergence, limits, islands."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridimpact.model import Branch, Bus, Generator, GridCase
from gridimpact.powerflow import (
    PowerFlowOptions,
    build_admittance,
    check_violations,
    solve_islands,
    solve_newton,
)
from gridimpact.screening import OutageCombination, screen_combination
from gridimpact.topology import apply_branch_outages, find_islands

from reference_gs import gauss_seidel_solve
from toys import star_case, two_bus_case, two_island_case

# exact two-bus solution, derived in toys.two_bus_case's docstring
V2_EXPECTED = complex(0.9719067704536566, -0.048)


class TestAdmittance:
    def test_plain_line_entries(self):
        case = two_bus_case()
        Y = build_admittance(case).toarray()
        y = 1.0 / complex(0.01, 0.10)
        assert Y[0, 0] == pytest.approx(y)
        assert Y[1, 1] == pytest.approx(y)
        assert Y[0, 1] == pytest.approx(-y)
        assert Y[1, 0] == pytest.approx(-y)

    def test_transformer_tap_and_charging(self):
        case = two_bus_case().with_(
            branches=(
                Branch(from_bus=1, to_bus=2, resistance=0.0, reactance=0.08,
                       total_charging=0.02, tap_ratio=0.95, is_transformer=True),
            )
        )
        Y = build_admittance(case).toarray()
        y = 1.0 / complex(0.0, 0.08)
        sh = 0.5j * 0.02
        assert Y[0, 0] == pytest.approx((y + sh) / 0.95**2)
        assert Y[1, 1] == pytest.approx(y + sh)
        assert Y[0, 1] == pytest.approx(-y / 0.95)
        assert Y[1, 0] == pytest.approx(-y / 0.95)

    def test_out_of_service_branch_contributes_nothing(self):
        case = apply_branch_outages(two_bus_case(), [(1, 2)])
        Y = build_admittance(case).toarray()
        assert np.all(Y == 0)

    def test_zero_impedance_rejected(self):
        case = two_bus_case().with_(
            branches=(Branch(from_bus=1, to_bus=2, resistance=0.0, reactance=0.0),)
        )
        with pytest.raises(ValueError):
            build_admittance(case)


class TestNewtonToy:
    def test_two_bus_matches_independent_solution(self):
        case = two_bus_case()
        sol = solve_newton(case, PowerFlowOptions(flat_start=True))
        assert sol.converged
        at = case.bus_index[2]
        assert sol.vm[at] == pytest.approx(abs(V2_EXPECTED), abs=1e-9)
        assert sol.va[at] == pytest.approx(np.angle(V2_EXPECTED), abs=1e-9)

    def test_two_bus_matches_gauss_seidel(self):
        case = two_bus_case()
        sol = solve_newton(case, PowerFlowOptions(flat_start=True))
        ids, V, converged, _ = gauss_seidel_solve(case)
        assert converged
        for bid, v in zip(ids, V):
            assert sol.vm[case.bus_index[bid]] == pytest.approx(abs(v), abs=1e-6)

    def test_mismatch_definition(self):
        sol = solve_newton(two_bus_case(), PowerFlowOptions(tolerance=1e-10))
        assert sol.max_mismatch <= 1e-10

    def test_flat_vs_warm_same_solution(self):
        case = two_bus_case()
        flat = solve_newton(case, PowerFlowOptions(flat_start=True))
        warm = solve_newton(case, PowerFlowOptions(flat_start=False))
        assert np.allclose(flat.vm, warm.vm, atol=1e-8)

    @given(load=st.floats(1.0, 150.0))
    @settings(max_examples=30)
    def test_injection_residual_property(self, load):
        """A converged solution satisfies S = V conj(YV) within tolerance."""
        case = two_bus_case(load_p=load, load_q=load / 3.0)
        sol = solve_newton(case, PowerFlowOptions(flat_start=True))
        if not sol.converged:
            return  # extreme loads may genuinely lack a solution
        Y = build_admittance(case)
        V = sol.vm * np.exp(1j * sol.va)
        S = V * np.conj(Y @ V)
        expect_p2 = -load / 100.0
        assert S[1].real == pytest.approx(expect_p2, abs=2e-6)


class TestNewton118:
    def test_flat_start_convergence(self, case118):
        sol = solve_newton(case118, PowerFlowOptions(flat_start=True))
        assert sol.converged
        assert sol.iterations <= 10
        assert sol.max_mismatch <= 1e-6

    def test_warm_start_uses_stored_voltages(self, case118):
        warm = solve_newton(case118)
        assert warm.converged
        # the fixture stores the solved base case, so warm restarts land fast
        flat = solve_newton(case118, PowerFlowOptions(flat_start=True))
        assert warm.iterations <= flat.iterations
        assert np.allclose(warm.vm, flat.vm, atol=1e-6)

    def test_stored_voltages_are_the_solution(self, case118):
        sol = solve_newton(case118)
        stored_vm = np.array([b.voltage_magnitude for b in case118.buses])
        # fixture voltages are rounded to 1e-6
        assert np.max(np.abs(sol.vm - stored_vm)) < 5e-6

    def test_slack_angle_reference(self, case118):
        sol = solve_newton(case118, PowerFlowOptions(flat_start=True))
        assert sol.va[case118.bus_index[69]] == pytest.approx(0.0, abs=1e-12)


class TestQLimits:
    def make_limited_case(self):
        """Star case whose PV machine cannot hold its setpoint."""
        case = star_case()
        gens = (
            case.generators[0],
            Generator(bus=3, p_output=12.0, v_setpoint=1.05, q_max=5.0, q_min=-5.0),
        )
        return case.with_(generators=gens)

    def test_pv_switches_to_pq_at_limit(self):
        case = self.make_limited_case()
        sol = solve_newton(case, PowerFlowOptions(flat_start=True))
        assert sol.converged
        # voltage sags below the unreachable setpoint
        assert sol.vm[case.bus_index[3]] < 1.05 - 1e-4
        # reactive output is parked at the ceiling
        Y = build_admittance(case)
        V = sol.vm * np.exp(1j * sol.va)
        S = V * np.conj(Y @ V)
        qg = S[2].imag * 100.0 + case.bus(3).load_q
        assert qg == pytest.approx(5.0, abs=1e-4)


class TestDivergenceAsVerdict:
    def test_impossible_load_returns_unconverged(self):
        sol = solve_newton(two_bus_case(load_p=500.0),
                           PowerFlowOptions(flat_start=True))
        assert not sol.converged
        assert sol.cause is not None
        assert sol.max_mismatch > 1e-6

    def test_no_exception_on_divergence(self):
        # the contract: divergence is data, not an exception
        sol = solve_newton(two_bus_case(load_p=2000.0),
                           PowerFlowOptions(flat_start=True))
        assert sol.converged is False

    def test_violations_refuse_diverged_solution(self):
        sol = solve_newton(two_bus_case(load_p=500.0),
                           PowerFlowOptions(flat_start=True))
        with pytest.raises(ValueError):
            check_violations(two_bus_case(load_p=500.0), sol)


def islands_with(sol, part, cause):
    """The buses of the partition's islands whose records read ``cause``,
    after checking that ``sol.islands[i]`` is the record of
    ``part.islands[i]``: dead islands, and only they, read dead_island."""
    assert len(sol.islands) == len(part.islands)
    for rec, isl in zip(sol.islands, part.islands):
        assert (rec.cause == "dead_island") == (not isl.servable)
    return [isl.buses for rec, isl in zip(sol.islands, part.islands) if rec.cause == cause]


class TestIslands:
    def test_both_islands_solved(self):
        sol, part = solve_islands(two_island_case())
        assert sol.converged
        assert len(part) == 2
        assert all(sol.energized)
        assert islands_with(sol, part, None) == [frozenset({1, 2}), frozenset({3, 4})]
        assert all(rec.converged for rec in sol.islands)

    def test_dead_island_deenergized(self):
        case = apply_branch_outages(two_island_case(), [(3, 4)])
        sol, part = solve_islands(case)
        # bus 4 alone, no generation: dead, zero voltage
        j = case.bus_index[4]
        assert not sol.energized[j]
        assert sol.vm[j] == 0.0
        assert islands_with(sol, part, "dead_island") == [frozenset({4})]
        # the rest still converges; overall verdict remains True
        assert sol.converged

    def test_capability_gate_flags_deficit(self):
        case = two_island_case()
        # island {3,4}: 20 MW load against a 15 MVA nameplate
        gens = (
            case.generators[0],
            Generator(bus=3, p_output=12.0, v_setpoint=1.0, mva_base=15.0),
        )
        case = case.with_(generators=gens)
        sol, part = solve_islands(case)
        assert not sol.converged
        assert islands_with(sol, part, "generation_deficit") == [frozenset({3, 4})]

    def test_nothing_servable_is_dead_system(self):
        case = two_bus_case()
        case = case.with_(generators=(Generator(bus=1, p_output=0.0,
                                                is_condenser=True),))
        sol, part = solve_islands(case)
        assert not sol.converged
        assert islands_with(sol, part, "dead_island") == [frozenset({1, 2})]


def zero_impedance_at_3_4(case: GridCase) -> GridCase:
    """``case`` with its 3-4 branch at zero impedance, in service."""
    return case.with_(branches=tuple(
        replace(br, resistance=0.0, reactance=0.0) if br.endpoints == (3, 4) else br
        for br in case.branches
    ))


def without_slack(case: GridCase) -> GridCase:
    return case.with_(buses=tuple(
        replace(b, kind="PV") if b.kind == "slack" else b for b in case.buses
    ))


class TestOnePrologue:
    """A whole-network solve and an island solve share one prologue: the
    zero-impedance check over the branches the solve sees, then the slack."""

    def test_no_slack_bus(self):
        case = without_slack(two_bus_case())
        sol = solve_newton(case)
        assert (sol.converged, sol.iterations, sol.cause) == (False, 0, "no_slack")
        assert sol.max_mismatch == np.inf
        assert not sol.energized.any() and not sol.vm.any() and not sol.va.any()
        assert np.array_equal(sol.in_service, case.arrays.status)

    @pytest.mark.parametrize("slack", [True, False])
    def test_whole_network_solve_rejects_zero_impedance(self, slack):
        """The branch raises before a case without a slack returns no_slack."""
        case = zero_impedance_at_3_4(two_island_case())
        case = case if slack else without_slack(case)
        with pytest.raises(ValueError, match="branch 3-4: zero impedance in service"):
            solve_newton(case)

    def test_island_solve_ignores_zero_impedance_outside_it(self):
        """Island {1, 2} solves as it does beside a sound 3-4 branch;
        island {3, 4}, which holds the branch, raises."""
        case = zero_impedance_at_3_4(two_island_case())
        part = find_islands(case)
        clean = two_island_case()
        clean_part = find_islands(clean)
        got = solve_newton(case, island=part.islands[0], partition=part)
        want = solve_newton(clean, island=clean_part.islands[0], partition=clean_part)
        assert got.converged and got.iterations == want.iterations
        assert got.vm.tobytes() == want.vm.tobytes()
        assert got.va.tobytes() == want.va.tobytes()
        with pytest.raises(ValueError, match="branch 3-4: zero impedance in service"):
            solve_newton(case, island=part.islands[1], partition=part)

    def test_build_admittance_is_the_status_mask_admittance(self, case118):
        arr = case118.arrays
        got, want = build_admittance(case118), arr.admittance(arr.status)
        assert got.data.tobytes() == want.data.tobytes()
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.indptr, want.indptr)


class TestViolations:
    def test_undervoltage_flagged(self):
        case = two_bus_case(load_p=150.0, load_q=60.0)
        sol = solve_newton(case, PowerFlowOptions(flat_start=True))
        assert sol.converged
        found = check_violations(case, sol)
        assert any(v.kind == "undervoltage" and v.entity == "2" for v in found)

    def test_overload_flagged_against_rating(self):
        case = two_bus_case()  # ~54 MVA through a 120 MVA-rated line
        tight = case.with_(
            branches=(Branch(from_bus=1, to_bus=2, resistance=0.01,
                             reactance=0.10, rating=30.0),)
        )
        sol = solve_newton(tight, PowerFlowOptions(flat_start=True))
        found = check_violations(tight, sol)
        assert any(v.kind == "branch_overload" and v.entity == "1-2" for v in found)

    def test_unrated_branch_never_overloads(self):
        case = two_bus_case().with_(
            branches=(Branch(from_bus=1, to_bus=2, resistance=0.01,
                             reactance=0.10, rating=0.0),)
        )
        sol = solve_newton(case, PowerFlowOptions(flat_start=True))
        assert all(v.kind != "branch_overload" for v in check_violations(case, sol))

    def test_base_case_is_clean(self, case118):
        sol = solve_newton(case118)
        assert check_violations(case118, sol) == []

    def test_bus_violations_ordered_by_id_whatever_the_bus_order(self, case118):
        """Combination 5 on the case with its buses listed in reverse gives
        the ordered case's violations, bus ids ascending, values within 1e-9."""
        combo = OutageCombination((5,))
        want = screen_combination(case118, combo).violations
        got = screen_combination(case118.with_(buses=tuple(reversed(case118.buses))),
                                 combo).violations
        assert [(v.kind, v.entity) for v in got] == [(v.kind, v.entity) for v in want]
        assert all(abs(g.value - w.value) <= 1e-9 for g, w in zip(got, want))
        buses = [int(v.entity) for v in want if v.kind != "branch_overload"]
        assert buses[:5] == [1, 2, 3, 13, 16] and buses == sorted(buses)
