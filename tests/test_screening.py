"""Combination enumeration, steady-state verdicts, pruning, ranking."""

from __future__ import annotations

import itertools
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridimpact.model import Bus, Generator, GridCase, Substation
from gridimpact.screening import (
    OutageCombination,
    PriorityList,
    ScreeningResult,
    count_combinations,
    enumerate_combinations,
    run_screening,
    screen_combination,
    screening_report_csv,
    worker_count,
)

from toys import two_bus_case

CASE1_COMBO = OutageCombination((13, 14, 17, 21, 34))

# compact sub-universe around the weak southeast corner; small enough for
# exhaustive k=2 sweeps, rich enough that containment pruning fires
SUB_UNIVERSE = (80, 92, 94, 95, 96, 98, 99, 100, 101, 102)


def synthetic_case(n: int) -> GridCase:
    """n isolated buses, one substation each; for enumeration tests only."""
    buses = (Bus(id=1, kind="slack"),) + tuple(Bus(id=i) for i in range(2, n + 1))
    return GridCase(
        base_mva=100.0,
        buses=buses,
        branches=(),
        generators=(Generator(bus=1, p_output=0.0),),
        substations=tuple(
            Substation(id=i, member_buses=(i,)) for i in range(1, n + 1)
        ),
    )


class TestCombination:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            OutageCombination(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            OutageCombination((5, 5))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            OutageCombination((9, 3))

    def test_containment_and_str(self):
        big = OutageCombination((3, 7, 9))
        small = OutageCombination((3, 9))
        assert big.contains(small)
        assert not small.contains(big)
        assert str(big) == "3+7+9"
        assert big.level == 3


class TestCounting:
    def test_exhaustive_small_universes(self):
        """Count formula against literal enumeration for every n <= 12."""
        for n in range(0, 13):
            case = synthetic_case(n) if n else None
            for k in range(0, n + 1):
                expected = len(list(itertools.combinations(range(n), k)))
                assert count_combinations(n, k) == expected
                if case is not None and k >= 1:
                    assert sum(1 for _ in enumerate_combinations(case, k)) == expected

    def test_matches_closed_form(self):
        assert count_combinations(118, 2) == 6903
        assert count_combinations(118, 3) == 266_916

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_combinations(5, 7)
        with pytest.raises(ValueError):
            count_combinations(-1, 0)


class TestEnumeration:
    def test_lexicographic_and_distinct(self):
        case = synthetic_case(6)
        combos = [c.substations for c in enumerate_combinations(case, 2)]
        assert combos == sorted(combos)
        assert len(combos) == len(set(combos)) == 15
        assert all(a < b for a, b in combos)

    def test_subset_restricts_universe(self):
        case = synthetic_case(8)
        combos = list(enumerate_combinations(case, 2, subset=(2, 5, 7)))
        assert [c.substations for c in combos] == [(2, 5), (2, 7), (5, 7)]

    def test_unknown_subset_member_rejected(self):
        case = synthetic_case(4)
        with pytest.raises(ValueError, match="unknown"):
            list(enumerate_combinations(case, 1, subset=(3, 99)))

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_combinations(synthetic_case(3), 0))

    @given(n=st.integers(1, 10), k=st.integers(1, 10))
    @settings(max_examples=40)
    def test_count_agrees_with_stream(self, n, k):
        if k > n:
            return
        case = synthetic_case(n)
        assert sum(1 for _ in enumerate_combinations(case, k)) == \
            count_combinations(n, k)


class TestSingleVerdicts:
    def test_substation_100_is_critical(self, case118):
        r = screen_combination(case118, OutageCombination((100,)))
        assert r.verdict == "critical"
        assert r.reason == "diverged"
        assert r.island_count == 2
        assert r.critical_by is None

    def test_cascade_precursor_set_screens_clean_enough(self, case118):
        """The five-substation set stays solvable; stress shows as violations."""
        r = screen_combination(case118, CASE1_COMBO)
        assert r.verdict == "non_critical"
        assert r.reason == "violations_only"
        assert r.island_count == 1
        undervolt = {v.entity for v in r.violations if v.kind == "undervoltage"}
        assert "33" in undervolt
        assert any(v.kind == "branch_overload" for v in r.violations)

    def test_superset_can_be_milder_than_subset(self, case118):
        """{100} collapses but {100, 103} does not: the pocket that made the
        post-outage flow unsolvable is carved off as unserved load instead.
        This is the counterexample that keeps audit mode around."""
        r = screen_combination(case118, OutageCombination((100, 103)))
        assert r.verdict == "non_critical"
        assert r.reason == "islanded_unserved_load"
        assert r.unserved_mw == pytest.approx(279.0, abs=0.5)

    def test_removing_only_source_is_dead_system(self):
        r = screen_combination(two_bus_case(), OutageCombination((1,)))
        assert r.verdict == "critical"
        assert r.reason == "dead_system"
        assert r.unserved_mw == 50.0

    def test_verdict_reason_consistency_enforced(self):
        with pytest.raises(ValueError):
            ScreeningResult(
                combination=OutageCombination((1,)),
                verdict="critical",
                reason="clean",
                violations=(),
                island_count=1,
                unserved_mw=0.0,
            )
        with pytest.raises(ValueError):
            ScreeningResult(
                combination=OutageCombination((1,)),
                verdict="non_critical",
                reason="diverged",
                violations=(),
                island_count=1,
                unserved_mw=0.0,
            )


def _result(subs, verdict, reason, unserved):
    return ScreeningResult(
        combination=OutageCombination(subs),
        verdict=verdict,
        reason=reason,
        violations=(),
        island_count=1,
        unserved_mw=unserved,
    )


class TestPriorityList:
    def test_ranking_order(self):
        results = [
            _result((9,), "non_critical", "clean", 0.0),
            _result((2,), "non_critical", "islanded_unserved_load", 40.0),
            _result((5,), "critical", "diverged", 0.0),
            _result((7,), "non_critical", "islanded_unserved_load", 90.0),
            _result((1,), "critical", "dead_system", 10.0),
        ]
        ranked = PriorityList.ranked(1, results)
        order = [r.combination.substations for r in ranked.results]
        # critical first (by combination), then unserved desc, then key
        assert order == [(1,), (5,), (7,), (2,), (9,)]
        assert [r.combination.substations for r in ranked.critical] == [(1,), (5,)]

    def test_tiebreak_is_total(self):
        results = [
            _result((4,), "non_critical", "clean", 0.0),
            _result((3,), "non_critical", "clean", 0.0),
        ]
        ranked = PriorityList.ranked(1, results)
        assert [r.combination.substations for r in ranked.results] == [(3,), (4,)]


class TestRunScreening:
    def test_level1_sub_universe(self, case118):
        run = run_screening(case118, k_max=1, subset=SUB_UNIVERSE)
        assert run.evaluations == 10
        assert run.pruned == 0
        assert run.coverage == 1.0
        crit = [r.combination.substations for r in run.level(1).critical]
        assert crit == [(100,)]

    def test_pruned_matches_unpruned_on_sub_universe(self, case118):
        pruned = run_screening(case118, k_max=2, subset=SUB_UNIVERSE, prune=True)
        full = run_screening(case118, k_max=2, subset=SUB_UNIVERSE, prune=False)
        assert pruned.evaluations == 46
        assert pruned.pruned == 9
        assert full.evaluations == 55
        assert full.pruned == 0
        crit_p = {r.combination for pl in pruned.levels for r in pl.critical}
        crit_f = {r.combination for pl in full.levels for r in pl.critical}
        assert crit_p == crit_f

    def test_pruned_records_name_their_ancestor(self, case118):
        run = run_screening(case118, k_max=2, subset=SUB_UNIVERSE, prune=True)
        ancestor = OutageCombination((100,))
        inherited = [r for r in run.level(2).results if r.critical_by is not None]
        assert len(inherited) == 9
        assert all(r.critical_by == ancestor for r in inherited)
        assert all(r.verdict == "critical" for r in inherited)

    def test_audit_mode_exposes_nonmonotone_pair(self, case118):
        """With 103 in the universe, pruning overstates: {100, 103} gets
        marked critical by containment although it actually solves."""
        pruned = run_screening(case118, k_max=2, subset=(100, 103), prune=True)
        full = run_screening(case118, k_max=2, subset=(100, 103), prune=False)
        crit_p = {r.combination.substations for pl in pruned.levels
                  for r in pl.critical}
        crit_f = {r.combination.substations for pl in full.levels
                  for r in pl.critical}
        assert (100, 103) in crit_p
        assert (100, 103) not in crit_f

    def test_budget_truncates_and_reports_coverage(self, case118):
        run = run_screening(case118, k_max=2, subset=SUB_UNIVERSE, budget=4)
        assert run.evaluations == 4
        assert run.budget == 4
        # 4 of C(10,1) + C(10,2) = 55 enumerable combinations classified
        assert run.coverage == pytest.approx(4 / 55)
        assert [pl.level for pl in run.levels] == [1]

    def test_level_accessor(self, case118):
        run = run_screening(case118, k_max=1, subset=SUB_UNIVERSE)
        assert run.level(1).level == 1
        with pytest.raises(KeyError):
            run.level(3)

    def test_worker_count_clamped_to_cpu_count(self, monkeypatch):
        # worker_count() only: a pool is never started at this value
        monkeypatch.setenv("GRIDIMPACT_WORKERS", "100000")
        assert worker_count() == (os.cpu_count() or 1)
        monkeypatch.setenv("GRIDIMPACT_WORKERS", "0")
        assert worker_count() == 1

    def test_worker_count_does_not_change_results(self, case118):
        serial = run_screening(case118, k_max=1, subset=SUB_UNIVERSE, workers=1)
        parallel = run_screening(case118, k_max=1, subset=SUB_UNIVERSE, workers=2)
        assert screening_report_csv(serial) == screening_report_csv(parallel)


class TestReportCsv:
    def test_shape_and_pinned_row(self, case118):
        run = run_screening(case118, k_max=1, subset=SUB_UNIVERSE)
        lines = screening_report_csv(run).splitlines()
        assert lines[0] == ("level,substations,verdict,reason,islands,"
                            "unserved_mw,violations,critical_by")
        assert len(lines) == 1 + 10
        # critical rows rank first; substation 100 tops this universe
        assert lines[1].startswith("1,100,critical,diverged,2,")
