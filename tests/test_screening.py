"""Combination enumeration, steady-state verdicts, pruning, ranking."""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridimpact import powerflow, screening
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
)
from gridimpact.screening import _critical_ancestor, _known_critical
from gridimpact.topology import apply_substation_outage, find_islands

from toys import two_bus_case

CASE1_COMBO = OutageCombination((13, 14, 17, 21, 34))

# compact sub-universe around the weak southeast corner; small enough for
# exhaustive k=2 sweeps, rich enough that containment pruning fires
SUB_UNIVERSE = (80, 92, 94, 95, 96, 98, 99, 100, 101, 102)

# the benchmark's seed-42 screen-k2 subset (gridbench/workloads.py)
BENCH_SUBSET = (4, 14, 15, 18, 29, 32, 36, 69, 83, 88, 96, 100)


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

    def test_repeated_subset_member_rejected(self):
        case = synthetic_case(4)
        with pytest.raises(ValueError, match=r"repeated substations in filter: \[1, 3\]"):
            next(enumerate_combinations(case, 2, subset=(3, 1, 2, 1, 3)))

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
        assert r.cause == "dead_system"
        assert r.unserved_mw == 50.0

    @pytest.mark.parametrize("reason, verdict", [
        ("diverged", "critical"),
        ("dead_system", "critical"),
        ("error", "critical"),
        ("islanded_unserved_load", "non_critical"),
        ("violations_only", "non_critical"),
        ("clean", "non_critical"),
    ])
    def test_verdict_follows_reason(self, reason, verdict):
        assert _result((1,), reason, 0.0).verdict == verdict


def _result(subs, reason, unserved):
    return ScreeningResult(
        combination=OutageCombination(subs),
        reason=reason,
        violations=(),
        island_count=1,
        unserved_mw=unserved,
    )


class TestPriorityList:
    def test_ranking_order(self):
        results = [
            _result((9,), "clean", 0.0),
            _result((2,), "islanded_unserved_load", 40.0),
            _result((5,), "diverged", 0.0),
            _result((7,), "islanded_unserved_load", 90.0),
            _result((1,), "dead_system", 10.0),
        ]
        ranked = PriorityList.ranked(1, results)
        order = [r.combination.substations for r in ranked.results]
        # critical first (by combination), then unserved desc, then key
        assert order == [(1,), (5,), (7,), (2,), (9,)]
        assert [r.combination.substations for r in ranked.critical] == [(1,), (5,)]

    def test_tiebreak_is_total(self):
        results = [
            _result((4,), "clean", 0.0),
            _result((3,), "clean", 0.0),
        ]
        ranked = PriorityList.ranked(1, results)
        assert [r.combination.substations for r in ranked.results] == [(3,), (4,)]


class TestRunScreening:
    def test_level1_sub_universe(self, case118):
        run = run_screening(case118, k_max=1, subset=SUB_UNIVERSE)
        assert run.evaluations == 10
        assert run.pruned == 0
        assert run.coverage == 1.0
        crit = [r.combination.substations for r in run.levels[0].critical]
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
        inherited = [r for r in run.levels[1].results if r.critical_by is not None]
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

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            run_screening(synthetic_case(3), k_max=1, budget=-3)
        assert run_screening(synthetic_case(3), k_max=1, budget=0).evaluations == 0

    def test_budget_truncates_and_reports_coverage(self, case118):
        run = run_screening(case118, k_max=2, subset=SUB_UNIVERSE, budget=4)
        assert run.evaluations == 4
        assert run.budget == 4
        # 4 of C(10,1) + C(10,2) = 55 enumerable combinations classified
        assert run.coverage == pytest.approx(4 / 55)
        assert [pl.level for pl in run.levels] == [1]

    def test_worker_count_does_not_change_results(self, case118):
        serial = run_screening(case118, k_max=1, subset=SUB_UNIVERSE, workers=1)
        parallel = run_screening(case118, k_max=1, subset=SUB_UNIVERSE, workers=2)
        assert screening_report_csv(serial) == screening_report_csv(parallel)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_raise_before_any_solve(self, monkeypatch, workers):
        calls = []
        monkeypatch.setattr(screening, "screen_combination",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"^workers must be at least 1, got {workers}$"):
            run_screening(two_bus_case(), 1, workers=workers)
        assert calls == []

    def test_workers_clamped_to_cpu_count(self, monkeypatch):
        """One worker more than there are CPUs starts a pool of cpu_count()
        processes (none on one CPU) and gives the serial run; the request is
        kept this small so that a broken clamp cannot start many processes."""
        cpus = os.cpu_count() or 1
        pools = []
        pool = concurrent.futures.ProcessPoolExecutor

        def recording(max_workers, **kwargs):
            pools.append(max_workers)
            return pool(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
        clamped = run_screening(two_bus_case(), 1, workers=cpus + 1)
        assert pools == ([cpus] if cpus > 1 else [])
        assert clamped == run_screening(two_bus_case(), 1)

    def test_a_raising_screen_is_an_error_that_prunes_nothing(
        self, case118, monkeypatch
    ):
        """The level-1 screen of substation 100 (critical when it solves)
        raises: it is recorded critical with reason error, the sweep goes
        on, and its supersets are solved instead of pruned by it, alike on
        one worker and on two (forked workers inherit the patch)."""
        subset = (94, 95, 99, 100)
        members = {s.id: s.member_buses for s in case118.substations}[100]
        n_buses = len(case118.buses)
        solve = screening.solve_islands

        def solve_or_raise(case, *args, partition, **kwargs):
            ids = set().union(*(isl.buses for isl in partition.islands))
            if len(ids) == n_buses - len(members) and not ids & members:
                raise RuntimeError("injected failure")
            return solve(case, *args, partition=partition, **kwargs)

        clean = run_screening(case118, k_max=2, subset=subset, workers=1)
        assert clean.levels[0].results[0].reason == "diverged"
        pruned_by_100 = {r.combination for r in clean.levels[1].results
                         if r.critical_by == OutageCombination((100,))}
        assert len(pruned_by_100) == 3

        monkeypatch.setattr(screening, "solve_islands", solve_or_raise)
        runs = [run_screening(case118, k_max=2, subset=subset, workers=w)
                for w in (1, 2)]
        assert screening_report_csv(runs[0]) == screening_report_csv(runs[1])
        for run in runs:
            errored = [r for pl in run.levels for r in pl.results if r.reason == "error"]
            assert [r.combination for r in errored] == [OutageCombination((100,))]
            assert errored[0].verdict == "critical"
            assert (errored[0].island_count, errored[0].unserved_mw) == (0, 0.0)
            level2 = {r.combination: r for r in run.levels[1].results}
            assert all(r.critical_by is None for r in level2.values())
            assert run.evaluations == clean.evaluations + len(pruned_by_100)
            assert run.pruned == clean.pruned - len(pruned_by_100)
            for combo in pruned_by_100:
                want = screen_combination(case118, combo)
                assert level2[combo] == want


    @pytest.mark.parametrize("k_max", [1, 2])
    def test_repeated_subset_raises_before_any_solve(self, case118, monkeypatch, k_max):
        calls = []
        monkeypatch.setattr(screening, "screen_combination",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"repeated substations in filter: \[100\]"):
            run_screening(case118, k_max, subset=[100, 100, 69], workers=1)
        assert calls == []


class TestCause:
    def test_causes_of_the_bench_subset(self, case118):
        """Solved critical results carry their first failing island's
        cause, pruned ones their ancestor's, non-critical ones none; the
        same on one worker and on two, and not in the report."""
        runs = [run_screening(case118, k_max=2, subset=BENCH_SUBSET, workers=w)
                for w in (1, 2)]
        assert screening_report_csv(runs[0]) == screening_report_csv(runs[1])
        assert "cause" not in screening_report_csv(runs[0]).splitlines()[0]
        for run in runs:
            results = [r for pl in run.levels for r in pl.results]
            solved = Counter(r.cause for r in results if r.critical_by is None)
            assert solved == {None: 63, "max_iterations": 3, "generation_deficit": 1}
            by_combo = {r.combination: r for r in results}
            assert by_combo[OutageCombination((100,))].cause == "generation_deficit"
            assert by_combo[OutageCombination((69, 83))].cause == "max_iterations"
            for r in results:
                assert (r.cause is None) == (r.verdict == "non_critical")
                if r.critical_by is not None:
                    assert r.cause == by_combo[r.critical_by].cause


class TestKnownCritical:
    """The rule that starts a confirmation ahead of its level's sweep: a
    combination marked critical from its islands alone (none servable, or
    a servable one below its load's nameplate capability) screens
    critical."""

    def test_level_one_marks_only_substation_100(self, case118):
        results = run_screening(case118, k_max=1, workers=1).levels[0].results
        marked = [r for r in results if _known_critical(case118, r.combination)]
        assert len(results) == 118
        assert [(r.combination, r.verdict, r.cause) for r in marked] == [
            (OutageCombination((100,)), "critical", "generation_deficit")]

    def test_marked_pairs_of_a_seeded_subset_screen_critical(self, case118):
        """Pairs of 12 substations, 100 and 103 among them (100+103 is a
        non-critical pair that holds a marked substation), solved without
        containment pruning."""
        others = sorted(s.id for s in case118.substations if s.id not in (100, 103))
        subset = sorted(random.Random(5).sample(others, 10) + [100, 103])
        results = run_screening(case118, k_max=2, subset=subset, prune=False,
                                workers=1).levels[1].results
        marked = [r for r in results if _known_critical(case118, r.combination)]
        assert len(results) == 66
        assert len(marked) >= 10
        assert all(r.verdict == "critical" for r in marked)
        pocket = {r.combination: r for r in results}[OutageCombination((100, 103))]
        assert pocket.verdict == "non_critical"
        assert not _known_critical(case118, pocket.combination)


class TestInstrumentationContract:
    """The benchmark reads Newton work off these calls (``gridbench/spans.py``
    wraps ``screening.solve_islands`` and ``powerflow.solve_newton``): one
    ``solve_islands`` per screen, and one ``solve_newton`` per servable
    island that passes the capability gate."""

    @pytest.mark.parametrize("subs", [
        (100,),  # two islands: the pocket fails the gate
        (69, 83),  # hits the iteration cap
        (69, 96),  # hits the iteration cap
        (4,), (14, 36), (15, 88), (29, 32),  # converge
    ])
    def test_one_newton_solve_per_gated_island(self, case118, monkeypatch, subs):
        calls = Counter()

        def counted(owner, name):
            inner = getattr(owner, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, call)

        counted(screening, "solve_islands")
        counted(powerflow, "solve_newton")
        screen_combination(case118, OutageCombination(subs))
        reduced, _, _ = apply_substation_outage(case118, subs)
        arr = reduced.arrays
        gated = 0
        for isl in find_islands(reduced).islands:
            take = [reduced.bus_index[b] for b in sorted(isl.buses)]
            gated += isl.servable and arr.load_p[take].sum() <= arr.gen_mva[take].sum()
        assert gated >= 1
        assert calls == {"solve_islands": 1, "solve_newton": gated}


class TestReportCsv:
    def test_shape_and_pinned_row(self, case118):
        run = run_screening(case118, k_max=1, subset=SUB_UNIVERSE)
        lines = screening_report_csv(run).splitlines()
        assert lines[0] == ("level,substations,verdict,reason,islands,"
                            "unserved_mw,violations,critical_by")
        assert len(lines) == 1 + 10
        # critical rows rank first; substation 100 tops this universe
        assert lines[1].startswith("1,100,critical,diverged,2,")


class TestAncestorLookup:
    """Containment pruning probes the proper subsets of a combination; the
    linear scan it replaced is kept here as the reference."""

    @staticmethod
    def reference_scan(subs: tuple, discovered: list[tuple]):
        cset = set(subs)
        return next((a for a in discovered if cset.issuperset(a)), None)

    @staticmethod
    def check(combos, discovered: list[tuple]) -> int:
        """As in a sweep, a level-k combination meets only the criticals
        of the levels below it."""
        hits = 0
        for subs in combos:
            below = [a for a in discovered if len(a) < len(subs)]
            critical = {a: (rank, None) for rank, a in enumerate(below)}
            want = TestAncestorLookup.reference_scan(subs, below)
            assert _critical_ancestor(subs, critical) == want, subs
            hits += want is not None
        return hits

    @pytest.mark.parametrize("seed", range(3))
    def test_full_level_2_of_the_118_bus_case(self, case118, seed):
        """Every pair of the 118 substations against random critical
        singletons in random discovery order."""
        rng = random.Random(seed)
        ids = [s.id for s in case118.substations]
        discovered = [(s,) for s in rng.sample(ids, rng.randint(1, 30))]
        pairs = list(itertools.combinations(sorted(ids), 2))
        assert len(pairs) == 6903
        assert self.check(pairs, discovered) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_level_3_and_4_against_mixed_ancestors(self, case118, seed):
        """Random triples and quadruples against critical singletons, pairs
        and triples, discovered in random order (so a later, smaller
        ancestor must not win over an earlier, larger one)."""
        rng = random.Random(100 + seed)
        ids = sorted(s.id for s in case118.substations)
        universe = rng.sample(ids, 14)
        discovered = {tuple(sorted(rng.sample(universe, rng.randint(1, 3))))
                      for _ in range(40)}
        discovered = rng.sample(sorted(discovered), len(discovered))
        combos = [c for k in (3, 4) for c in itertools.combinations(sorted(universe), k)]
        assert self.check(combos, discovered) > 0

    def test_probes_at_most_2_to_the_k_minus_2(self):
        probes = []

        class Counting(dict):
            def get(self, key, default=None):
                probes.append(key)
                return super().get(key, default)

        for k in range(1, 6):
            probes.clear()
            assert _critical_ancestor(tuple(range(k)), Counting()) is None
            assert len(probes) == 2 ** k - 2
