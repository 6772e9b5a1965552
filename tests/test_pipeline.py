"""Cross-classification, ordering plans, cascade runs, re-evaluation."""

from __future__ import annotations

import subprocess
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridimpact import dynamics, pipeline
from gridimpact.dynamics import (
    ScenarioOptions,
    StabilityVerdict,
    SwitchingSchedule,
    run_scenario,
    trace_to_csv,
)
from gridimpact.pipeline import (
    CrossCheckRecord,
    DynPolicy,
    PermutationPlan,
    PipelineConfig,
    cascade_confirm,
    combination_branch_set,
    cross_check,
    matrix_csv,
    re_evaluate,
    reeval_csv,
    run_pipeline,
)
from gridimpact.screening import OutageCombination, ScreeningResult
from gridimpact.topology import OutageAction

from toys import two_machine_case

SUB_UNIVERSE = (80, 92, 94, 95, 96, 98, 99, 100, 101, 102)


def _screened(subs, verdict):
    return ScreeningResult(
        combination=OutageCombination(subs),
        verdict=verdict,
        reason="diverged" if verdict == "critical" else "clean",
        violations=(),
        island_count=1,
        unserved_mw=0.0,
    )


class TestCrossCheck:
    def test_hand_tally(self):
        screened = [
            _screened((1,), "critical"),
            _screened((2,), "critical"),
            _screened((3,), "non_critical"),
            _screened((4,), "non_critical"),
            _screened((5,), "non_critical"),
        ]
        dyn = {
            (1,): "transient_unstable",
            (2,): "stable",
            (3,): "frequency_unstable",
            (4,): "stable",
        }
        m = cross_check(screened, dyn)
        assert m.total == 5
        assert m.n_critical_steady == 2
        assert m.p_critical_steady == pytest.approx(0.4)
        assert m.p_noncritical_steady == pytest.approx(0.6)
        assert m.cell("critical", "dyn_critical") == 1
        assert m.cell("critical", "dyn_stable") == 1
        assert m.cell("non_critical", "dyn_critical") == 1
        assert m.cell("non_critical", "dyn_stable") == 1
        assert m.p_dyn_critical_given_critical == pytest.approx(0.5)
        assert m.p_dyn_critical_given_noncritical == pytest.approx(0.5)

    def test_marginals_always_sum_to_one(self):
        screened = [_screened((i,), "non_critical") for i in range(1, 8)]
        m = cross_check(screened, {})
        assert m.p_critical_steady + m.p_noncritical_steady == 1.0
        assert m.p_critical_steady == 0.0

    def test_unverified_class_has_no_conditionals(self):
        screened = [
            _screened((1,), "critical"),
            _screened((2,), "non_critical"),
        ]
        m = cross_check(screened, {(1,): "transient_unstable"})
        assert m.p_dyn_critical_given_critical == 1.0
        assert m.p_dyn_stable_given_critical == 0.0
        assert m.p_dyn_critical_given_noncritical is None
        assert m.p_dyn_stable_given_noncritical is None

    def test_accepts_verdict_objects(self):
        screened = [_screened((1,), "non_critical")]
        verdict = StabilityVerdict(
            overall="stable",
            per_island={1: "stable"},
            time_of_first_violation=None,
            growing_oscillation={1: False},
        )
        m = cross_check(screened, {(1,): verdict})
        assert m.cell("non_critical", "dyn_stable") == 1

    def test_unscreened_key_rejected(self):
        screened = [_screened((1,), "non_critical")]
        with pytest.raises(ValueError, match="unscreened"):
            cross_check(screened, {(9,): "stable"})

    def test_duplicate_combinations_rejected(self):
        screened = [_screened((1,), "non_critical"), _screened((1,), "critical")]
        with pytest.raises(ValueError, match="duplicate"):
            cross_check(screened, {})

    def test_empty_screening_rejected(self):
        with pytest.raises(ValueError):
            cross_check([], {})

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["critical", "non_critical"]),
                st.sampled_from(
                    ["stable", "transient_unstable", "frequency_unstable",
                     "islanded_mixed", None]
                ),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_counts_match_counter_oracle(self, rows):
        screened = [_screened((i,), sv) for i, (sv, _) in enumerate(rows, 1)]
        dyn = {(i,): dv for i, (_, dv) in enumerate(rows, 1) if dv is not None}
        m = cross_check(screened, dyn)

        oracle = Counter()
        for sv, dv in rows:
            if dv is None:
                continue
            oracle[(sv, "dyn_stable" if dv == "stable" else "dyn_critical")] += 1
        for key in (
            ("critical", "dyn_critical"),
            ("critical", "dyn_stable"),
            ("non_critical", "dyn_critical"),
            ("non_critical", "dyn_stable"),
        ):
            assert m.cell(*key) == oracle[key]
        assert m.p_critical_steady + m.p_noncritical_steady == pytest.approx(1.0)
        for steady in ("critical", "non_critical"):
            crit = oracle[(steady, "dyn_critical")]
            stab = oracle[(steady, "dyn_stable")]
            p_c = getattr(m, f"p_dyn_critical_given_{steady.replace('non_critical', 'noncritical')}")
            if crit + stab == 0:
                assert p_c is None
            else:
                assert p_c == pytest.approx(crit / (crit + stab))

    def test_record_tristate(self):
        rec = CrossCheckRecord(OutageCombination((1,)), "critical", None)
        assert rec.dyn_critical is None
        rec = CrossCheckRecord(OutageCombination((1,)), "critical", "stable")
        assert rec.dyn_critical is False
        rec = CrossCheckRecord(OutageCombination((1,)), "critical", "islanded_mixed")
        assert rec.dyn_critical is True


class TestMatrixCsv:
    def test_shape_and_empty_conditionals(self):
        screened = [
            _screened((1,), "critical"),
            _screened((2,), "non_critical"),
        ]
        m = cross_check(screened, {(1,): "transient_unstable"})
        lines = matrix_csv(m).splitlines()
        assert lines[0] == "name,value"
        assert len(lines) == 14
        assert "combinations_screened,2" in lines
        assert "p_critical_steady,0.5" in lines
        assert "count_critical_dyn_critical,1" in lines
        # unverified class renders as empty value, not 0 or nan
        assert "p_dyn_critical_given_noncritical," in lines


class TestPermutationPlan:
    def test_auto_resolution_by_factorial(self):
        plan = PermutationPlan(cap=5040)
        assert plan.resolve(3) == "exhaustive"
        assert plan.resolve(7) == "exhaustive"
        assert plan.resolve(8) == "sample"

    def test_exhaustive_orders(self):
        plan = PermutationPlan(strategy="exhaustive")
        pairs = [(5, 9), (1, 2), (3, 4)]
        orders = list(plan.orders(pairs))
        assert len(orders) == 6
        assert len(set(orders)) == 6
        assert orders[0] == ((1, 2), (3, 4), (5, 9))  # canonical first
        assert all(sorted(o) == sorted(pairs) for o in orders)

    def test_exhaustive_refused_above_cap(self):
        pairs = [(i, i + 1) for i in range(1, 9)]
        with pytest.raises(ValueError, match=r"8! = 40320 orderings, above cap=5040"):
            PermutationPlan(strategy="exhaustive").orders(pairs)
        assert len(list(PermutationPlan(strategy="exhaustive", cap=40320).orders(pairs))) \
            == 40320

    def test_single_canonical(self):
        plan = PermutationPlan(strategy="single_canonical")
        orders = list(plan.orders([(9, 12), (1, 4)]))
        assert orders == [((1, 4), (9, 12))]

    def test_sampled_orders_distinct_and_seeded(self):
        pairs = [(i, i + 1) for i in range(1, 9)]
        plan = PermutationPlan(strategy="sample", samples=6, seed=3)
        a = list(plan.orders(pairs))
        b = list(plan.orders(pairs))
        assert a == b
        assert len(a) == 6
        assert len(set(a)) == 6
        assert a[0] == tuple(sorted(pairs))
        other = list(PermutationPlan(strategy="sample", samples=6, seed=4).orders(pairs))
        assert other != a

    def test_validation(self):
        with pytest.raises(ValueError):
            PermutationPlan(strategy="clever")
        with pytest.raises(ValueError):
            PermutationPlan(interval=0.0)
        with pytest.raises(ValueError):
            PermutationPlan(samples=0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_non_finite_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="finite"):
            PermutationPlan(interval=interval)


class TestBranchSets:
    def test_pocket_feeder_branch_set(self, case118):
        pairs = combination_branch_set(case118, OutageCombination((100,)))
        assert pairs == (
            (92, 100), (94, 100), (98, 100), (99, 100),
            (100, 101), (100, 103), (100, 104), (100, 106),
        )

    def test_unknown_substation_rejected(self, case118):
        with pytest.raises(ValueError, match="unknown substation"):
            combination_branch_set(case118, OutageCombination((999,)))

    def test_toy_branch_sets(self):
        case = two_machine_case()
        assert combination_branch_set(case, OutageCombination((3,))) == \
            ((1, 3), (2, 3))
        assert combination_branch_set(case, OutageCombination((1, 3))) == \
            ((1, 2), (1, 3), (2, 3))


class TestCascadeConfirm:
    def test_switching_order_changes_the_verdict(self):
        """Islanding the deficient machine mid-sequence collapses it, while
        shedding the load first rides through: 4 of 6 orderings unstable."""
        case = two_machine_case()
        summary = cascade_confirm(case, OutageCombination((1, 3)))
        assert summary.strategy == "exhaustive"
        assert len(summary.runs) == 6
        assert all(r.status == "ok" for r in summary.runs)
        outcomes = Counter(r.overall for r in summary.runs)
        assert outcomes == {"islanded_mixed": 4, "stable": 2}
        assert summary.fraction_unstable == pytest.approx(4 / 6)
        assert not summary.permutation_invariant

    def test_base_state_built_once_for_all_orderings(self, monkeypatch):
        """Six orderings share one base power flow and reach the verdicts
        each ordering reached when it solved its own."""
        solves = []
        solve = dynamics.solve_newton
        monkeypatch.setattr(dynamics, "solve_newton",
                            lambda *a, **k: solves.append(1) or solve(*a, **k))
        summary = cascade_confirm(two_machine_case(), OutageCombination((1, 3)))
        assert len(solves) == 1
        assert [(r.order, r.overall) for r in summary.runs] == [
            (((1, 2), (1, 3), (2, 3)), "islanded_mixed"),
            (((1, 2), (2, 3), (1, 3)), "islanded_mixed"),
            (((1, 3), (1, 2), (2, 3)), "islanded_mixed"),
            (((1, 3), (2, 3), (1, 2)), "stable"),
            (((2, 3), (1, 2), (1, 3)), "islanded_mixed"),
            (((2, 3), (1, 3), (1, 2)), "stable"),
        ]
        assert [r.time_of_first_violation for r in summary.runs] == pytest.approx(
            [7.93, 8.87, 7.93, None, 8.86, None], abs=1e-9
        )

    def test_failed_base_state_fails_every_ordering(self, monkeypatch):
        def no_base(case, models):
            raise ValueError("base-case power flow did not converge")

        monkeypatch.setattr(pipeline, "initial_state", no_base)
        summary = cascade_confirm(two_machine_case(), OutageCombination((1, 3)))
        assert len(summary.runs) == 6
        assert {(r.status, r.detail) for r in summary.runs} == {
            ("error", "base-case power flow did not converge")
        }
        assert summary.fraction_unstable is None

    def test_order_invariant_set_reports_invariant(self):
        case = two_machine_case()
        summary = cascade_confirm(case, OutageCombination((3,)))
        assert summary.strategy == "exhaustive"
        assert [r.overall for r in summary.runs] == ["stable", "stable"]
        assert summary.fraction_unstable == 0.0
        assert summary.permutation_invariant

    def test_canonical_run_equals_direct_scenario(self):
        case = two_machine_case()
        plan = PermutationPlan(strategy="single_canonical")
        summary = cascade_confirm(case, OutageCombination((3,)), plan=plan)
        assert len(summary.runs) == 1
        run = summary.canonical

        actions = [OutageAction.open_branch(1, 3), OutageAction.open_branch(2, 3)]
        schedule = SwitchingSchedule.evenly_spaced(actions, interval=5.0)
        _, direct = run_scenario(case, schedule)
        assert run.overall == direct.overall
        assert run.time_of_first_violation == direct.time_of_first_violation

    def test_kept_trace_is_the_canonical_one_only(self):
        case = two_machine_case()
        kept = cascade_confirm(case, OutageCombination((1, 3)), keep_traces=True)
        plain = cascade_confirm(case, OutageCombination((1, 3)))
        assert kept.strategy == "exhaustive"
        assert len(kept.runs) == 6
        assert kept.runs[0].trace is not None
        assert [r.trace for r in kept.runs[1:]] == [None] * 5
        assert [(r.order, r.status, r.overall, r.time_of_first_violation)
                for r in kept.runs] == [
            (r.order, r.status, r.overall, r.time_of_first_violation)
            for r in plain.runs
        ]

    def test_empty_branch_set_rejected(self, case118):
        # substation 117's bus hangs on one branch; removing 12 and 117
        # first would empty it, but a combination of nothing in service
        # can only be provoked artificially
        case = two_machine_case()
        from gridimpact.topology import apply_branch_outages

        cut = apply_branch_outages(case, [(1, 3), (2, 3)])
        with pytest.raises(ValueError, match="no in-service branch"):
            cascade_confirm(cut, OutageCombination((3,)))


class TestReEvaluate:
    def test_agreement_is_rejected(self, case118):
        with pytest.raises(ValueError, match="no disagreement"):
            re_evaluate(case118, OutageCombination((100,)), "critical",
                        "islanded_mixed")

    def test_false_dynamic_alarm_reconciles_on_half_dt(self, case118, models118):
        """A claimed instability for the benign substation-34 outage fails
        rung 1 (the strict re-screen still says non-critical) and is
        resolved by the halved-step rerun coming back stable."""
        rec = re_evaluate(
            case118, OutageCombination((34,)), "non_critical",
            "transient_unstable", models=models118,
        )
        assert rec.kind == "steady_noncritical_dyn_unstable"
        assert rec.resolution == "reconciled"
        assert rec.adjustments == (
            "flat_start_tol_1e-08 -> non_critical",
            "half_dt -> stable",
        )

    def test_missed_steady_critical_reconciles_on_rescreen(self, case118, models118):
        """If screening had called the pocket substation non-critical, the
        strict flat-start re-screen alone recovers the critical verdict."""
        rec = re_evaluate(
            case118, OutageCombination((100,)), "non_critical",
            "islanded_mixed", models=models118,
        )
        assert rec.resolution == "reconciled"
        assert rec.adjustments == ("flat_start_tol_1e-08 -> critical",)

    def test_genuine_disagreement_stays_persistent(self):
        """Screening cannot see order-dependent collapse: the machine island
        solves fine statically but loses frequency dynamically, and no rung
        of the ladder makes the two simulators agree."""
        case = two_machine_case()
        combo = OutageCombination((1, 3))
        from gridimpact.screening import screen_combination

        steady = screen_combination(case, combo)
        assert steady.verdict == "non_critical"
        rec = re_evaluate(case, combo, steady.verdict, "islanded_mixed")
        assert rec.resolution == "persistent"
        assert rec.adjustments == (
            "flat_start_tol_1e-08 -> non_critical",
            "half_dt -> islanded_mixed",
            "interval_15s -> islanded_mixed",
        )

    def test_dynamic_rungs_share_one_base_state(self, case118, monkeypatch):
        """Both dynamic rungs run from one base power flow; a pair that
        the re-screen reconciles solves none."""
        solves = []
        solve = dynamics.solve_newton
        monkeypatch.setattr(dynamics, "solve_newton",
                            lambda *a, **k: solves.append(1) or solve(*a, **k))
        rec = re_evaluate(two_machine_case(), OutageCombination((1, 3)),
                          "non_critical", "islanded_mixed")
        assert len(rec.adjustments) == 3
        assert len(solves) == 1
        rec = re_evaluate(case118, OutageCombination((100,)), "non_critical",
                          "islanded_mixed")
        assert rec.adjustments == ("flat_start_tol_1e-08 -> critical",)
        assert len(solves) == 1

    def test_csv_rendering(self, case118, models118):
        rec = re_evaluate(
            case118, OutageCombination((100,)), "non_critical",
            "islanded_mixed", models=models118,
        )
        lines = reeval_csv([rec]).splitlines()
        assert lines[0] == "combination,kind,adjustments,resolution"
        assert lines[1] == (
            "100,steady_noncritical_dyn_unstable,"
            "flat_start_tol_1e-08 -> critical,reconciled"
        )


class TestDynPolicy:
    def test_sample_size_rounding_and_floor(self):
        policy = DynPolicy(noncritical_fraction=0.05, min_noncritical=1)
        assert policy.sample_size(6) == 1
        assert policy.sample_size(100) == 5
        assert policy.sample_size(0) == 0

    def test_disabled_sampling(self):
        policy = DynPolicy(noncritical_fraction=0.0, min_noncritical=0)
        assert policy.sample_size(50) == 0

    def test_floor_capped_by_population(self):
        policy = DynPolicy(noncritical_fraction=0.0, min_noncritical=3)
        assert policy.sample_size(2) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DynPolicy(noncritical_fraction=1.5)
        with pytest.raises(ValueError):
            DynPolicy(min_noncritical=-1)


class TestRunPipeline:
    def test_sub_universe_run_and_byte_determinism(self, case118, tmp_path):
        cfg = PipelineConfig(k_max=1, seed=7, subset=SUB_UNIVERSE)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        report = run_pipeline(case118, cfg, run_dir=dir_a)

        assert [(str(c), o) for c, o in report.verified] == [
            ("98", "stable"),
            ("100", "islanded_mixed"),
        ]
        assert report.failed == ()
        assert report.reevaluations == ()
        m = report.matrix
        assert m.p_critical_steady == pytest.approx(0.1)
        assert m.cell("critical", "dyn_critical") == 1
        assert m.cell("non_critical", "dyn_stable") == 1
        assert m.p_dyn_critical_given_critical == 1.0
        assert m.p_dyn_stable_given_noncritical == 1.0

        produced = sorted(p.name for p in dir_a.rglob("*") if p.is_file())
        assert produced == [
            "combo_100.csv", "combo_98.csv", "matrix.csv",
            "reeval.csv", "screening.csv", "summary.txt",
        ]

        run_pipeline(case118, cfg, run_dir=dir_b)
        diff = subprocess.run(
            ["diff", "-r", str(dir_a), str(dir_b)], capture_output=True
        )
        assert diff.returncode == 0, diff.stdout

    def test_summary_mentions_critical_combination(self, case118, tmp_path):
        cfg = PipelineConfig(
            k_max=1,
            seed=0,
            subset=(99, 100, 101),
            policy=DynPolicy(noncritical_fraction=0.0, min_noncritical=0),
        )
        report = run_pipeline(case118, cfg, run_dir=tmp_path)
        text = (tmp_path / "summary.txt").read_text()
        assert "steady-critical combinations: 1" in text
        assert "100: diverged" in text
        assert "100: islanded_mixed" in text
        assert [(str(c), o) for c, o in report.verified] == [("100", "islanded_mixed")]

    def test_canonical_run_that_raises_is_reported_failed(self, tmp_path, monkeypatch):
        """A combination whose canonical dynamics run raises is listed as
        failed with its detail, gets no dynamic verdict, and the summary
        carries its error line."""
        case = two_machine_case()
        broken = OutageCombination((2,))
        opened = [OutageAction.open_branch(a, b) for a, b in combination_branch_set(case, broken)]
        inner = pipeline.run_scenario

        def run_scenario(case, schedule, *args, **kwargs):
            if [action for _, action in schedule] == opened:
                raise RuntimeError("solver blew up")
            return inner(case, schedule, *args, **kwargs)

        monkeypatch.setattr(pipeline, "run_scenario", run_scenario)
        cfg = PipelineConfig(k_max=1, policy=DynPolicy(noncritical_fraction=1.0))
        report = run_pipeline(case, cfg, run_dir=tmp_path)

        assert report.failed == ((broken, "solver blew up"),)
        assert [str(c) for c, _ in report.verified] == ["1", "3"]
        m = report.matrix
        assert {r.combination: r.dynamic_verdict for r in m.records}[broken] is None
        assert sum(m.counts.values()) == len(report.verified)
        assert not (tmp_path / "traces" / "combo_2.csv").exists()
        assert "  2: dynamics error: solver blew up\n" in (tmp_path / "summary.txt").read_text()


class TestTraceFiles:
    """Each verified combination's trace file is written as soon as its
    cascade returns, and the report keeps no trace."""

    @pytest.mark.parametrize("strategy", ["single_canonical", "exhaustive"])
    def test_trace_files_match_independent_runs(self, strategy, tmp_path):
        case = two_machine_case()
        cfg = PipelineConfig(
            k_max=1,
            policy=DynPolicy(noncritical_fraction=1.0),
            plan=PermutationPlan(strategy=strategy),
            trace_decimate=3,
        )
        report = run_pipeline(case, cfg, run_dir=tmp_path)
        assert len(report.verified) >= 2
        assert [r.trace for c in report.cascades for r in c.runs] == [None] * sum(
            len(c.runs) for c in report.cascades
        )

        files = sorted(p.name for p in (tmp_path / "traces").iterdir())
        assert files == sorted(
            f"combo_{'-'.join(map(str, c.substations))}.csv" for c, _ in report.verified
        )
        for combo, _ in report.verified:
            actions = [OutageAction.open_branch(a, b)
                       for a, b in combination_branch_set(case, combo)]
            schedule = SwitchingSchedule.evenly_spaced(actions, interval=cfg.plan.interval)
            trace, _ = run_scenario(case, schedule, options=ScenarioOptions(dt=cfg.dt))
            slug = "-".join(map(str, combo.substations))
            written = (tmp_path / "traces" / f"combo_{slug}.csv").read_bytes()
            assert written == trace_to_csv(trace, decimate=3).encode()

    def test_bad_decimation_writes_nothing(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(ValueError, match="trace_decimate"):
            run_pipeline(two_machine_case(), PipelineConfig(trace_decimate=0),
                         run_dir=run_dir)
        assert not run_dir.exists()
