"""Cross-classification, cascade runs, re-evaluation."""

from __future__ import annotations

import multiprocessing
import os
import re
import subprocess
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from functools import partial, wraps

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridimpact import dynamics, pipeline
from gridimpact.dynamics import (
    ScenarioOptions,
    SwitchingSchedule,
    run_scenario,
    trace_to_csv,
)
from gridimpact.model import Branch, Bus, Substation, _substation_id, loads_case
from gridimpact.pipeline import (
    CascadeRun,
    DynPolicy,
    PipelineConfig,
    ReEvaluationRecord,
    cascade_confirm,
    combination_branch_set,
    cross_check,
    matrix_csv,
    re_evaluate,
    reeval_csv,
    run_pipeline,
)
from gridimpact.screening import (
    OutageCombination,
    ScreeningResult,
    _sub_key,
    run_screening,
    screening_report_csv,
)
from gridimpact.topology import OutageAction

from conftest import REPO_ROOT
from toys import two_bus_case, two_machine_case

SUB_UNIVERSE = (80, 92, 94, 95, 96, 98, 99, 100, 101, 102)


def _spy_trace_every(monkeypatch):
    """Records the ``trace_every`` of each run_scenario call the pipeline
    makes, in call order."""
    seen = []
    inner = pipeline.run_scenario

    def run_scenario(*args, trace_every, **kwargs):
        seen.append(trace_every)
        return inner(*args, trace_every=trace_every, **kwargs)

    monkeypatch.setattr(pipeline, "run_scenario", run_scenario)
    return seen


def _screened(subs, verdict):
    return ScreeningResult(
        combination=OutageCombination(subs),
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

    @pytest.mark.parametrize("overall, cell", [
        (None, None),
        ("stable", ("critical", "dyn_stable")),
        ("islanded_mixed", ("critical", "dyn_critical")),
    ])
    def test_disagreement_rule(self, overall, cell):
        """A missing dynamic verdict is counted in no cell; ``stable`` is
        dyn-stable and any other kind dyn-critical, so a steady-critical
        combination that runs ``stable`` is the disagreement."""
        screened = [_screened((1,), "critical"), _screened((2,), "non_critical")]
        m = cross_check(screened, {} if overall is None else {(1,): overall})
        assert (m.total, m.n_critical_steady) == (2, 1)
        assert m.counts == ({} if cell is None else {cell: 1})


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
        """The finding cascade confirmation rests on: islanding the
        deficient machine mid-sequence collapses it, while shedding the
        load first rides through."""
        case = two_machine_case()

        def verdict(order):
            actions = [OutageAction.open_branch(a, b) for a, b in order]
            _, v = run_scenario(case, SwitchingSchedule.evenly_spaced(actions, 5.0))
            return v.overall, v.time_of_first_violation

        overall, t = verdict(((1, 2), (1, 3), (2, 3)))
        assert overall == "islanded_mixed"
        assert t == pytest.approx(7.93, abs=1e-9)
        assert verdict(((1, 3), (2, 3), (1, 2))) == ("stable", None)

    def test_one_canonical_run_from_one_base_state(self, monkeypatch):
        """A confirmation is one run, in sorted branch order, from one base
        power flow."""
        solves = []
        solve = dynamics.solve_newton
        monkeypatch.setattr(dynamics, "solve_newton",
                            lambda *a, **k: solves.append(1) or solve(*a, **k))
        combo = OutageCombination((1, 3))
        run = cascade_confirm(two_machine_case(), combo)
        assert len(solves) == 1
        assert combination_branch_set(two_machine_case(), combo) == ((1, 2), (1, 3), (2, 3))
        assert (run.combination, run.status, run.overall) == (combo, "ok", "islanded_mixed")
        assert run.time_of_first_violation == pytest.approx(7.93, abs=1e-9)
        assert run.trace is None

    def test_failed_base_state_is_an_error_run(self, monkeypatch):
        def no_base(case, models):
            raise ValueError("base-case power flow did not converge")

        monkeypatch.setattr(pipeline, "initial_state", no_base)
        case, combo = two_machine_case(), OutageCombination((1, 3))
        run = cascade_confirm(case, combo)
        assert combination_branch_set(case, combo) == ((1, 2), (1, 3), (2, 3))
        assert (run.combination, run.status, run.overall, run.detail) == (
            combo, "error", None, "base-case power flow did not converge")

    def test_canonical_run_equals_direct_scenario(self):
        case = two_machine_case()
        run = cascade_confirm(case, OutageCombination((3,)))

        actions = [OutageAction.open_branch(1, 3), OutageAction.open_branch(2, 3)]
        schedule = SwitchingSchedule.evenly_spaced(actions, interval=5.0)
        _, direct = run_scenario(case, schedule)
        assert run.overall == direct.overall
        assert run.time_of_first_violation == direct.time_of_first_violation

    def test_kept_trace_leaves_the_outcome_alone(self, monkeypatch):
        """With trace_every set the run records every trace_every-th
        sample and keeps that trace; without it, it records none. The
        outcome is the same either way."""
        seen = _spy_trace_every(monkeypatch)
        case, combo = two_machine_case(), OutageCombination((1, 3))
        kept = cascade_confirm(case, combo, trace_every=4)
        assert seen == [4]
        assert kept.trace is not None
        seen.clear()
        plain = cascade_confirm(case, combo)
        assert seen == [None]
        assert plain.trace is None
        assert kept == plain

    def test_empty_branch_set_recorded_as_error(self, monkeypatch):
        """The error run of an empty branch set needs no base state, so
        none is built."""
        # a combination of nothing in service can only be provoked
        # artificially: here by opening every branch of substation 3
        case = two_machine_case()
        from gridimpact.topology import apply_branch_outages

        builds = []
        inner = pipeline.initial_state

        def initial_state(*args, **kwargs):
            builds.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(pipeline, "initial_state", initial_state)
        cut = apply_branch_outages(case, [(1, 3), (2, 3)])
        run = cascade_confirm(cut, OutageCombination((3,)), trace_every=1)
        assert combination_branch_set(cut, OutageCombination((3,))) == ()
        assert (run.status, run.overall, run.trace) == ("error", None, None)
        assert builds == []
        assert "no in-service branch" in run.detail


class TestReEvaluate:
    def test_agreement_is_rejected(self, case118):
        with pytest.raises(ValueError, match="no disagreement"):
            re_evaluate(case118, OutageCombination((100,)), "critical",
                        "islanded_mixed")

    def test_false_dynamic_alarm_reconciles_on_half_dt(self, case118):
        """A claimed instability for the benign substation-34 outage fails
        rung 1 (the strict re-screen still says non-critical) and is
        resolved by the halved-step rerun coming back stable."""
        rec = re_evaluate(case118, OutageCombination((34,)), "non_critical",
                          "transient_unstable")
        assert rec.kind == "steady_noncritical_dyn_unstable"
        assert rec.resolution == "reconciled"
        assert rec.adjustments == (
            "flat_start_tol_1e-08 -> non_critical",
            "half_dt -> stable",
        )

    def test_missed_steady_critical_reconciles_on_rescreen(self, case118):
        """If screening had called the pocket substation non-critical, the
        strict flat-start re-screen alone recovers the critical verdict."""
        rec = re_evaluate(case118, OutageCombination((100,)), "non_critical",
                          "islanded_mixed")
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

    def test_rung_that_raises_is_recorded_and_the_ladder_goes_on(self, monkeypatch):
        """The half-dt run raises: its rung records the error, reconciles
        nothing, and the 15 s interval rung still runs."""
        inner = pipeline.run_scenario

        def run_scenario(case, schedule, options, state, **kwargs):
            if options.dt == 0.005:
                raise RuntimeError("solver blew up")
            return inner(case, schedule, options=options, state=state, **kwargs)

        monkeypatch.setattr(pipeline, "run_scenario", run_scenario)
        rec = re_evaluate(two_machine_case(), OutageCombination((1, 3)),
                          "non_critical", "islanded_mixed")
        assert rec.adjustments == (
            "flat_start_tol_1e-08 -> non_critical",
            "half_dt -> error: solver blew up",
            "interval_15s -> islanded_mixed",
        )
        assert rec.resolution == "persistent"

    def test_csv_rendering(self, case118):
        rec = re_evaluate(case118, OutageCombination((100,)), "non_critical",
                          "islanded_mixed")
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
            if [action for _, action in schedule.events] == opened:
                raise RuntimeError("solver blew up")
            return inner(case, schedule, *args, **kwargs)

        monkeypatch.setattr(pipeline, "run_scenario", run_scenario)
        cfg = PipelineConfig(k_max=1, policy=DynPolicy(noncritical_fraction=1.0))
        report = run_pipeline(case, cfg, run_dir=tmp_path)

        assert report.failed == ((broken, "solver blew up"),)
        assert [str(c) for c, _ in report.verified] == ["1", "3"]
        m = report.matrix
        assert (m.total, m.n_critical_steady) == (3, 0)
        assert m.counts == {("non_critical", "dyn_critical"): 1,
                            ("non_critical", "dyn_stable"): 1}
        assert sum(m.counts.values()) == len(report.verified)
        assert not (tmp_path / "traces" / "combo_2.csv").exists()
        assert "  2: dynamics error: solver blew up\n" in (tmp_path / "summary.txt").read_text()


class TestRunPipelineErrors:
    def test_failed_rung_still_writes_every_artifact(self, tmp_path, monkeypatch):
        """A disagreement whose half-dt rerun raises is recorded in
        reeval.csv, and the run writes all its reports."""
        inner = pipeline.run_scenario

        def run_scenario(case, schedule, options, state, **kwargs):
            if options.dt == 0.005:
                raise RuntimeError("solver blew up")
            return inner(case, schedule, options=options, state=state, **kwargs)

        monkeypatch.setattr(pipeline, "run_scenario", run_scenario)
        cfg = PipelineConfig(k_max=1, subset=(1,), policy=DynPolicy(noncritical_fraction=1.0))
        report = run_pipeline(two_machine_case(), cfg, run_dir=tmp_path)

        assert [r.adjustments[1] for r in report.reevaluations] == [
            "half_dt -> error: solver blew up"
        ]
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "matrix.csv", "reeval.csv", "screening.csv", "summary.txt",
            "traces", "traces/combo_1.csv",
        ]
        assert "half_dt -> error: solver blew up" in (tmp_path / "reeval.csv").read_text()

    def test_canonical_runs_record_at_the_trace_decimation(self, tmp_path, monkeypatch):
        """With a run directory, each verified combination's canonical run
        records every TRACE_EVERY-th sample and the re-evaluation rungs
        record none; without one, no run records a trace."""
        seen = _spy_trace_every(monkeypatch)
        monkeypatch.setattr(pipeline, "TRACE_EVERY", 7)
        cfg = PipelineConfig(k_max=1, subset=(1,), policy=DynPolicy(noncritical_fraction=1.0))
        report = run_pipeline(two_machine_case(), cfg, run_dir=tmp_path)
        assert len(report.cascades) == 1 and len(report.reevaluations) == 1
        assert seen == [7, None, None]
        seen.clear()
        run_pipeline(two_machine_case(), cfg)
        assert seen == [None, None, None]

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected_before_screening(self, budget, tmp_path,
                                                        monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("screening ran")

        monkeypatch.setattr(pipeline, "_sweep", must_not_run)
        run_dir = tmp_path / "run"
        with pytest.raises(ValueError, match="budget must be at least 1"):
            run_pipeline(two_machine_case(), PipelineConfig(budget=budget), run_dir=run_dir)
        assert not run_dir.exists()

    def test_run_dir_with_files_rejected_before_screening(self, tmp_path, monkeypatch):
        """A second run into one directory would leave the first run's
        traces beside its own reports, so a directory that holds files is
        refused before screening and left as it was; a new directory, as
        the CLI's --out and each benchmark pass give, is accepted."""
        run_dir = tmp_path / "run"
        cfg = PipelineConfig(k_max=1, policy=DynPolicy(noncritical_fraction=1.0))
        run_pipeline(two_machine_case(), cfg, run_dir=run_dir)
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        assert any(p.parent.name == "traces" for p in before)

        def must_not_run(*args, **kwargs):
            raise AssertionError("screening ran")

        monkeypatch.setattr(pipeline, "_sweep", must_not_run)
        again = PipelineConfig(k_max=1, policy=DynPolicy(noncritical_fraction=0.0))
        with pytest.raises(ValueError, match="neither new nor empty"):
            run_pipeline(two_machine_case(), again, run_dir=run_dir)
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before
        with pytest.raises(ValueError, match="neither new nor empty"):
            run_pipeline(two_machine_case(), again, run_dir=run_dir / "summary.txt")

    def test_combination_without_in_service_branch_is_a_dynamics_error(self, tmp_path):
        """A verified combination that opens no branch is recorded as a
        dynamics error, and every report is still written."""
        base = two_bus_case()
        case = replace(
            base,
            buses=(*base.buses, Bus(id=3, kind="PQ", base_kv=138.0)),
            branches=(*base.branches, Branch(from_bus=2, to_bus=3, resistance=0.01,
                                             reactance=0.10, status=False)),
            substations=(*base.substations, Substation(id=3, member_buses=frozenset({3}))),
        )
        cfg = PipelineConfig(k_max=1, subset=(3,), policy=DynPolicy(noncritical_fraction=1.0))
        report = run_pipeline(case, cfg, run_dir=tmp_path)
        assert report.verified == ()
        assert report.failed == (
            (OutageCombination((3,)), "the combination touches no in-service branch"),
        )
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "matrix.csv", "reeval.csv", "screening.csv", "summary.txt", "traces",
        ]
        assert ("  3: dynamics error: the combination touches no in-service branch\n"
                in (tmp_path / "summary.txt").read_text())


class TestTraceFiles:
    """Each verified combination's trace file is written as soon as its
    cascade returns, and the report keeps no trace."""

    def test_trace_files_match_independent_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "TRACE_EVERY", 3)
        case = two_machine_case()
        cfg = PipelineConfig(k_max=1, policy=DynPolicy(noncritical_fraction=1.0))
        report = run_pipeline(case, cfg, run_dir=tmp_path)
        assert len(report.verified) >= 2
        assert [c.trace for c in report.cascades] == [None] * len(report.cascades)

        files = sorted(p.name for p in (tmp_path / "traces").iterdir())
        assert files == sorted(
            f"combo_{'-'.join(map(str, c.substations))}.csv" for c, _ in report.verified
        )
        for combo, _ in report.verified:
            actions = [OutageAction.open_branch(a, b)
                       for a, b in combination_branch_set(case, combo)]
            schedule = SwitchingSchedule.evenly_spaced(actions, pipeline.SWITCH_INTERVAL)
            trace, _ = run_scenario(case, schedule)
            slug = "-".join(map(str, combo.substations))
            written = (tmp_path / "traces" / f"combo_{slug}.csv").read_bytes()
            assert written == trace_to_csv(trace, decimate=3).encode()

    @given(st.lists(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Z", "C")),
                                     min_size=1, max_size=4),
                             min_size=1, max_size=3, unique=True),
                    min_size=1, max_size=8))
    def test_distinct_combinations_get_distinct_file_names(self, token_lists):
        """Over id tokens as a .grid file spells them (an ASCII integer is an
        int id, any other token a name), each slug is one file name of
        ``[A-Za-z0-9_%-]`` and no two combinations share one."""
        combos = {OutageCombination(tuple(sorted({_substation_id(t) for t in tokens},
                                                 key=_sub_key)))
                  for tokens in token_lists}
        slugs = {pipeline._combo_slug(c) for c in combos}
        assert len(slugs) == len(combos)
        assert all(re.fullmatch("[A-Za-z0-9_%-]+", slug) for slug in slugs)

    @pytest.mark.parametrize("name", ["1-2", "x/y"])
    def test_named_substations_get_their_own_files(self, tmp_path, name):
        """A substation named "1-2" shares no file with combination 1+2,
        and one named "x/y" writes no subdirectory: at k=2 on three
        substations, six verified combinations write six trace files
        inside traces/, the same on one worker and on two."""
        text = (REPO_ROOT / "tests" / "data" / "named_substations.grid").read_text()
        case = loads_case(text.replace("\n1-2 3\n", f"\n{name} 3\n"))
        assert {s.id for s in case.substations} == {1, 2, name}
        runs = {}
        for workers in (1, 2):
            run_dir = tmp_path / str(workers)
            cfg = PipelineConfig(k_max=2, policy=DynPolicy(1.0, 0), workers=workers)
            report = run_pipeline(case, cfg, run_dir=run_dir)
            assert not report.failed and len(report.verified) == 6
            files = _files(run_dir)
            assert len([f for f in files if f.startswith("traces/")]) == 6
            assert all(p.parent.name == "traces" for p in (run_dir / "traces").rglob("*"))
            runs[workers] = files
        assert runs[1] == runs[2]


class TestOperatingPoint:
    """Dynamic verification runs at one operating point: its step,
    switching interval, machine models and trace decimation are
    constants that no caller can set."""

    def test_constants(self):
        assert pipeline.TRACE_EVERY == 10  # 0.1 s at the 10 ms step
        assert ScenarioOptions().dt == 0.01
        assert pipeline.SWITCH_INTERVAL == 5.0

    @pytest.mark.parametrize("name, keyword", [
        ("PipelineConfig", "trace_decimate"), ("PipelineConfig", "dt"),
        ("PipelineConfig", "plan"),
        ("cascade_confirm", "models"), ("cascade_confirm", "options"),
        ("cascade_confirm", "plan"),
        ("re_evaluate", "models"), ("re_evaluate", "interval"), ("re_evaluate", "dt"),
        ("run_pipeline", "models"), ("run_screening", "options"),
    ])
    def test_removed_setting_is_refused(self, name, keyword):
        case, combo = two_machine_case(), OutageCombination((1,))
        call = {
            "PipelineConfig": PipelineConfig,
            "cascade_confirm": partial(cascade_confirm, case, combo),
            "re_evaluate": partial(re_evaluate, case, combo, "critical", "stable"),
            "run_pipeline": partial(run_pipeline, case),
            "run_screening": partial(run_screening, case, 1),
        }[name]
        with pytest.raises(TypeError, match=keyword):
            call(**{keyword: None})

    def test_base_state_that_raises_is_a_dynamics_error(self, tmp_path, monkeypatch):
        """When the base state cannot be built, every selected combination
        is reported failed with that error, and every report is still
        written."""
        def no_base(case, models):
            raise ValueError("base-case power flow did not converge")

        monkeypatch.setattr(pipeline, "initial_state", no_base)
        case = two_machine_case()
        cfg = PipelineConfig(k_max=1, policy=DynPolicy(noncritical_fraction=1.0))
        report = run_pipeline(case, cfg, run_dir=tmp_path)
        assert report.verified == ()
        assert report.failed == tuple(
            (OutageCombination((sub,)), "base-case power flow did not converge")
            for sub in (1, 2, 3)
        )
        assert report.matrix.counts == {}
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "matrix.csv", "reeval.csv", "screening.csv", "summary.txt", "traces",
        ]
        summary = (tmp_path / "summary.txt").read_text()
        assert "dynamically verified: 0\n" in summary
        assert "".join(
            f"  {sub}: dynamics error: base-case power flow did not converge\n"
            for sub in (1, 2, 3)
        ) in summary


def test_workers_variable_is_not_read_by_the_library(monkeypatch):
    """GRIDIMPACT_WORKERS is the CLI's: a library run screens on the
    configured worker count whatever the environment holds."""
    seen = []
    runner = pipeline._worker_pool

    def worker_pool(case, workers):
        seen.append(workers)
        return runner(case, workers)

    monkeypatch.setattr(pipeline, "_worker_pool", worker_pool)
    monkeypatch.setenv("GRIDIMPACT_WORKERS", "2")
    run_pipeline(two_machine_case(), PipelineConfig())
    assert seen == [1]


def test_one_worker_starts_no_process(tmp_path, monkeypatch):
    """On one worker the screens, confirmations and ladders all run in
    the calling process, and every report is still written."""
    import concurrent.futures

    def must_not_start(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", must_not_start)
    monkeypatch.setattr(os, "fork", must_not_start)
    case = two_machine_case()
    run = run_screening(case, 1, workers=1)
    cfg = PipelineConfig(k_max=1, workers=1, policy=DynPolicy(noncritical_fraction=1.0))
    report = run_pipeline(case, cfg, run_dir=tmp_path)
    assert report.verified and not report.failed
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == sorted([
        "matrix.csv", "reeval.csv", "screening.csv", "summary.txt", "traces",
        *(f"traces/combo_{combo}.csv" for combo, _ in report.verified),
    ])
    assert (tmp_path / "screening.csv").read_text() == screening_report_csv(run)
    assert multiprocessing.active_children() == []


def _files(run_dir) -> dict[str, bytes]:
    return {p.relative_to(run_dir).as_posix(): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def level1_serial(case118, tmp_path_factory):
    """The level-1 pipeline at the default policy on one worker: its
    report and its run directory."""
    run_dir = tmp_path_factory.mktemp("level1") / "run"
    return run_pipeline(case118, PipelineConfig(k_max=1), run_dir=run_dir), run_dir


class _RecordingPool:
    """A task runner that logs what is queued on it, in order: each
    task's name and first argument, and each screening sweep's
    combinations."""

    def __init__(self, tasks, log):
        self.tasks, self.log, self.processes = tasks, log, tasks.processes

    def later(self, task, *args):
        self.log.append((task.__name__, str(args[0])))
        return self.tasks.later(task, *args)

    def map(self, task, combos):
        self.log.append(("screen", [str(c) for c in combos]))
        return self.tasks.map(task, combos)


class _ReadRecordingPool(_RecordingPool):
    """A ``_RecordingPool`` that also logs each task's result as it is
    read."""

    def later(self, task, *args):
        result = super().later(task, *args)

        def read():
            value = result()
            self.log.append(("read " + task.__name__, str(args[0])))
            return value

        return read


@pytest.mark.parametrize("workers", [
    1, pytest.param(2, marks=pytest.mark.skipif((os.cpu_count() or 1) < 2,
                                                reason="a pool needs two CPUs")),
])
def test_ladders_queued_as_read_and_reported_in_matrix_order(workers, tmp_path, monkeypatch):
    """On the two-machine toy at k=2, stubbed confirmations make the
    steady-non-critical 2 and the steady-critical 1+2 disagree. Selection
    reads 1+2 before 2, so 1+2's ladder is queued first, before the last
    confirmation is read; the report and reeval.csv list the two in
    matrix order, level 1 first."""
    flipped = {OutageCombination((2,)): "islanded_mixed",
               OutageCombination((1, 2)): "stable"}

    def cascade_confirm(case, combination, **kwargs):
        return CascadeRun(combination, "ok", flipped.get(combination, "stable"))

    @wraps(pipeline.re_evaluate)  # a pool task pickles by its module and name
    def re_evaluate(case, combination, steady_verdict, dynamic_verdict):
        return ReEvaluationRecord(combination, steady_verdict, (dynamic_verdict,),
                                  "persistent")

    log = []
    real = pipeline._worker_pool

    @contextmanager
    def recording(case, workers):
        with real(case, workers) as tasks:
            yield _ReadRecordingPool(tasks, log)

    monkeypatch.setattr(pipeline, "cascade_confirm", cascade_confirm)
    monkeypatch.setattr(pipeline, "re_evaluate", re_evaluate)
    monkeypatch.setattr(pipeline, "_worker_pool", recording)
    cfg = PipelineConfig(k_max=2, workers=workers, policy=DynPolicy(noncritical_fraction=1.0))
    report = run_pipeline(two_machine_case(), cfg, run_dir=tmp_path)

    assert [str(c.combination) for c in report.cascades] == [
        "1", "1+2", "1+3", "2", "2+3", "3"]
    assert [entry for entry in log if entry[0] == "re_evaluate"] == [
        ("re_evaluate", "1+2"), ("re_evaluate", "2")]
    last_read = max(i for i, entry in enumerate(log) if entry[0] == "read _confirm")
    assert log.index(("re_evaluate", "1+2")) < last_read
    assert [str(r.combination) for r in report.reevaluations] == ["2", "1+2"]
    assert (tmp_path / "reeval.csv").read_text() == (
        "combination,kind,adjustments,resolution\n"
        "2,non_critical,islanded_mixed,persistent\n"
        "1+2,critical,stable,persistent\n")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs two CPUs")
class TestWorkerPool:
    """With two workers, one pool runs the screening levels, the
    confirmations and the re-evaluation ladders; the run directory is the
    one-worker run's, file by file."""

    def test_two_workers_write_the_one_worker_run(self, case118, level1_serial, tmp_path):
        serial, serial_dir = level1_serial
        assert len(serial.cascades) == 7 and len(serial.reevaluations) == 1
        report = run_pipeline(case118, PipelineConfig(k_max=1, workers=2), run_dir=tmp_path)
        assert multiprocessing.active_children() == []
        assert _files(tmp_path) == _files(serial_dir)
        assert report.cascades == serial.cascades
        assert report.reevaluations == serial.reevaluations

    def test_a_confirmation_that_raises_in_a_worker_is_a_dynamics_error(
            self, case118, level1_serial, tmp_path, monkeypatch):
        serial, _ = level1_serial
        broken = serial.cascades[1].combination
        parent = os.getpid()
        inner = pipeline.cascade_confirm

        def cascade_confirm(case, combination, **kwargs):
            if combination == broken:
                raise RuntimeError(f"injected, in a worker: {os.getpid() != parent}")
            return inner(case, combination, **kwargs)

        monkeypatch.setattr(pipeline, "cascade_confirm", cascade_confirm)
        report = run_pipeline(case118, PipelineConfig(k_max=1, workers=2), run_dir=tmp_path)
        assert multiprocessing.active_children() == []
        assert report.failed == ((broken, "injected, in a worker: True"),)
        assert report.verified == tuple(v for v in serial.verified if v[0] != broken)
        summary = (tmp_path / "summary.txt").read_text()
        assert summary.count("dynamics error:") == 1
        assert f"  {broken}: dynamics error: injected, in a worker: True\n" in summary
        assert len(list((tmp_path / "traces").iterdir())) == 6
        assert not (tmp_path / "traces" / f"combo_{broken}.csv").exists()

    def test_no_worker_outlives_a_run_that_raises(self, case118, monkeypatch):
        """The run raises while substation 100's confirmation, queued ahead
        of the sweep, may still be running."""
        def select(*args):
            raise RuntimeError("selection failed")

        monkeypatch.setattr(pipeline, "_select_for_dynamics", select)
        with pytest.raises(RuntimeError, match="selection failed"):
            run_pipeline(case118, PipelineConfig(k_max=1, workers=2))
        assert multiprocessing.active_children() == []

    def test_confirmations_start_as_soon_as_their_selection_is_known(
            self, case118, tmp_path, monkeypatch):
        """Substation 100, critical from its islands alone, is confirmed
        ahead of the level-1 sweep, 99+100, pruned by containment, ahead
        of the level-2 sweep, and the one non-critical sample after the
        last level; the run equals the one-worker run."""
        log = []
        real = pipeline._worker_pool

        @contextmanager
        def recording(case, workers):
            with real(case, workers) as tasks:
                yield _RecordingPool(tasks, log)

        monkeypatch.setattr(pipeline, "_worker_pool", recording)
        cfg = PipelineConfig(k_max=2, subset=(99, 100),
                             policy=DynPolicy(noncritical_fraction=0.0, min_noncritical=1))
        report = run_pipeline(case118, replace(cfg, workers=2), run_dir=tmp_path / "pool")
        assert log == [
            ("_confirm", "100"), ("screen", ["99", "100"]),
            ("_confirm", "99+100"), ("screen", []),
            ("_confirm", "99"),
        ]
        serial = run_pipeline(case118, cfg, run_dir=tmp_path / "serial")
        assert [str(c.combination) for c in report.cascades] == ["99", "99+100", "100"]
        assert report.reevaluations == serial.reevaluations == ()
        assert _files(tmp_path / "pool") == _files(tmp_path / "serial")
