"""Command-line entry points, exercised through main()."""

from __future__ import annotations

from pathlib import Path

import pytest

import numpy as np

from gridimpact import cli, dynamics
from gridimpact.cli import main
from gridimpact.model import dumps_case, load_case

REPO_ROOT = Path(__file__).resolve().parents[1]
CASE_PATH = str(REPO_ROOT / "src" / "gridimpact" / "data" / "ieee118.grid")


@pytest.fixture()
def toy_case_file(tmp_path):
    from toys import two_machine_case

    path = tmp_path / "toy.grid"
    path.write_text(dumps_case(two_machine_case()))
    return str(path)


class TestLoad:
    def test_non_finite_number_is_an_error(self, tmp_path, capsys):
        from toys import two_bus_case

        path = tmp_path / "nan.grid"
        path.write_text(dumps_case(two_bus_case()).replace("1 2 0.01 ", "1 2 nan "))
        assert main(["load", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gridimpact: error: line 10: expected a finite number, got 'nan'\n")

    def test_prints_summary(self, capsys):
        assert main(["load", CASE_PATH]) == 0
        out = capsys.readouterr().out
        assert "buses:        118" in out
        assert "branches:     186 (177 lines + 9 transformers)" in out
        assert "generators:   19" in out
        assert "condensers:   35" in out
        assert "substations:  118" in out


class TestScreen:
    def test_stdout_csv(self, toy_case_file, capsys):
        assert main(["screen", toy_case_file]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("level,substations,verdict")
        assert len(lines) == 1 + 3  # three single-substation combinations

    def test_out_file(self, toy_case_file, tmp_path, capsys):
        out_csv = tmp_path / "screen.csv"
        assert main(["screen", toy_case_file, "--out", str(out_csv)]) == 0
        assert out_csv.is_file()
        note = capsys.readouterr().out
        assert "3 evaluations" in note


    def test_zero_budget_screens_nothing(self, toy_case_file, capsys):
        assert main(["screen", toy_case_file, "--budget", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "level,substations,verdict,reason,islands,unserved_mw,violations,critical_by"
        ]


@pytest.mark.parametrize("command, option, value", [
    ("screen", "--k", "0"),
    ("screen", "--k", "two"),
    ("screen", "--budget", "-3"),
    ("pipeline", "--k", "-1"),
    ("pipeline", "--budget", "-1"),
    ("pipeline", "--sample-fraction", "1.5"),
    ("pipeline", "--sample-fraction", "-0.1"),
    ("pipeline", "--sample-fraction", "nan"),
])
def test_bad_values_rejected_before_the_case_loads(command, option, value, tmp_path,
                                                   capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the case was loaded")

    monkeypatch.setattr(cli, "load_case", must_not_run)
    argv = [command, CASE_PATH, option, value]
    if command == "pipeline":
        argv += ["--out", str(tmp_path / "run")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_pipeline_zero_budget_rejected_before_the_case_loads(tmp_path, capsys,
                                                           monkeypatch):
    """A pipeline must screen something to cross-check, so --budget 0 is
    refused, while screen --budget 0 prints a header-only CSV."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("the case was loaded")

    monkeypatch.setattr(cli, "load_case", must_not_run)
    run_dir = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", CASE_PATH, "--budget", "0", "--out", str(run_dir)])
    assert exc.value.code == 2
    assert "--budget: must be at least 1, got 0" in capsys.readouterr().err
    assert not run_dir.exists()


class TestSimulate:
    def test_scenario_run_with_trace(self, toy_case_file, tmp_path, capsys):
        scenario = tmp_path / "split.txt"
        scenario.write_text("1.0 open_branch 1 2\n1.01 open_branch 1 3\n")
        trace_csv = tmp_path / "trace.csv"
        rc = main(
            [
                "simulate", toy_case_file, str(scenario),
                "--t-end", "10", "--trace", str(trace_csv), "--decimate", "10",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall: islanded_mixed" in out
        assert "island 1: stable" in out
        assert "island 2: frequency_unstable" in out
        assert "t=1s open_branch 1-2: executed" in out
        header = trace_csv.read_text().splitlines()[0]
        assert header.startswith("time,ang_1,ang_2")

    def test_island_counts_and_frequency_extremes(self, toy_case_file, tmp_path,
                                                  capsys):
        scenario = tmp_path / "split.txt"
        scenario.write_text("1.0 open_branch 1 2\n1.01 open_branch 1 3\n")
        assert main(["simulate", toy_case_file, str(scenario), "--t-end", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()

        trace, _ = dynamics.run_scenario(
            load_case(toy_case_file), dynamics.load_schedule(scenario),
            options=dynamics.ScenarioOptions(t_end=10.0),
        )
        extremes = [
            f"  island {key}: min={np.nanmin(f):.2f} Hz max={np.nanmax(f):.2f} Hz"
            for key, f in sorted(trace.island_freq.items())
        ]
        assert lines[-5:] == [
            "  t=1s open_branch 1-2: executed [islands: 1]",
            "  t=1.01s open_branch 1-3: executed [islands: 2]",
            "island frequency extremes:",
            *extremes,
        ]
        assert extremes[1].startswith("  island 2: min=56.")

    @pytest.mark.parametrize("decimate", ["0", "-3", "two"])
    def test_bad_decimate_rejected_before_the_run(self, decimate, toy_case_file,
                                                  tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the scenario ran")

        monkeypatch.setattr(cli, "load_case", must_not_run)
        monkeypatch.setattr(dynamics, "run_scenario", must_not_run)
        scenario = tmp_path / "split.txt"
        scenario.write_text("1.0 open_branch 1 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", toy_case_file, str(scenario),
                  "--trace", str(tmp_path / "trace.csv"), "--decimate", decimate])
        assert exc.value.code == 2
        assert "--decimate" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_decimate_without_trace_rejected_before_the_run(self, toy_case_file,
                                                           tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the scenario ran")

        monkeypatch.setattr(cli, "load_case", must_not_run)
        monkeypatch.setattr(dynamics, "run_scenario", must_not_run)
        scenario = tmp_path / "split.txt"
        scenario.write_text("1.0 open_branch 1 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", toy_case_file, str(scenario), "--decimate", "10"])
        assert exc.value.code == 2
        assert "--decimate needs --trace" in capsys.readouterr().err


    @pytest.mark.parametrize("events, options", [
        ("inf open_branch 1 2\n", []),
        ("nan open_branch 1 2\n", []),
        ("1.0 open_branch 1 2\n", ["--t-end", "inf"]),
        ("1.0 open_branch 1 2\n", ["--t-end", "nan"]),
        ("1.0 open_branch 1 2\n", ["--dt", "nan"]),
        ("1.0 open_branch a 2\n", []),
    ])
    def test_non_finite_times_and_bad_ids_are_errors(self, events, options, toy_case_file,
                                                     tmp_path, capsys):
        scenario = tmp_path / "bad.txt"
        scenario.write_text(events)
        assert main(["simulate", toy_case_file, str(scenario), *options]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gridimpact: error: ")


class TestPipelineAndReport:
    def test_round_trip(self, toy_case_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["pipeline", toy_case_file, "--out", str(run_dir)]) == 0
        first = capsys.readouterr().out
        assert "screened 3 combinations" in first
        assert (run_dir / "summary.txt").is_file()

        assert main(["report", str(run_dir)]) == 0
        text = capsys.readouterr().out
        assert text.startswith("case: 3 buses")

        assert main(["report", str(run_dir), "--format", "csv"]) == 0
        csv_text = capsys.readouterr().out
        assert csv_text.splitlines()[0] == "name,value"

        # a second run into the same directory is refused
        assert main(["pipeline", toy_case_file, "--out", str(run_dir)]) == 1
        assert "neither new nor empty" in capsys.readouterr().err

    def test_report_missing_artifact(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "no summary.txt" in err


class TestWorkersVariable:
    """The CLI is the only reader of GRIDIMPACT_WORKERS."""

    def test_screen_and_pipeline_pass_it(self, toy_case_file, tmp_path, monkeypatch,
                                         capsys):
        from gridimpact import pipeline, screening

        seen = []
        sweep, run = screening.run_screening, pipeline.run_pipeline

        def run_screening(*args, workers, **kwargs):
            seen.append(("screen", workers))
            return sweep(*args, workers=workers, **kwargs)

        def run_pipeline(case, config, **kwargs):
            seen.append(("pipeline", config.workers))
            return run(case, config, **kwargs)

        monkeypatch.setattr(screening, "run_screening", run_screening)
        monkeypatch.setattr(pipeline, "run_pipeline", run_pipeline)
        monkeypatch.setenv("GRIDIMPACT_WORKERS", "2")
        assert main(["screen", toy_case_file]) == 0
        assert main(["pipeline", toy_case_file, "--out", str(tmp_path / "run")]) == 0
        assert seen == [("screen", 2), ("pipeline", 2)]

    @pytest.mark.parametrize("value", ["two", "0", "-3"])
    @pytest.mark.parametrize("command", ["screen", "pipeline"])
    def test_malformed_value_is_an_error_before_the_case_loads(
            self, command, value, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the case was loaded")

        monkeypatch.setattr(cli, "load_case", must_not_run)
        monkeypatch.setenv("GRIDIMPACT_WORKERS", value)
        out = tmp_path / ("x.csv" if command == "screen" else "run")
        assert main([command, CASE_PATH, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gridimpact: error: GRIDIMPACT_WORKERS: ")
        assert not out.exists()

    def test_load_ignores_it(self, monkeypatch, capsys):
        monkeypatch.setenv("GRIDIMPACT_WORKERS", "two")
        assert main(["load", CASE_PATH]) == 0
        assert "buses:        118" in capsys.readouterr().out


class _Reached(Exception):
    """Raised by a spy in place of the library call it records."""


class TestLibraryDefaults:
    """An option left out passes nothing: the library's default applies."""

    @pytest.fixture()
    def scenario(self, tmp_path):
        path = tmp_path / "split.txt"
        path.write_text("1.0 open_branch 1 2\n")
        return str(path)

    def _spy(self, monkeypatch, module, name):
        seen = []

        def spy(*args, **kwargs):
            seen.append(args)
            raise _Reached

        monkeypatch.setattr(module, name, spy)
        return seen

    @pytest.mark.parametrize("options, expected", [
        ([], dynamics.ScenarioOptions()),
        (["--dt", "0.005", "--t-end", "3"], dynamics.ScenarioOptions(dt=0.005, t_end=3.0)),
    ])
    def test_simulate(self, options, expected, toy_case_file, scenario, monkeypatch):
        seen = self._spy(monkeypatch, dynamics, "run_scenario")
        with pytest.raises(_Reached):
            main(["simulate", toy_case_file, scenario, *options])
        assert seen[0][3] == expected

    def test_pipeline(self, toy_case_file, tmp_path, monkeypatch):
        from gridimpact import pipeline

        monkeypatch.delenv("GRIDIMPACT_WORKERS", raising=False)
        seen = self._spy(monkeypatch, pipeline, "run_pipeline")
        run_dir = str(tmp_path / "run")
        with pytest.raises(_Reached):
            main(["pipeline", toy_case_file, "--out", run_dir])
        with pytest.raises(_Reached):
            main(["pipeline", toy_case_file, "--out", run_dir, "--k", "2", "--seed", "7",
                  "--budget", "3", "--sample-fraction", "0.5"])
        assert [config for _, config in seen] == [
            pipeline.PipelineConfig(),
            pipeline.PipelineConfig(k_max=2, seed=7, budget=3,
                                    policy=pipeline.DynPolicy(noncritical_fraction=0.5)),
        ]
