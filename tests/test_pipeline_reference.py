"""The checker of the frozen pipeline references (tests/pipeline_reference.py).

A run directory assembled from a reference's own files must check ``ok``,
and a run that differs in any compared file, or in any trace's row count,
must fail and name what differs: a gate that cannot fail shows nothing.
The frozen files are also checked against each other, since a trace is
written for each dynamically verified combination and for no other.
"""

from __future__ import annotations

import json
import shutil

import pytest

import pipeline_reference as ref


def write_run(run_dir, k_max):
    """A run directory holding the reference of ``k_max``: its screening
    sweep and reports byte for byte, and one trace file per frozen row
    count (a header line plus that many rows)."""
    ref_dir, screening = ref.REFERENCES[k_max]
    run_dir.mkdir()
    shutil.copyfile(screening, run_dir / "screening.csv")
    for name in ref.REPORTS:
        shutil.copyfile(ref_dir / name, run_dir / name)
    (run_dir / "traces").mkdir()
    for path, rows in frozen_rows(k_max).items():
        (run_dir / path).write_text("t\n" + "0\n" * rows)
    return run_dir


def frozen_rows(k_max):
    ref_dir, _ = ref.REFERENCES[k_max]
    return json.loads((ref_dir / ref.TRACE_ROWS).read_text())


def verified(k_max):
    """The combinations listed under ``dynamically verified`` in the
    frozen summary, and the count that heads the list."""
    ref_dir, _ = ref.REFERENCES[k_max]
    lines = iter((ref_dir / "summary.txt").read_text().splitlines())
    for line in lines:
        if line.startswith("dynamically verified: "):
            count = int(line.split(": ")[1])
            break
    combos = []
    for line in lines:
        if not line.startswith("  "):
            break
        combos.append(line.strip().split(":")[0])
    return count, combos


@pytest.mark.parametrize("k_max", [1, 2])
def test_a_run_holding_the_reference_checks_ok(k_max, tmp_path, capsys):
    run = write_run(tmp_path / "run", k_max)
    assert ref.check(run) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "screening.csv: same",
        "matrix.csv: same",
        "reeval.csv: same",
        "summary.txt: same",
        f"traces: {len(frozen_rows(k_max))} files, row counts same",
        "ok",
    ]


@pytest.mark.parametrize("name", ["screening.csv", *ref.REPORTS])
def test_a_changed_file_fails_and_is_named(name, tmp_path, capsys):
    run = write_run(tmp_path / "run", 1)
    with (run / name).open("a") as f:
        f.write("\n")
    assert ref.check(run) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"{name}: DIFFERS" in out
    assert sum(line.endswith("DIFFERS") for line in out) == 1
    assert out[-1] == "FAIL"


@pytest.mark.parametrize("change", ["one_row_fewer", "missing_file", "extra_file"])
def test_a_changed_trace_fails(change, tmp_path, capsys):
    run = write_run(tmp_path / "run", 1)
    trace = run / "traces" / "combo_100.csv"
    if change == "one_row_fewer":
        trace.write_text("t\n" + "0\n" * (frozen_rows(1)["traces/combo_100.csv"] - 1))
    elif change == "missing_file":
        trace.unlink()
    else:
        (run / "traces" / "combo_7.csv").write_text("t\n0\n")
    assert ref.check(run) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["traces: 7 files, row counts DIFFER", "FAIL"]
    assert not any(line.endswith("DIFFERS") for line in out)


@pytest.mark.parametrize("k_max", [1, 2])
def test_frozen_traces_are_the_verified_combinations(k_max):
    count, combos = verified(k_max)
    assert count == len(combos) == {1: 7, 2: 539}[k_max]
    paths = {f"traces/combo_{c.replace('+', '-')}.csv" for c in combos}
    assert set(frozen_rows(k_max)) == paths


def test_a_level_without_a_reference_is_refused(tmp_path):
    run = write_run(tmp_path / "run", 1)
    summary = run / "summary.txt"
    summary.write_text(summary.read_text().replace("k_max=1 ", "k_max=3 "))
    with pytest.raises(SystemExit, match="no reference for k_max=3"):
        ref.check(run)


def test_freeze_writes_what_check_then_accepts(tmp_path, monkeypatch, capsys):
    run = write_run(tmp_path / "run", 1)
    screening = ref.REFERENCES[1][1]
    monkeypatch.setitem(ref.REFERENCES, 1, (tmp_path / "frozen", screening))
    assert ref.freeze(run) == 0
    for name in ref.REPORTS:
        assert (tmp_path / "frozen" / name).read_bytes() == (run / name).read_bytes()
    assert json.loads((tmp_path / "frozen" / ref.TRACE_ROWS).read_text()) == frozen_rows(1)
    capsys.readouterr()
    assert ref.check(run) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ok"


def test_freeze_refuses_a_changed_screening_and_writes_nothing(tmp_path, monkeypatch):
    run = write_run(tmp_path / "run", 1)
    (run / "screening.csv").write_text("combination\n")
    monkeypatch.setitem(ref.REFERENCES, 1, (tmp_path / "frozen", ref.REFERENCES[1][1]))
    assert ref.freeze(run) == 1
    assert not (tmp_path / "frozen").exists()


@pytest.mark.parametrize("argv", [[], ["--check"], ["--freeze"], ["a", "b"]])
def test_usage_is_printed_for_other_arguments(argv, capsys):
    assert ref.main(argv) == 2
    assert "--check RUN" in capsys.readouterr().out
