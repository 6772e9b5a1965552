"""The benchmark's workloads: inputs made from a seed, one pass, and its checks.

Every pass calls the program through module attributes
(``screening.run_screening``, not a name imported from it), so that the
traced run's wrappers see the same calls.  Each check compares a pass's
output with the reference frozen in ``reference/`` by ``freeze.py`` and
returns the mismatches it found and the checks it had to skip.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from gridimpact import dynamics, pipeline, screening

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CASE_PATH = ROOT / "src" / "gridimpact" / "data" / "ieee118.grid"
REFERENCE = BENCH_DIR / "reference"

DEFAULT_SEED = 42
# 12 substations make 67 solves, about 2 s, so that the median pass time of
# a run is taken over a score of passes.
SCREEN_SUBSET_SIZE = 12
# Substation 100 feeds the 103..112 pocket: it is the one level-1 critical
# substation, so keeping it in the subset makes containment pruning fire and
# some level-2 Newton solves diverge.
POCKET_FEEDER = 100
# Substation 69 holds the slack bus. Its pairs diverge more often than any
# other's but 100's (31 of 117), so with it in the subset most draws hold
# a pair whose Newton solve diverges.
SLACK_SUBSTATION = 69
# Seeded subsets are redrawn until their work, as counted when the reference
# was frozen, is within this share of the default seed's, so that the seed
# changes which combinations run but hardly how long a pass takes.
WORK_TOLERANCE = 0.01
SCREEN_WORK = REFERENCE / "screen_k2_work.json"
SCENARIO_DT = 0.01
# No sample of non-critical combinations: only the one steady-critical
# combination (100) is verified dynamically, not seven combinations, so
# that a pass takes about 10 s and the median pass time of a run is taken
# over several passes.  The sample is all the configuration seed chooses,
# so the seed changes nothing in this workload.
PIPELINE_POLICY = pipeline.DynPolicy(noncritical_fraction=0.0, min_noncritical=0)
PIPELINE_REFERENCE = REFERENCE / "pipeline_k1"
SCHEDULES = {
    "case1": ROOT / "scripts" / "case1_schedule.txt",
    "case2": ROOT / "scripts" / "case2_schedule.txt",
}


@dataclass
class Context:
    """What every pass of one run shares."""

    case: object
    models: tuple
    seed: int
    scratch: Path  # emptied after every pass
    inputs: object = None  # the workload's inputs, made once from the seed


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[Context], object]
    run: Callable[[Context, int], object]  # (context, pass index) -> output
    check: Callable[[Context, object], tuple[list[str], list[str]]]
    # Further values measured by a pass: name -> (value, unit).
    extras: Callable[[object], dict[str, tuple[float, str]]] = lambda _output: {}


# --- screen-k2 ----------------------------------------------------------------


def screen_subset(ctx: Context) -> list[int]:
    """Seeded draw of SCREEN_SUBSET_SIZE substations that always holds 100 and 69.

    A draw's work is the Newton iterations plus solves of its unpruned
    combinations; draws are repeated until it is within WORK_TOLERANCE of
    the default seed's first draw.
    """
    work = json.loads(SCREEN_WORK.read_text())
    pinned = [POCKET_FEEDER, SLACK_SUBSTATION]
    others = sorted(s.id for s in ctx.case.substations if s.id not in pinned)

    def draw(rng: random.Random) -> list[int]:
        return sorted(rng.sample(others, SCREEN_SUBSET_SIZE - len(pinned)) + pinned)

    def work_of(subset: list[int]) -> int:
        singles = sum(work[str(s)] for s in subset)
        pairs = sum(work[f"{a}+{b}"] for a, b in itertools.combinations(subset, 2)
                    if POCKET_FEEDER not in (a, b))
        return singles + pairs

    target = work_of(draw(random.Random(DEFAULT_SEED)))
    rng = random.Random(ctx.seed)
    while True:
        subset = draw(rng)
        if abs(work_of(subset) / target - 1.0) <= WORK_TOLERANCE:
            return subset


def run_screen_k2(ctx: Context, _pass: int):
    return screening.run_screening(ctx.case, k_max=2, subset=ctx.inputs, workers=1)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_screen_k2(ctx: Context, run) -> tuple[list[str], list[str]]:
    text = screening.screening_report_csv(run)
    bad: list[str] = []
    skipped: list[str] = []
    # screen_combination is a function of the case and the combination alone,
    # and the only level-1 critical substation (100) is in every subset, so a
    # row of any subset's sweep equals that combination's row in the full
    # 118-substation k=2 sweep.
    full = {
        (r[0], r[1]): r
        for r in _csv_rows((REFERENCE / "screen_k2_all.csv").read_text())[1:]
    }
    rows = _csv_rows(text)[1:]
    n = SCREEN_SUBSET_SIZE
    if len(rows) != n + n * (n - 1) // 2:
        bad.append(f"screen-k2: {len(rows)} rows, expected {n + n * (n - 1) // 2}")
    for r in rows:
        want = full.get((r[0], r[1]))
        if r != want:
            bad.append(f"screen-k2: row {r} != reference {want}")
    pruned = sum(1 for r in rows if r[7])
    if (run.evaluations, run.pruned) != (len(rows) - pruned, pruned):
        bad.append(
            f"screen-k2: evaluations/pruned {run.evaluations}/{run.pruned}, "
            f"rows say {len(rows) - pruned}/{pruned}"
        )
    ordered = REFERENCE / f"screen_k2_seed{ctx.seed}.csv"
    if ordered.exists():
        if text != ordered.read_text():
            bad.append(f"screen-k2: report differs from {ordered.name} (row order)")
    else:
        skipped.append(f"screen-k2 row order: no reference for seed {ctx.seed}")
    return bad, skipped


# --- scenarios ---------------------------------------------------------------


def scenario_summary(trace, verdict) -> dict:
    """The parts of a scenario's result that the reference pins."""
    return {
        "overall": verdict.overall,
        "per_island": {str(k): v for k, v in sorted(verdict.per_island.items())},
        "time_of_first_violation": verdict.time_of_first_violation,
        "events": [
            [ev.time, str(ev.action), ev.status, ev.cause, ev.island_count]
            for ev in trace.events
        ],
    }


def run_scenarios(ctx: Context, _pass: int) -> dict:
    """Each scripted scenario in turn: name -> ((trace, verdict), seconds)."""
    out = {}
    for name, schedule in ctx.inputs.items():
        start = perf_counter()
        result = dynamics.run_scenario(
            ctx.case, schedule, ctx.models, dynamics.ScenarioOptions(dt=SCENARIO_DT)
        )
        out[name] = (result, perf_counter() - start)
    return out


def check_scenarios(ctx: Context, out) -> tuple[list[str], list[str]]:
    reference = json.loads((REFERENCE / "scenarios.json").read_text())
    bad = []
    for name, (result, _seconds) in out.items():
        got, want = scenario_summary(*result), reference[name]
        bad += [
            f"{name}: {key} {got[key]!r} != reference {want[key]!r}"
            for key in ("overall", "per_island", "events")
            if got[key] != want[key]
        ]
        t_got, t_want = got["time_of_first_violation"], want["time_of_first_violation"]
        if (t_got is None) != (t_want is None) or (
            t_got is not None and abs(t_got - t_want) > SCENARIO_DT * (1 + 1e-9)
        ):
            bad.append(
                f"{name}: time_of_first_violation {t_got} not within one dt of {t_want}"
            )
    return bad, []


# --- pipeline-k1 --------------------------------------------------------------


def pipeline_workers() -> int:
    return min(2, os.cpu_count() or 1)


def run_pipeline_k1(ctx: Context, pass_index: int):
    run_dir = ctx.scratch / f"pipeline-{pass_index}"
    config = pipeline.PipelineConfig(
        k_max=1, seed=ctx.seed, policy=PIPELINE_POLICY, workers=pipeline_workers()
    )
    return pipeline.run_pipeline(ctx.case, config, run_dir=run_dir), run_dir


def run_dir_files(run_dir: Path) -> dict[str, bytes]:
    return {
        p.relative_to(run_dir).as_posix(): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


def trace_rows(files: dict[str, bytes]) -> dict[str, int]:
    """Data rows (header excluded) of each traces/*.csv file."""
    return {
        name: data.count(b"\n") - 1
        for name, data in files.items()
        if name.startswith("traces/")
    }


def check_pipeline_k1(ctx: Context, out) -> tuple[list[str], list[str]]:
    report, run_dir = out
    files = run_dir_files(run_dir)
    bad = [f"pipeline-k1: dynamics of {combo} raised: {detail}"
           for combo, detail in report.failed]
    for name in ("screening.csv", "matrix.csv", "reeval.csv", "summary.txt"):
        if files.get(name) != (PIPELINE_REFERENCE / name).read_bytes():
            bad.append(f"pipeline-k1: {name} differs from the reference")
    if trace_rows(files) != json.loads((PIPELINE_REFERENCE / "trace_rows.json").read_text()):
        bad.append("pipeline-k1: trace files or row counts differ from the reference")
    return bad, []


WORKLOADS = {
    "screen-k2": Workload(screen_subset, run_screen_k2, check_screen_k2),
    # The scripted schedules are the inputs whatever the seed.
    "scenarios": Workload(
        lambda _ctx: {name: dynamics.load_schedule(path) for name, path in SCHEDULES.items()},
        run_scenarios,
        check_scenarios,
        lambda out: {f"scenario_{name}_s": (seconds, "s") for name, (_, seconds) in out.items()},
    ),
    "pipeline-k1": Workload(
        lambda _ctx: None,
        run_pipeline_k1,
        check_pipeline_k1,
        lambda out: {"pipeline.bytes_written": (
            sum(len(data) for data in run_dir_files(out[1]).values()), "B")},
    ),
}
