"""Freeze the correctness reference in gridbench/reference/ from the current code.

    python3 gridbench/freeze.py [STEP ...]

With no STEP every step runs, in order; a STEP is the name of one of the
``freeze_*`` functions below.

Run it only on code whose outputs are known to be right: every later
benchmark run is checked against what it writes.  The slow part is the
full k=2 sweep over all 118 substations (6,786 solves, run twice: pooled
for the report rows, then serially and traced for each solve's Newton
work).
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridimpact import dynamics, model, screening  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

REF = wl.REFERENCE


def write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def freeze_full_k2(ctx: wl.Context) -> None:
    """Every k=2 row of all 118 substations, and each solve's Newton work."""
    full = screening.run_screening(ctx.case, k_max=2, workers=wl.pipeline_workers())
    (REF / "screen_k2_all.csv").write_text(screening.screening_report_csv(full))

    tracer = spans.Tracer()
    tracer.install()
    work = {}
    try:
        for r in (r for level in full.levels for r in level.results):
            if r.critical_by is not None:
                continue  # pruned: never solved
            tracer.spans.clear()
            screening.screen_combination(ctx.case, r.combination)
            newton = [s.info for s in tracer.spans if s.name == "powerflow.solve_newton"]
            work[str(r.combination)] = sum(i["iters"] for i in newton) + len(newton)
    finally:
        tracer.remove()
    write_json(wl.SCREEN_WORK, work)


def freeze_screen_k2_order(ctx: wl.Context) -> None:
    """The default seed's screen-k2 report, row order included."""
    ctx.inputs = wl.screen_subset(ctx)
    run = wl.run_screen_k2(ctx, 0)
    (REF / f"screen_k2_seed{ctx.seed}.csv").write_text(screening.screening_report_csv(run))


def freeze_seed_free(ctx: wl.Context) -> None:
    """The scenario verdicts and the pipeline reports, which no seed changes."""
    ctx.inputs = wl.WORKLOADS["scenarios"].inputs(ctx)
    write_json(REF / "scenarios.json", {
        name: wl.scenario_summary(*result)
        for name, (result, _seconds) in wl.run_scenarios(ctx, 0).items()
    })

    _report, run_dir = wl.run_pipeline_k1(ctx, 0)
    files = wl.run_dir_files(run_dir)
    wl.PIPELINE_REFERENCE.mkdir(exist_ok=True)
    for name in ("screening.csv", "matrix.csv", "reeval.csv", "summary.txt"):
        (wl.PIPELINE_REFERENCE / name).write_bytes(files[name])
    write_json(wl.PIPELINE_REFERENCE / "trace_rows.json", wl.trace_rows(files))
    shutil.rmtree(run_dir)


def main() -> int:
    REF.mkdir(exist_ok=True)
    case = model.load_case(wl.CASE_PATH)
    scratch = wl.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        ctx = wl.Context(case, dynamics.default_machine_models(case), wl.DEFAULT_SEED,
                         Path(tmp))
        steps = (freeze_full_k2, freeze_screen_k2_order, freeze_seed_free)
        chosen = sys.argv[1:] or [step.__name__ for step in steps]
        for step in steps:
            if step.__name__ in chosen:
                step(ctx)
                print(f"{step.__name__} done", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
