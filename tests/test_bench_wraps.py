"""The benchmark's traced run wraps attributes that must exist, and reads
result attributes that must resolve."""

from __future__ import annotations

import importlib
import runpy

from conftest import REPO_ROOT

from gridimpact import dynamics, pipeline, powerflow, screening
from gridimpact.topology import OutageAction

from toys import two_machine_case


def test_every_traced_call_site_resolves():
    """Each (module, attribute) in gridbench/spans.py WRAPS is still a
    callable on the package, so a refactor that drops a traced call site
    fails here instead of in ``gridbench/run.py --trace 1``."""
    # run_path compiles the file in memory: nothing is written next to it
    wraps = runpy.run_path(str(REPO_ROOT / "gridbench" / "spans.py"))["WRAPS"]
    missing = [
        f"gridimpact.{module}.{attr}"
        for module, attr, _span in wraps
        if not callable(getattr(importlib.import_module(f"gridimpact.{module}"), attr, None))
    ]
    assert missing == []


def test_every_result_attribute_the_bench_reads_resolves():
    """The result attributes that gridbench/ reads (spans.py's per-call
    info, the workloads' checks, freeze.py) resolve on real results, so a
    record refactor that drops one fails here instead of in
    ``gridbench/repeat_check.py``."""
    case = two_machine_case()
    run = screening.run_screening(case, k_max=1, workers=1)
    solution, _ = powerflow.solve_islands(case)
    schedule = dynamics.SwitchingSchedule(((0.1, OutageAction.open_branch(1, 2)),))
    trace, verdict = dynamics.run_scenario(
        case, schedule, options=dynamics.ScenarioOptions(t_end=0.2))
    report = pipeline.run_pipeline(case, pipeline.PipelineConfig(
        policy=pipeline.DynPolicy(noncritical_fraction=0.0, min_noncritical=0)))
    read = [
        (report, ("failed",)),
        (run, ("evaluations", "pruned", "levels")),
        (run.levels[0], ("results",)),
        (run.levels[0].results[0], ("combination",)),
        (trace, ("times", "events")),
        (trace.events[0], ("time", "action", "status", "cause", "island_count")),
        (verdict, ("overall", "per_island", "time_of_first_violation")),
        (powerflow.solve_newton(case), ("iterations", "converged", "cause")),
        (solution, ("islands",)),
        (solution.islands[0], ("cause",)),
    ]
    missing = [
        f"{type(obj).__name__}.{attr}"
        for obj, attrs in read
        for attr in attrs
        if not hasattr(obj, attr)
    ]
    assert missing == []
