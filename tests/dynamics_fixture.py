"""Frozen dynamic-simulation outcomes on the 118-bus case, for differential tests.

Covers four scenarios with the default machine models: the case-1 and
case-2 scripted schedules, the canonical (sorted-endpoint, 5 s) schedule
of combination 100 that the pipeline verifies, and the single 17-113
opening at 1 s run to 8 s that AC08 halves the step on. Each record
holds the overall and per-island verdicts, the time of the first
violation, the event log, the sample count, the sha256 of
``trace_to_csv(trace, decimate=1)``, and raw COI-relative angles,
island frequencies, bus voltages and island memberships at
``STRIDED_ROWS`` evenly strided samples (the last one included). The
committed file was frozen from the engine that takes one ROS34PW2
Rosenbrock-W step per 10 ms sample (``_Engine.step``).

Regenerate (only when a change of results is intended) from the
repository root with:

    PYTHONPATH=src python tests/dynamics_fixture.py

Compare the current code with the committed file, writing nothing, with:

    PYTHONPATH=src python tests/dynamics_fixture.py --check [NAME ...]

It prints, per scenario, whether the exact fields and the CSV hash match
and the largest raw deviation, and exits 1 when any exact field differs
or a raw value deviates by more than 1e-9. A differing CSV hash is
reported but does not fail the check: a deviation far below 1e-9 can
still flip the sixth decimal the CSV rounds to.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from gridimpact.dynamics import (
    ScenarioOptions,
    SwitchingSchedule,
    default_machine_models,
    load_schedule,
    run_scenario,
    trace_to_csv,
)
from gridimpact.model import load_case
from gridimpact.pipeline import combination_branch_set
from gridimpact.screening import OutageCombination
from gridimpact.topology import OutageAction

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = HERE / "data" / "dynamics_fixture.json"
CASE_PATH = ROOT / "src" / "gridimpact" / "data" / "ieee118.grid"
STRIDED_ROWS = 16
VALUE_BOUND = 1e-9
EXACT = (
    "overall", "per_island", "time_of_first_violation",
    "events", "samples", "rows", "machine_island",
)


def scenarios(case):
    """(name, schedule, options) of every scenario the fixture pins."""
    pairs = combination_branch_set(case, OutageCombination((100,)))
    combo100 = SwitchingSchedule.evenly_spaced(
        [OutageAction.open_branch(a, b) for a, b in pairs], interval=5.0
    )
    disturb = SwitchingSchedule(((1.0, OutageAction.open_branch(17, 113)),))
    return (
        ("case1", load_schedule(ROOT / "scripts" / "case1_schedule.txt"),
         ScenarioOptions()),
        ("case2", load_schedule(ROOT / "scripts" / "case2_schedule.txt"),
         ScenarioOptions()),
        ("combo100", combo100, ScenarioOptions(dt=0.01)),
        ("disturb_17_113", disturb, ScenarioOptions(dt=0.01, t_end=8.0)),
    )


def _floats(a) -> list:
    """JSON-safe floats: NaN becomes null."""
    return [None if math.isnan(x) else float(x) for x in np.ravel(a)]


def event_log(trace) -> list:
    """A run's event records as JSON-safe lists."""
    return [[ev.time, str(ev.action), ev.status, ev.cause, ev.island_count]
            for ev in trace.events]


def describe(case, models, schedule, options) -> dict:
    """Run one scenario and record what the fixture pins."""
    trace, verdict = run_scenario(case, schedule, models, options)
    n = len(trace.times)
    rows = sorted({int(round(x)) for x in np.linspace(0, n - 1, STRIDED_ROWS)})
    keys = sorted(trace.island_freq)
    return {
        "overall": verdict.overall,
        "per_island": {str(k): v for k, v in sorted(verdict.per_island.items())},
        "time_of_first_violation": verdict.time_of_first_violation,
        "events": event_log(trace),
        "samples": n,
        "csv_sha256": hashlib.sha256(
            trace_to_csv(trace, decimate=1).encode()
        ).hexdigest(),
        "rows": rows,
        "times": _floats(trace.times[rows]),
        "machine_island": trace.machine_island[rows].tolist(),
        "angles_deg": [_floats(trace.angles_deg[r]) for r in rows],
        "island_freq": {str(k): _floats(trace.island_freq[k][rows]) for k in keys},
        "voltages": [_floats(trace.voltages[r]) for r in rows],
    }


def _raw_deviation(got: dict, want: dict) -> float:
    """Largest |got - want| over the raw series; inf on a shape or NaN mismatch."""
    pairs = [(got["times"], want["times"])]
    pairs += list(zip(got["angles_deg"], want["angles_deg"]))
    pairs += list(zip(got["voltages"], want["voltages"]))
    if sorted(got["island_freq"]) != sorted(want["island_freq"]):
        return math.inf
    pairs += [(got["island_freq"][k], want["island_freq"][k]) for k in want["island_freq"]]
    worst = 0.0
    for g, w in pairs:
        if len(g) != len(w):
            return math.inf
        for a, b in zip(g, w):
            if (a is None) != (b is None):
                return math.inf
            if a is not None:
                worst = max(worst, abs(a - b))
    return worst


def compare(got: dict, want: dict) -> tuple[list[str], bool, float]:
    """(exact fields that differ, whether the CSV hash matches, raw deviation)."""
    differ = [f for f in EXACT if got[f] != want[f]]
    worst = _raw_deviation(got, want) if "rows" not in differ else math.inf
    return differ, got["csv_sha256"] == want["csv_sha256"], worst


def check(case, names: list[str]) -> int:
    """Compare the current code with the fixture; 1 on any mismatch."""
    frozen = json.loads(FIXTURE.read_text())
    models = default_machine_models(case)
    failed = False
    for name, schedule, options in scenarios(case):
        if names and name not in names:
            continue
        got = describe(case, models, schedule, options)
        differ, same_csv, worst = compare(got, frozen[name])
        bad = bool(differ) or worst > VALUE_BOUND
        failed |= bad
        print(
            f"{name}: exact fields {'differ: ' + ', '.join(differ) if differ else 'match'}; "
            f"csv sha256 {'matches' if same_csv else 'differs'}; "
            f"largest raw deviation {worst:.3g} (bound {VALUE_BOUND:g})"
            + ("  FAIL" if bad else "")
        )
    print("FAIL" if failed else "ok")
    return int(failed)


def main(argv: list[str]) -> int:
    case = load_case(CASE_PATH)
    if argv[:1] == ["--check"]:
        return check(case, argv[1:])
    if argv:
        print(__doc__)
        return 2
    models = default_machine_models(case)
    records = {
        name: describe(case, models, schedule, options)
        for name, schedule, options in scenarios(case)
    }
    FIXTURE.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in records.items())
        + "\n}\n"
    )
    print(f"{len(records)} scenarios -> {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
