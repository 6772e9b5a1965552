"""Accuracy oracle for the dynamics integrator on the 118-bus case.

Integrates the four scenarios of ``dynamics_fixture.scenarios`` (case 1,
case 2, the combination-100 schedule and the 17-113 opening) twice with
the current engine: at the scenario's own step ``dt`` (the scheme under
test) and at ``dt/64`` with ``sample_every=64`` (the reference), so both
runs sample the same 10 ms grid with the same event times. The scheme
already splits each 10 ms step into 6 RK4 substeps for the exciter lag;
the reference's substeps are about 11 times shorter still, so its own
truncation error is about 10**4 times smaller than the scheme's.

Each record holds the reference's verdict, time of first violation,
sample count and raw COI-relative angles, island frequencies and bus
voltages at ``STRIDED_ROWS`` evenly strided samples (the last one
included), so a later scheme can be judged against the same reference.
It also holds the scheme's largest errors against the reference over
every sample both runs recorded: COI-relative angle (degrees), island
frequency (Hz) and bus voltage magnitude (p.u.), plus the shift of its
first violation (scheme minus reference, seconds; null when either run
stays stable).

Regenerate (only when a change of results is intended) from the
repository root with:

    PYTHONPATH=src python tests/dynamics_oracle.py

Compare the current code with the committed file, writing nothing, with:

    PYTHONPATH=src python tests/dynamics_oracle.py --check [NAME ...]

It re-integrates both runs of every named scenario (all four by default;
about two minutes in all), prints per scenario whether the reference's
exact fields match, its largest raw deviation from the frozen samples and
the largest deviation of each recorded error, and exits 1 when an exact
field differs or a deviation exceeds 1e-9.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from dynamics_fixture import (
    CASE_PATH, STRIDED_ROWS, VALUE_BOUND, _floats, _raw_deviation, scenarios,
)
from gridimpact.dynamics import default_machine_models, initial_state, run_scenario
from gridimpact.model import load_case

ORACLE = Path(__file__).resolve().parent / "data" / "dynamics_oracle.json"
REFINE = 64
EXACT = ("overall", "time_of_first_violation", "samples", "rows")
ERRORS = ("angle_deg", "freq_hz", "voltage_pu", "first_violation_shift_s")


def _largest_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest |got - want| where both are finite; inf where only one is NaN."""
    gap = np.isnan(got)
    if not np.array_equal(gap, np.isnan(want)):
        return math.inf
    return float(np.max(np.abs(got - want)[~gap], initial=0.0))


def scheme_errors(trace, verdict, ref, ref_verdict) -> dict:
    """The scheme's largest errors against the reference over the samples
    both runs recorded (a halted run records fewer)."""
    n = min(len(trace.times), len(ref.times))
    if np.max(np.abs(trace.times[:n] - ref.times[:n]), initial=0.0) > 1e-9:
        raise ValueError("scheme and reference sample different times")
    nan = np.full(n, np.nan)
    freq = max(
        (
            _largest_error(trace.island_freq.get(k, nan)[:n], ref.island_freq.get(k, nan)[:n])
            for k in set(trace.island_freq) | set(ref.island_freq)
        ),
        default=0.0,
    )
    t, t_ref = verdict.time_of_first_violation, ref_verdict.time_of_first_violation
    return {
        "angle_deg": _largest_error(trace.angles_deg[:n], ref.angles_deg[:n]),
        "freq_hz": freq,
        "voltage_pu": _largest_error(trace.voltages[:n], ref.voltages[:n]),
        "first_violation_shift_s": None if t is None or t_ref is None else t - t_ref,
        "samples_compared": n,
    }


def describe(case, models, state, schedule, options) -> dict:
    """Run one scenario as scheme and as reference and record the oracle."""
    fine = dataclasses.replace(options, dt=options.dt / REFINE, sample_every=REFINE)
    ref, ref_verdict = run_scenario(case, schedule, models, fine, state)
    trace, verdict = run_scenario(case, schedule, models, options, state)
    n = len(ref.times)
    rows = sorted({int(round(x)) for x in np.linspace(0, n - 1, STRIDED_ROWS)})
    return {
        "dt": options.dt,
        "reference_dt": fine.dt,
        "reference": {
            "overall": ref_verdict.overall,
            "time_of_first_violation": ref_verdict.time_of_first_violation,
            "samples": n,
            "rows": rows,
            "times": _floats(ref.times[rows]),
            "angles_deg": [_floats(ref.angles_deg[r]) for r in rows],
            "island_freq": {
                str(k): _floats(ref.island_freq[k][rows]) for k in sorted(ref.island_freq)
            },
            "voltages": [_floats(ref.voltages[r]) for r in rows],
        },
        "scheme": {
            "overall": verdict.overall,
            "time_of_first_violation": verdict.time_of_first_violation,
            "samples": len(trace.times),
        },
        "errors": scheme_errors(trace, verdict, ref, ref_verdict),
    }


def error_deviations(got: dict, want: dict) -> dict:
    """|got - want| per recorded error; inf when only one is null."""
    out = {}
    for name in ERRORS:
        g, w = got[name], want[name]
        out[name] = 0.0 if g is None and w is None else (
            math.inf if g is None or w is None else abs(g - w)
        )
    return out


def compare(got: dict, want: dict) -> tuple[list[str], float, dict]:
    """(reference fields that differ, raw deviation, error deviations)."""
    ref, frozen = got["reference"], want["reference"]
    differ = [f for f in EXACT if ref[f] != frozen[f]]
    worst = _raw_deviation(ref, frozen) if "rows" not in differ else math.inf
    return differ, worst, error_deviations(got["errors"], want["errors"])


def check(case, names: list[str]) -> int:
    """Compare the current code with the oracle; 1 on any mismatch."""
    frozen = json.loads(ORACLE.read_text())
    models = default_machine_models(case)
    state = initial_state(case, models)
    failed = False
    for name, schedule, options in scenarios(case):
        if names and name not in names:
            continue
        got = describe(case, models, state, schedule, options)
        differ, worst, deviations = compare(got, frozen[name])
        bad = bool(differ) or max(worst, *deviations.values()) > VALUE_BOUND
        failed |= bad
        errors = ", ".join(
            f"{k} {got['errors'][k]:.3g}" if got["errors"][k] is not None else f"{k} null"
            for k in ERRORS
        )
        print(
            f"{name}: reference {'differs: ' + ', '.join(differ) if differ else 'matches'}"
            f" (largest raw deviation {worst:.3g}); scheme errors {errors}; "
            f"largest error deviation {max(deviations.values()):.3g} "
            f"(bound {VALUE_BOUND:g})" + ("  FAIL" if bad else "")
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
    state = initial_state(case, models)
    records = {
        name: describe(case, models, state, schedule, options)
        for name, schedule, options in scenarios(case)
    }
    ORACLE.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in records.items())
        + "\n}\n"
    )
    print(f"{len(records)} scenarios -> {ORACLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
