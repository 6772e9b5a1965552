"""Accuracy oracle for the dynamics integrator on the 118-bus case.

Integrates the four scenarios of ``dynamics_fixture.scenarios`` (case 1,
case 2, the combination-100 schedule and the 17-113 opening) twice with
the current engine: at the scenario's own step ``dt`` (the scheme under
test) and at ``dt/64`` with ``sample_every=64`` (the reference), so both
runs sample the same 10 ms grid with the same event times. The scheme
takes one third-order Rosenbrock-W step per 10 ms; the reference's steps
are 64 times shorter, so its own truncation error is smaller than the
scheme's by a factor of 64**2 or more.

The rule a scheme must meet against the reference (``rule_violations``):
- its verdict, per-island verdicts and event log equal the reference's;
- its first violation lies within one ``dt`` of the reference's;
- its largest COI-relative angle, island frequency and bus voltage
  errors stay below ``ANGLE_BOUND_DEG``, ``FREQ_BOUND_HZ`` and
  ``VOLTAGE_BOUND_PU``, over every sample both runs recorded except
  those within ``AFTER_EVENT_S`` after an executed event (where an
  L-stable step damps the exciter's fast transient at once) and those
  within ``BEFORE_VIOLATION_S`` before the reference's first violation
  (where the runaway amplifies any error).

Each record holds the reference's verdicts, time of first violation,
event log, sample count and raw COI-relative angles, island frequencies
and bus voltages at ``STRIDED_ROWS`` evenly strided samples (the last one
included), so a later scheme can be judged against the same reference
without integrating it again. It also holds the scheme's verdicts and
event log, and its largest errors against the reference over the samples
the rule judges: angle (degrees), frequency (Hz) and voltage (p.u.), plus
the shift of its first violation (scheme minus reference, seconds; null
when either run stays stable).

Regenerate (only when a change of results is intended) from the
repository root with:

    PYTHONPATH=src python tests/dynamics_oracle.py

Compare the current code with the committed file, writing nothing, with:

    PYTHONPATH=src python tests/dynamics_oracle.py --check [NAME ...]

It re-integrates both runs of every named scenario (all four by default;
about two minutes in all), prints per scenario whether the reference's
exact fields match, its largest raw deviation from the frozen samples,
the scheme's errors and the largest deviation of each recorded error,
and whether the rule holds. It exits 1 when an exact field differs, a
deviation exceeds 1e-9 or the rule is broken.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from dynamics_fixture import (
    CASE_PATH, STRIDED_ROWS, VALUE_BOUND, _floats, _raw_deviation, event_log, scenarios,
)
from gridimpact.dynamics import default_machine_models, initial_state, run_scenario
from gridimpact.model import load_case

ORACLE = Path(__file__).resolve().parent / "data" / "dynamics_oracle.json"
REFINE = 64
EXACT = ("overall", "per_island", "time_of_first_violation", "events", "samples", "rows")
ERRORS = ("angle_deg", "freq_hz", "voltage_pu", "first_violation_shift_s")
VERDICT = ("overall", "per_island", "events")

# The oracle rule's bounds and excluded windows (see the module docstring).
ANGLE_BOUND_DEG = 0.5
FREQ_BOUND_HZ = 1e-2
VOLTAGE_BOUND_PU = 2e-3
AFTER_EVENT_S = 0.1
BEFORE_VIOLATION_S = 1.0
BOUNDS = {"angle_deg": ANGLE_BOUND_DEG, "freq_hz": FREQ_BOUND_HZ,
          "voltage_pu": VOLTAGE_BOUND_PU}


def outcome(trace, verdict) -> dict:
    """The parts of a run the rule compares exactly."""
    return {
        "overall": verdict.overall,
        "per_island": {str(k): v for k, v in sorted(verdict.per_island.items())},
        "time_of_first_violation": verdict.time_of_first_violation,
        "events": event_log(trace),
    }


def judged(times: np.ndarray, reference: dict) -> np.ndarray:
    """Mask of the samples at ``times`` that the rule judges: none within
    AFTER_EVENT_S after an executed event or within BEFORE_VIOLATION_S
    before the reference's first violation."""
    keep = np.ones(len(times), dtype=bool)
    for t_ev, _action, status, *_ in reference["events"]:
        if status == "executed":
            keep &= ~((times > t_ev) & (times <= t_ev + AFTER_EVENT_S + 1e-9))
    t_fv = reference["time_of_first_violation"]
    if t_fv is not None:
        keep &= times < t_fv - BEFORE_VIOLATION_S - 1e-9
    return keep


def _largest_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest |got - want| where both are finite; inf where only one is NaN."""
    gap = np.isnan(got)
    if not np.array_equal(gap, np.isnan(want)):
        return math.inf
    return float(np.max(np.abs(got - want)[~gap], initial=0.0))


def _at(samples: tuple, keep: np.ndarray) -> tuple:
    times, angles, freqs, volts = samples
    return times[keep], angles[keep], {k: f[keep] for k, f in freqs.items()}, volts[keep]


def sample_errors(got: tuple, want: tuple, keep: np.ndarray) -> dict:
    """Largest angle, frequency and voltage errors of the samples ``got``
    against ``want``, each (times, angles_deg, {island: freq}, voltages)
    over the same sample grid, at the samples where ``keep``."""
    times, angles, freqs, volts = _at(got, keep)
    times_w, angles_w, freqs_w, volts_w = _at(want, keep)
    if np.max(np.abs(times - times_w), initial=0.0) > 1e-9:
        raise ValueError("scheme and reference sample different times")
    nan = np.full(len(times), np.nan)
    return {
        "angle_deg": _largest_error(angles, angles_w),
        "freq_hz": max(
            (_largest_error(freqs.get(k, nan), freqs_w.get(k, nan))
             for k in set(freqs) | set(freqs_w)),
            default=0.0,
        ),
        "voltage_pu": _largest_error(volts, volts_w),
        "samples_compared": int(keep.sum()),
    }


def _samples(trace, at) -> tuple:
    """(times, angles_deg, {island: freq}, voltages) of a trace's rows ``at``."""
    return (trace.times[at], trace.angles_deg[at],
            {str(k): f[at] for k, f in trace.island_freq.items()}, trace.voltages[at])


def _errors(got: tuple, want: tuple, reference: dict, t: float | None) -> dict:
    """``sample_errors`` at the samples the rule judges, and the shift of
    the first violation ``t`` from the reference's."""
    errors = sample_errors(got, want, judged(want[0], reference))
    t_ref = reference["time_of_first_violation"]
    errors["first_violation_shift_s"] = None if t is None or t_ref is None else t - t_ref
    return errors


def scheme_errors(trace, verdict, ref, ref_verdict) -> dict:
    """The scheme's largest errors against the reference over the samples
    both runs recorded (a halted run records fewer) that the rule judges,
    and the shift of its first violation."""
    n = slice(min(len(trace.times), len(ref.times)))
    return _errors(_samples(trace, n), _samples(ref, n), outcome(ref, ref_verdict),
                   verdict.time_of_first_violation)


def frozen_errors(trace, verdict, reference: dict) -> dict:
    """``scheme_errors`` of a scheme run against a frozen reference record,
    at the reference's strided rows the run recorded."""
    rows = [r for r in reference["rows"] if r < len(trace.times)]
    m = len(rows)
    want = (
        np.array(reference["times"][:m]),
        np.array(reference["angles_deg"][:m], dtype=float),  # null -> NaN
        {k: np.array(f[:m], dtype=float) for k, f in reference["island_freq"].items()},
        np.array(reference["voltages"][:m], dtype=float),
    )
    return _errors(_samples(trace, rows), want, reference, verdict.time_of_first_violation)


def rule_violations(scheme: dict, reference: dict, errors: dict, dt: float) -> list[str]:
    """The parts of the oracle rule a scheme run breaks: ``scheme`` and
    ``reference`` as ``outcome`` records them, ``errors`` as
    ``scheme_errors`` or ``frozen_errors`` measure them."""
    broken = [f"{f} differs" for f in VERDICT if scheme[f] != reference[f]]
    t, t_ref = scheme["time_of_first_violation"], reference["time_of_first_violation"]
    if (t is None) != (t_ref is None) or (
        t is not None and abs(t - t_ref) > dt * (1 + 1e-9)
    ):
        broken.append(f"first violation {t} not within one dt of {t_ref}")
    broken += [
        f"{name} error {errors[name]:.3g} exceeds {bound:g}"
        for name, bound in BOUNDS.items() if not errors[name] <= bound
    ]
    return broken


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
            **outcome(ref, ref_verdict),
            "samples": n,
            "rows": rows,
            "times": _floats(ref.times[rows]),
            "angles_deg": [_floats(ref.angles_deg[r]) for r in rows],
            "island_freq": {
                str(k): _floats(ref.island_freq[k][rows]) for k in sorted(ref.island_freq)
            },
            "voltages": [_floats(ref.voltages[r]) for r in rows],
        },
        "scheme": {**outcome(trace, verdict), "samples": len(trace.times)},
        "errors": scheme_errors(trace, verdict, ref, ref_verdict),
    }


def violations(record: dict) -> list[str]:
    """``rule_violations`` of a ``describe`` record."""
    return rule_violations(record["scheme"], record["reference"], record["errors"],
                           record["dt"])


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
        broken = violations(got)
        bad = bool(differ or broken) or max(worst, *deviations.values()) > VALUE_BOUND
        failed |= bad
        errors = ", ".join(
            f"{k} {got['errors'][k]:.3g}" if got["errors"][k] is not None else f"{k} null"
            for k in ERRORS
        )
        print(
            f"{name}: reference {'differs: ' + ', '.join(differ) if differ else 'matches'}"
            f" (largest raw deviation {worst:.3g}); scheme errors {errors}; "
            f"largest error deviation {max(deviations.values()):.3g} "
            f"(bound {VALUE_BOUND:g}); rule {'broken: ' + '; '.join(broken) if broken else 'holds'}"
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
