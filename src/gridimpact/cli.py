"""Command-line front end.

Subcommands mirror the library stages: ``load`` prints a case summary,
``screen`` sweeps outage combinations, ``simulate`` runs a switching
scenario, ``pipeline`` runs the full screen-verify-crosscheck chain
into a run directory, and ``report`` prints an artifact from a run
directory. Only the CLI reads the GRIDIMPACT_WORKERS environment
variable: ``screen`` and ``pipeline`` pass it to the library as the
worker pool's ``workers`` (default 1), and refuse a value that is not
a positive integer before the case loads. An option left out takes the
library's default. Each handler imports the stage modules it uses, so
``load`` and ``report`` load neither dynamics, screening nor the pipeline.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .model import load_case, summarize

__all__ = ["main", "build_parser"]


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _fraction(text: str) -> float:
    """An argparse type: a number within [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie within [0, 1], got {value}")
    return value


def _workers() -> int:
    """The worker pool size that GRIDIMPACT_WORKERS sets (default 1);
    raises ``ValueError`` unless it is a positive integer."""
    try:
        return _positive_int(os.environ.get("GRIDIMPACT_WORKERS", "1"))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"GRIDIMPACT_WORKERS: {exc}") from None


def _given(**values):
    """The keyword arguments that were given: those not None."""
    return {name: value for name, value in values.items() if value is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridimpact",
        description="Power-grid contingency screening and dynamic verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_load = sub.add_parser("load", help="load a case file and print its summary")
    p_load.add_argument("case", help="path to a .grid case file")

    p_screen = sub.add_parser("screen", help="steady-state outage screening")
    p_screen.add_argument("case")
    p_screen.add_argument("--k", type=_positive_int, default=1, help="maximum outage level")
    p_screen.add_argument("--budget", type=_non_negative_int, default=None,
                          help="cap on power-flow evaluations")
    p_screen.add_argument("--no-prune", action="store_true",
                          help="disable containment pruning")
    p_screen.add_argument("--out", default=None, help="write CSV here (default stdout)")

    p_sim = sub.add_parser("simulate", help="time-domain switching scenario")
    p_sim.add_argument("case")
    p_sim.add_argument("scenario", help="switching schedule file")
    p_sim.add_argument("--dt", type=float, default=None, help="time step in seconds")
    p_sim.add_argument("--t-end", type=float, default=None,
                       help="simulation horizon (default: last event + 10 s)")
    p_sim.add_argument("--trace", default=None, help="write the trace CSV here")
    p_sim.add_argument("--decimate", type=_positive_int, default=None,
                       help="keep every n-th sample in the trace CSV")

    p_pipe = sub.add_parser("pipeline", help="screen, verify, cross-check")
    p_pipe.add_argument("case")
    p_pipe.add_argument("--k", type=_positive_int, default=None)
    p_pipe.add_argument("--seed", type=int, default=None)
    p_pipe.add_argument("--budget", type=_positive_int, default=None)
    p_pipe.add_argument("--sample-fraction", type=_fraction, default=None,
                        help="non-critical fraction selected for dynamics")
    p_pipe.add_argument("--out", required=True, help="run directory for reports")

    p_rep = sub.add_parser("report", help="print an artifact from a run directory")
    p_rep.add_argument("run_dir")
    p_rep.add_argument("--format", choices=("csv", "text"), default="text",
                       help="csv prints matrix.csv, text prints summary.txt")

    return parser


def _cmd_load(args: argparse.Namespace) -> int:
    case = load_case(args.case)
    s = summarize(case)
    total_mw = sum(b.load_p for b in case.buses)
    print(f"buses:        {s.buses}")
    print(f"branches:     {s.branches} ({s.lines} lines + {s.transformers} transformers)")
    print(f"generators:   {s.generators}")
    print(f"condensers:   {s.condensers}")
    print(f"load buses:   {s.loads}")
    print(f"total load:   {total_mw:.1f} MW")
    print(f"substations:  {s.substations}")
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    from .screening import run_screening, screening_report_csv

    workers = _workers()
    case = load_case(args.case)
    run = run_screening(case, args.k, budget=args.budget, prune=not args.no_prune,
                        workers=workers)
    text = screening_report_csv(run)
    if args.out:
        Path(args.out).write_text(text)
        n_crit = sum(len(pl.critical) for pl in run.levels)
        print(f"{run.evaluations} evaluations, {run.pruned} pruned, "
              f"{n_crit} critical -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .dynamics import (
        ScenarioOptions,
        default_machine_models,
        load_schedule,
        run_scenario,
        trace_to_csv,
    )

    case = load_case(args.case)
    schedule = load_schedule(args.scenario)
    models = default_machine_models(case)
    options = ScenarioOptions(**_given(dt=args.dt, t_end=args.t_end))
    trace, verdict = run_scenario(case, schedule, models, options)
    print(f"overall: {verdict.overall}")
    if verdict.time_of_first_violation is not None:
        print(f"first violation at t={verdict.time_of_first_violation:.2f} s")
    for key in sorted(verdict.per_island):
        print(f"  island {key}: {verdict.per_island[key]}")
    for ev in trace.events:
        line = f"  t={ev.time:g}s {ev.action}: {ev.status}"
        if ev.cause:
            line += f" ({ev.cause})"
        if ev.island_count is not None:
            line += f" [islands: {ev.island_count}]"
        print(line)
    print("island frequency extremes:")
    for key in sorted(trace.island_freq):
        f = trace.island_freq[key]
        f = f[np.isfinite(f)]
        if f.size:
            print(f"  island {key}: min={f.min():.2f} Hz max={f.max():.2f} Hz")
    if args.trace:
        Path(args.trace).write_text(trace_to_csv(trace, **_given(decimate=args.decimate)))
        print(f"trace -> {args.trace}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from .pipeline import DynPolicy, PipelineConfig, run_pipeline

    workers = _workers()
    case = load_case(args.case)
    config = PipelineConfig(
        policy=DynPolicy(**_given(noncritical_fraction=args.sample_fraction)),
        workers=workers,
        **_given(k_max=args.k, budget=args.budget, seed=args.seed),
    )
    report = run_pipeline(case, config, run_dir=args.out)
    print(f"screened {report.matrix.total} combinations, "
          f"{report.matrix.n_critical_steady} critical")
    print(f"dynamically verified {len(report.verified)}, "
          f"{len(report.reevaluations)} disagreements")
    print(f"reports -> {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    name = "matrix.csv" if args.format == "csv" else "summary.txt"
    path = run_dir / name
    if not path.is_file():
        print(f"no {name} under {run_dir}", file=sys.stderr)
        return 1
    sys.stdout.write(path.read_text())
    return 0


_COMMANDS = {
    "load": _cmd_load,
    "screen": _cmd_screen,
    "simulate": _cmd_simulate,
    "pipeline": _cmd_pipeline,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.decimate is not None and args.trace is None:
        parser.error("--decimate needs --trace: it thins the trace CSV")
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"gridimpact: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
