"""gridimpact benchmark: one workload, timed, checked, and optionally traced.

    python3 gridbench/run.py --workload screen-k2 [--seed 42] [--seconds 50] [--trace 0]

Run from anywhere inside a source tree of gridimpact; the package is taken
from the tree's ``src/`` and nowhere else.  Passes of the workload run one
after another, at least one, and a further pass starts only if it can end
within ``--seconds`` at the pace of the fastest pass so far; each pass's
output is checked against ``reference/``.  The last line of output is one
JSON object: with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one extra, traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
# Share of a traced pass's wall time its spans' self times must account for.
SELF_TIME_TOLERANCE = 0.03

# One user's set-up: a fresh interpreter imports the package, loads the
# fixture and builds the default machine models.
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import gridimpact
from gridimpact import dynamics, model
case = model.load_case(sys.argv[2])
print(len(dynamics.default_machine_models(case)))
"""


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def measure_setup(case_path: Path, expected_models: int) -> float:
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(case_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    elapsed = perf_counter() - start
    if done.stdout.strip() != str(expected_models):
        raise RuntimeError(f"set-up printed {done.stdout!r}, expected {expected_models}")
    return elapsed


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class Passes:
    """Runs and checks passes of one workload, counting failures."""

    def __init__(self, workload, ctx):
        self.workload = workload
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.skipped: set[str] = set()

    def run(self, index: int):
        """Time one pass and check it; returns (wall s, extras) or None."""
        self.attempted += 1
        self.ctx.scratch.mkdir(parents=True, exist_ok=True)
        try:
            start = perf_counter()
            output = self.workload.run(self.ctx, index)
            wall = perf_counter() - start
            bad, skipped = self.workload.check(self.ctx, output)
            extras = self.workload.extras(output)
        except Exception:  # a pass that raises is a failed operation
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            shutil.rmtree(self.ctx.scratch, ignore_errors=True)
        self.skipped.update(skipped)
        for line in bad:
            print(f"MISMATCH {line}", file=sys.stderr)
        if bad:
            self.failed += 1
        return wall, extras


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "gridimpact" / "__init__.py").is_file():
        print(f"no gridimpact source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gridimpact
    from gridimpact import dynamics, model, powerflow

    if Path(gridimpact.__file__).resolve().parent != SRC / "gridimpact":
        print(f"imported gridimpact from {gridimpact.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        case = model.load_case(workloads.CASE_PATH)
        models = dynamics.default_machine_models(case)
        ctx = workloads.Context(case, models, args.seed, scratch / "pass")
        setup: list[float] = []
        setups_due = 0 if args.trace else SETUP_REPEATS
        if setups_due:
            # The first set-up also writes the byte-code caches; users pay
            # that once, so it is not timed.
            measure_setup(workloads.CASE_PATH, len(models))

        def take_setups(elapsed: float) -> None:
            # The set-ups are spread over the run, so that their median is
            # taken over the same spells of machine speed as the passes'.
            share = min(elapsed / args.seconds, 1.0) if args.seconds > 0 else 1.0
            while len(setup) < setups_due * share:
                setup.append(measure_setup(workloads.CASE_PATH, len(models)))

        ctx.inputs = workload.inputs(ctx)
        passes = Passes(workload, ctx)
        walls: list[float] = []
        extras: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        start = perf_counter()
        while not walls or perf_counter() - start + min(walls) <= args.seconds:
            take_setups(perf_counter() - start)
            done = passes.run(len(walls))
            if done is not None:
                walls.append(done[0])
                for name, (value, unit) in done[1].items():
                    extras.setdefault(name, []).append(value)
                    units[name] = unit
            elif perf_counter() - start >= args.seconds:
                break
        take_setups(args.seconds)
        if not walls:
            print("no pass of the workload completed", file=sys.stderr)
            return 1
        wall_s = statistics.median(walls)

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tracer.request = "probe"
                for _ in range(3):
                    model.load_case(workloads.CASE_PATH)
                for _ in range(5):
                    powerflow.solve_newton(case, powerflow.PowerFlowOptions())
                tracer.request = "pass"
                traced = passes.run(len(walls))
            finally:
                tracer.remove()
            if traced is None:
                print("the traced pass failed", file=sys.stderr)
                return 1
            traced_wall, traced_extras = traced
            metrics = tracing.layer_metrics(tracer, "probe", "pass")
            metrics["pipeline.bytes_written"] = traced_extras.get(
                "pipeline.bytes_written", (0, "B"))[0]
            metrics["trace.overhead_frac"] = traced_wall / wall_s - 1.0
            pass_spans = tracer.of("pass")
            covered = sum(tracing.self_times(pass_spans).values()) / traced_wall
            print(f"spans' self times cover {covered:.4f} of the traced pass")
            passes.attempted += 1  # the coverage check is an operation of its own
            if abs(covered - 1.0) > SELF_TIME_TOLERANCE:
                print(f"MISMATCH self times cover {covered:.4f} of the traced "
                      f"wall time, outside 1 +- {SELF_TIME_TOLERANCE}", file=sys.stderr)
                passes.failed += 1
            spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "env": env,
                "spans": [s.as_dict(i) for i, s in enumerate(tracer.spans)],
            }))
            result = {name: {"value": metrics[name], "unit": unit}
                      for name, unit in tracing.PER_LAYER}
        else:
            result = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "wall_s": {"value": wall_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for check in sorted(passes.skipped):
        print(f"skipped check: {check}")
    print(f"passes: {len(walls)} timed, seconds per pass: "
          + " ".join(f"{w:.4f}" for w in walls))
    print(f"fastest pass {min(walls):.6g} s, slowest {max(walls):.6g} s")
    if setup:
        print("setup_s per set-up: " + " ".join(f"{s:.4f}" for s in setup))
    for name, values in extras.items():
        print(f"{name} = {statistics.median(values):.6g} {units[name]} "
              f"(median of {len(values)} passes)")
    for name, metric in result.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_frac = {passes.failed / passes.attempted:.6g} ratio "
          f"({passes.failed} of {passes.attempted} operations)")
    print(json.dumps({
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
