"""Spans around the program's public functions, and the per-layer metrics.

A span is recorded by replacing a function at the module attribute its
caller looks up: ``screening.solve_islands`` and ``powerflow.solve_islands``
are different attributes, so each call site is wrapped where it is read.
Spans stay in memory until the run ends.  Spans recorded inside pool
worker processes are lost, so per-combination figures come from the
serial ``screen-k2`` workload.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

# (module whose attribute the caller reads, attribute, span name).  The span
# name is the layer and function called, except where the dynamics engine's
# own use of a shared function is measured apart from the power-flow layer's.
WRAPS = (
    ("model", "load_case", "model.load_case"),
    ("screening", "apply_substation_outage", "topology.apply_substation_outage"),
    ("screening", "find_islands", "topology.find_islands"),
    ("powerflow", "find_islands", "topology.find_islands"),
    ("dynamics", "apply_substation_outage", "topology.apply_substation_outage"),
    ("dynamics", "apply_branch_outages", "topology.apply_branch_outages"),
    ("dynamics", "find_islands", "dynamics.find_islands"),
    ("powerflow", "build_admittance", "powerflow.build_admittance"),
    ("powerflow", "solve_newton", "powerflow.solve_newton"),
    ("screening", "solve_islands", "powerflow.solve_islands"),
    ("screening", "check_violations", "powerflow.check_violations"),
    ("screening", "screen_combination", "screening.screen_combination"),
    ("screening", "run_screening", "screening.run_screening"),
    ("pipeline", "screen_combination", "screening.screen_combination"),
    ("pipeline", "run_screening", "screening.run_screening"),
    ("dynamics", "solve_newton", "dynamics.base_pf"),
    ("dynamics", "init_dynamic_state", "dynamics.init_dynamic_state"),
    ("dynamics", "build_admittance", "dynamics.build_admittance"),
    ("dynamics", "run_scenario", "dynamics.run_scenario"),
    ("pipeline", "run_scenario", "dynamics.run_scenario"),
    ("pipeline", "cascade_confirm", "pipeline.cascade_confirm"),
    ("pipeline", "cross_check", "pipeline.cross_check"),
    ("pipeline", "re_evaluate", "pipeline.re_evaluate"),
    ("pipeline", "screening_report_csv", "pipeline.screening_report_csv"),
    ("pipeline", "trace_to_csv", "pipeline.trace_to_csv"),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
)


def _newton_info(sol):
    return {"iters": sol.iterations, "converged": sol.converged, "cause": sol.cause}


def _scenario_info(result):
    trace, _verdict = result
    statuses = [ev.status for ev in trace.events]
    return {
        "samples": len(trace.times),
        "sim_s": float(trace.times[-1] - trace.times[0]) if len(trace.times) else 0.0,
        "executed": statuses.count("executed"),
        "skipped": statuses.count("skipped"),
    }


# What a span keeps of its function's result: counts, never the result.
RESULT_INFO = {
    "powerflow.solve_newton": _newton_info,
    "dynamics.base_pf": _newton_info,
    "powerflow.solve_islands": lambda r: {"causes": [isl.cause for isl in r[0].islands]},
    "screening.run_screening": lambda run: {
        "evaluations": run.evaluations,
        "pruned": run.pruned,
    },
    "dynamics.run_scenario": _scenario_info,
}


class Span:
    __slots__ = ("name", "request", "parent", "start", "end", "info")

    def __init__(self, name, request, parent, start):
        self.name = name
        self.request = request
        self.parent = parent
        self.start = start
        self.end = None
        self.info = None

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "request": self.request,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "info": self.info,
        }


class Tracer:
    """Installs the wrappers in WRAPS, records spans, and removes the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None  # shared by the spans of one pass or probe
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(f"gridimpact.{module_name}")
            fn = getattr(module, attr)
            setattr(module, attr, self._wrap(fn, name))
            self._installed.append((module, attr, fn))

    def remove(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name):
        info = RESULT_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.request, self._open[-1] if self._open else None,
                        perf_counter())
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if info is not None:
                span.info = info(result)
            return result

        return traced

    def of(self, request) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.request == request]


# (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("model.load_case.ms", "ms"),
    ("topology.apply_substation_outage.calls", "count"),
    ("topology.apply_substation_outage.ms", "ms"),
    ("topology.find_islands.calls", "count"),
    ("topology.find_islands.ms", "ms"),
    ("topology.apply_branch_outages.calls", "count"),
    ("topology.apply_branch_outages.ms", "ms"),
    ("powerflow.newton_base.ms", "ms"),
    ("powerflow.newton_base.iters", "count"),
    ("powerflow.build_admittance.calls", "count"),
    ("powerflow.build_admittance.ms", "ms"),
    ("powerflow.solve_newton.calls", "count"),
    ("powerflow.solve_newton.self_ms", "ms"),
    ("powerflow.newton.iters", "count"),
    ("powerflow.newton.ms_per_iter", "ms"),
    ("powerflow.solve_islands.self_ms", "ms"),
    ("powerflow.check_violations.calls", "count"),
    ("powerflow.check_violations.ms", "ms"),
    ("powerflow.converged_frac", "ratio"),
    ("powerflow.cause.max_iterations", "count"),
    ("powerflow.cause.singular_jacobian", "count"),
    ("powerflow.cause.numerical_overflow", "count"),
    ("powerflow.cause.generation_deficit", "count"),
    ("screening.evaluations", "count"),
    ("screening.pruned", "count"),
    ("screening.solve_ratio", "ratio"),
    ("screening.combo_ms.p50", "ms"),
    ("screening.combo_ms.p95", "ms"),
    ("screening.run_screening.self_ms", "ms"),
    ("dynamics.run_scenario.calls", "count"),
    ("dynamics.run_scenario.self_ms", "ms"),
    ("dynamics.samples", "count"),
    ("dynamics.sim_s", "s"),
    ("dynamics.ms_per_sample", "ms"),
    ("dynamics.init_dynamic_state.ms", "ms"),
    ("dynamics.base_pf.calls", "count"),
    ("dynamics.base_pf.ms", "ms"),
    ("dynamics.refactorizations", "count"),
    ("dynamics.refactorize.ms", "ms"),
    ("dynamics.find_islands.calls", "count"),
    ("dynamics.events_executed", "count"),
    ("dynamics.events_skipped", "count"),
    ("pipeline.screen_s", "s"),
    ("pipeline.verify_s", "s"),
    ("pipeline.scenarios", "count"),
    ("pipeline.crosscheck.ms", "ms"),
    ("pipeline.reeval_s", "s"),
    ("pipeline.reevaluations", "count"),
    ("pipeline.write_s", "s"),
    ("pipeline.trace_to_csv.ms", "ms"),
    ("pipeline.bytes_written", "B"),
    ("trace.overhead_frac", "ratio"),
)

# Counts that must repeat exactly between two runs of the same code.
EXACT_COUNTS = (
    "screening.evaluations",
    "screening.pruned",
    "powerflow.newton.iters",
    "powerflow.cause.max_iterations",
    "powerflow.cause.singular_jacobian",
    "powerflow.cause.numerical_overflow",
    "powerflow.cause.generation_deficit",
    "dynamics.samples",
    "dynamics.refactorizations",
    "dynamics.events_executed",
    "dynamics.events_skipped",
    "pipeline.bytes_written",
)


def self_times(spans: list[tuple[int, Span]]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover, in s."""
    own = {i: s.end - s.start for i, s in spans}
    for _i, s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile of values (0.0 when there are none)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, probe, request) -> dict[str, float]:
    """Per-layer metrics from the spans of one probe and one traced pass.

    Ratios with a zero base, and times of layers the pass never called,
    read 0.
    """
    spans = tracer.of(request)
    by_name: dict[str, list[tuple[int, Span]]] = {}
    for i, s in spans:
        by_name.setdefault(s.name, []).append((i, s))
    own = self_times(spans)
    names = {i: s.name for i, s in spans}

    def calls(name):
        return len(by_name.get(name, ()))

    def total_s(name):
        return sum(s.end - s.start for _, s in by_name.get(name, ()))

    def self_s(name):
        return sum(own[i] for i, _ in by_name.get(name, ()))

    def info_sum(name, key):
        return sum(s.info[key] for _, s in by_name.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    probe_spans = tracer.of(probe)
    m["model.load_case.ms"] = 1e3 * statistics.median(
        s.end - s.start for _, s in probe_spans if s.name == "model.load_case"
    )
    base = [s for _, s in probe_spans if s.name == "powerflow.solve_newton"]
    m["powerflow.newton_base.ms"] = 1e3 * statistics.median(s.end - s.start for s in base)
    m["powerflow.newton_base.iters"] = base[0].info["iters"]

    for name in ("topology.apply_substation_outage", "topology.find_islands",
                 "topology.apply_branch_outages", "powerflow.build_admittance",
                 "powerflow.check_violations"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.ms"] = 1e3 * total_s(name)

    newton = [s for _, s in by_name.get("powerflow.solve_newton", ())]
    iters = sum(s.info["iters"] for s in newton)
    m["powerflow.solve_newton.calls"] = len(newton)
    m["powerflow.solve_newton.self_ms"] = 1e3 * self_s("powerflow.solve_newton")
    m["powerflow.newton.iters"] = iters
    m["powerflow.newton.ms_per_iter"] = ratio(1e3 * total_s("powerflow.solve_newton"), iters)
    m["powerflow.solve_islands.self_ms"] = 1e3 * self_s("powerflow.solve_islands")
    m["powerflow.converged_frac"] = ratio(sum(s.info["converged"] for s in newton), len(newton))
    causes = [s.info["cause"] for s in newton] + [
        c for _, s in by_name.get("powerflow.solve_islands", ()) for c in s.info["causes"]
        if c == "generation_deficit"
    ]
    for cause in ("max_iterations", "singular_jacobian", "numerical_overflow",
                  "generation_deficit"):
        m[f"powerflow.cause.{cause}"] = causes.count(cause)

    evaluations = info_sum("screening.run_screening", "evaluations")
    pruned = info_sum("screening.run_screening", "pruned")
    combo_ms = [1e3 * (s.end - s.start) for _, s in by_name.get("screening.screen_combination", ())]
    m["screening.evaluations"] = evaluations
    m["screening.pruned"] = pruned
    m["screening.solve_ratio"] = ratio(evaluations, evaluations + pruned)
    m["screening.combo_ms.p50"] = _quantile(combo_ms, 50)
    m["screening.combo_ms.p95"] = _quantile(combo_ms, 95)
    m["screening.run_screening.self_ms"] = 1e3 * self_s("screening.run_screening")

    samples = info_sum("dynamics.run_scenario", "samples")
    refactor = [s for _, s in by_name.get("dynamics.build_admittance", ())
                if names.get(s.parent) == "dynamics.run_scenario"]
    m["dynamics.run_scenario.calls"] = calls("dynamics.run_scenario")
    m["dynamics.run_scenario.self_ms"] = 1e3 * self_s("dynamics.run_scenario")
    m["dynamics.samples"] = samples
    m["dynamics.sim_s"] = info_sum("dynamics.run_scenario", "sim_s")
    m["dynamics.ms_per_sample"] = ratio(m["dynamics.run_scenario.self_ms"], samples)
    m["dynamics.init_dynamic_state.ms"] = 1e3 * total_s("dynamics.init_dynamic_state")
    m["dynamics.base_pf.calls"] = calls("dynamics.base_pf")
    m["dynamics.base_pf.ms"] = 1e3 * total_s("dynamics.base_pf")
    m["dynamics.refactorizations"] = len(refactor)
    m["dynamics.refactorize.ms"] = 1e3 * sum(s.end - s.start for s in refactor)
    m["dynamics.find_islands.calls"] = calls("dynamics.find_islands")
    m["dynamics.events_executed"] = info_sum("dynamics.run_scenario", "executed")
    m["dynamics.events_skipped"] = info_sum("dynamics.run_scenario", "skipped")

    in_pipeline = [s for _, s in by_name.get("dynamics.run_scenario", ())
                   if names.get(s.parent, "").startswith("pipeline.")]
    screen_in_pipeline = [s for _, s in by_name.get("screening.run_screening", ())
                          if names.get(s.parent) == "pipeline.run_pipeline"]
    m["pipeline.screen_s"] = sum(s.end - s.start for s in screen_in_pipeline)
    m["pipeline.verify_s"] = total_s("pipeline.cascade_confirm")
    m["pipeline.scenarios"] = len(in_pipeline)
    m["pipeline.crosscheck.ms"] = 1e3 * total_s("pipeline.cross_check")
    m["pipeline.reeval_s"] = total_s("pipeline.re_evaluate")
    m["pipeline.reevaluations"] = calls("pipeline.re_evaluate")
    # The report writer is not a public function: it runs from the first
    # report render to the end of run_pipeline.
    runs = by_name.get("pipeline.run_pipeline", ())
    renders = by_name.get("pipeline.screening_report_csv", ())
    m["pipeline.write_s"] = (
        sum(r.end for _, r in runs) - sum(w.start for _, w in renders)
        if len(runs) == len(renders) else 0.0
    )
    m["pipeline.trace_to_csv.ms"] = 1e3 * total_s("pipeline.trace_to_csv")
    return m
