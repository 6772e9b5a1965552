"""Orchestration: screening, dynamic verification and cross-checking.

Glues the steady-state screen to the time-domain verifier. Screened
combinations selected by policy (every critical one plus a seeded
sample of non-critical ones) are re-run dynamically over switching
orderings of their branch sets (cascade confirmation), the two verdicts
are cross-tabulated into a probability matrix whose per-level masses
each sum to one, and combinations where the simulators disagree go
through a deterministic re-evaluation ladder. ``run_pipeline`` wires
the stages together and can emit a report directory (screening.csv,
traces/*.csv, matrix.csv, reeval.csv, summary.txt) whose contents are
byte-identical for identical (case, config, seed).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .dynamics import (
    DynamicState,
    DynamicTrace,
    MachineModel,
    ScenarioOptions,
    StabilityVerdict,
    SwitchingSchedule,
    _csv_lines,
    default_machine_models,
    initial_state,
    run_scenario,
    trace_to_csv,  # noqa: F401  (gridbench/spans.py wraps pipeline.trace_to_csv)
)
from .model import GridCase
from .powerflow import PowerFlowOptions
from .screening import (
    OutageCombination,
    ScreeningResult,
    ScreeningRun,
    _sub_key,
    run_screening,
    screen_combination,
    screening_report_csv,
)
from .topology import OutageAction, outage_masks

__all__ = [
    "CrossCheckRecord",
    "CrossCheckMatrix",
    "cross_check",
    "matrix_csv",
    "PermutationPlan",
    "CascadeRun",
    "CascadeSummary",
    "combination_branch_set",
    "cascade_confirm",
    "ReEvaluationRecord",
    "re_evaluate",
    "reeval_csv",
    "DynPolicy",
    "PipelineConfig",
    "PipelineReport",
    "run_pipeline",
]


# --- cross-check matrix -------------------------------------------------------


@dataclass(frozen=True)
class CrossCheckRecord:
    """One combination's pair of verdicts.

    ``dynamic_verdict`` is the overall stability kind from the
    time-domain run, or None when the combination was not selected for
    dynamic verification.
    """

    combination: OutageCombination
    steady_verdict: str  # critical | non_critical
    dynamic_verdict: str | None  # stable | transient_unstable | ... | None

    @property
    def dyn_critical(self) -> bool | None:
        """Dynamically critical means any verdict other than stable."""
        if self.dynamic_verdict is None:
            return None
        return self.dynamic_verdict != "stable"


# The steady classes and the dynamic classes of a verified combination, in
# report order.
_STEADY = ("critical", "non_critical")
_DYN = ("dyn_critical", "dyn_stable")


@dataclass(frozen=True)
class CrossCheckMatrix:
    """Two-level verdict tabulation.

    The first level splits all screened combinations into steady-state
    critical / non-critical; the second level splits each steady class
    of *dynamically verified* combinations into dyn-critical (any
    instability) / dyn-stable. Masses at each level sum to one; a
    conditional is None when its steady class has no verified member.
    Only the records and the verified counts are stored; every total,
    mass and conditional is computed from them.
    """

    records: tuple[CrossCheckRecord, ...]
    counts: dict[tuple[str, str], int]  # (steady, dyn) -> verified count

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def n_critical_steady(self) -> int:
        return sum(1 for r in self.records if r.steady_verdict == "critical")

    @property
    def n_noncritical_steady(self) -> int:
        return self.total - self.n_critical_steady

    @property
    def p_critical_steady(self) -> float:
        return self.n_critical_steady / self.total

    @property
    def p_noncritical_steady(self) -> float:
        return self.n_noncritical_steady / self.total

    def cell(self, steady: str, dyn: str) -> int:
        return self.counts.get((steady, dyn), 0)

    def conditional(self, steady: str, dyn: str) -> float | None:
        """P(dyn | steady) over the verified members of the steady class."""
        verified = self.cell(steady, "dyn_critical") + self.cell(steady, "dyn_stable")
        return self.cell(steady, dyn) / verified if verified else None

    @property
    def p_dyn_critical_given_critical(self) -> float | None:
        return self.conditional("critical", "dyn_critical")

    @property
    def p_dyn_stable_given_critical(self) -> float | None:
        return self.conditional("critical", "dyn_stable")

    @property
    def p_dyn_critical_given_noncritical(self) -> float | None:
        return self.conditional("non_critical", "dyn_critical")

    @property
    def p_dyn_stable_given_noncritical(self) -> float | None:
        return self.conditional("non_critical", "dyn_stable")


def cross_check(
    screen_results: Iterable[ScreeningResult],
    dynamic_verdicts: Mapping[tuple, str | StabilityVerdict],
) -> CrossCheckMatrix:
    """Cross-tabulate steady and dynamic verdicts per combination.

    ``dynamic_verdicts`` maps a combination's substation tuple to its
    overall stability kind (or the StabilityVerdict itself). Every key
    must correspond to a screened combination.
    """
    results = list(screen_results)
    by_subs = {r.combination.substations: r for r in results}
    if len(by_subs) != len(results):
        raise ValueError("duplicate combinations in screening results")
    unmatched = [k for k in dynamic_verdicts if tuple(k) not in by_subs]
    if unmatched:
        raise ValueError(f"dynamic verdicts for unscreened combinations: {unmatched}")
    if not results:
        raise ValueError("cross_check needs at least one screening result")

    overall: dict[tuple, str] = {}
    for key, v in dynamic_verdicts.items():
        overall[tuple(key)] = v.overall if isinstance(v, StabilityVerdict) else str(v)

    records = tuple(
        CrossCheckRecord(
            combination=r.combination,
            steady_verdict=r.verdict,
            dynamic_verdict=overall.get(r.combination.substations),
        )
        for r in results
    )
    counts: dict[tuple[str, str], int] = {}
    for r in records:
        if r.dynamic_verdict is None:
            continue
        dyn = "dyn_critical" if r.dyn_critical else "dyn_stable"
        key = (r.steady_verdict, dyn)
        counts[key] = counts.get(key, 0) + 1
    return CrossCheckMatrix(records=records, counts=counts)


def _fmt_prob(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


def matrix_csv(matrix: CrossCheckMatrix) -> str:
    """Render the cross-check matrix as name,value rows."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerows([
        ["name", "value"],
        ["combinations_screened", matrix.total],
        ["n_critical_steady", matrix.n_critical_steady],
        ["n_noncritical_steady", matrix.n_noncritical_steady],
        ["p_critical_steady", _fmt_prob(matrix.p_critical_steady)],
        ["p_noncritical_steady", _fmt_prob(matrix.p_noncritical_steady)],
    ])
    w.writerows([f"count_{s}_{d}", matrix.cell(s, d)] for s in _STEADY for d in _DYN)
    w.writerows(
        [f"p_{d}_given_{s.replace('_', '')}", _fmt_prob(matrix.conditional(s, d))]
        for s in _STEADY
        for d in _DYN
    )
    return buf.getvalue()


# --- cascade confirmation -----------------------------------------------------


@dataclass(frozen=True)
class PermutationPlan:
    """How to order a combination's branch removals for dynamics.

    ``auto`` runs every ordering when the branch set is small enough
    (factorial at most ``cap``, default 7!) and falls back to a seeded
    uniform sample of ``samples`` distinct orderings otherwise;
    ``single_canonical`` runs just the sorted-endpoint order.
    """

    strategy: str = "auto"  # auto | exhaustive | sample | single_canonical
    interval: float = 5.0
    cap: int = 5040
    samples: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in ("auto", "exhaustive", "sample", "single_canonical"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0 < self.interval < math.inf:
            raise ValueError("interval must be positive and finite")
        if self.cap < 1 or self.samples < 1:
            raise ValueError("cap and samples must be positive")

    def resolve(self, n_actions: int) -> str:
        if self.strategy != "auto":
            return self.strategy
        return "exhaustive" if math.factorial(n_actions) <= self.cap else "sample"

    def orders(
        self, pairs: Sequence[tuple[int, int]]
    ) -> Iterator[tuple[tuple[int, int], ...]]:
        """The orderings to run, canonical first.

        Raises ValueError, before yielding anything, when an exhaustive
        plan would run more than ``cap`` orderings.
        """
        canonical = tuple(sorted(pairs))
        strategy = self.resolve(len(canonical))
        if strategy == "single_canonical":
            return iter((canonical,))
        if strategy == "exhaustive":
            n_orders = math.factorial(len(canonical))
            if n_orders > self.cap:
                raise ValueError(
                    f"exhaustive plan over {len(canonical)} branches would run "
                    f"{len(canonical)}! = {n_orders} orderings, above cap={self.cap}"
                )
            return itertools.permutations(canonical)
        return self._sampled(canonical)

    def _sampled(
        self, canonical: tuple[tuple[int, int], ...]
    ) -> Iterator[tuple[tuple[int, int], ...]]:
        # distinct uniform sample, canonical order always included first
        rng = random.Random(self.seed)
        seen = {canonical}
        yield canonical
        produced = 1
        attempts = 0
        limit = self.samples * 50
        order = list(canonical)
        while produced < self.samples and attempts < limit:
            attempts += 1
            rng.shuffle(order)
            candidate = tuple(order)
            if candidate in seen:
                continue
            seen.add(candidate)
            produced += 1
            yield candidate


@dataclass(frozen=True)
class CascadeRun:
    """One ordering's dynamic outcome (overall kind, or an error)."""

    order: tuple[tuple[int, int], ...]
    status: str  # ok | error
    overall: str | None
    time_of_first_violation: float | None = None
    detail: str | None = None
    trace: DynamicTrace | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class CascadeSummary:
    """Per-ordering verdicts for one combination plus coherency flags."""

    combination: OutageCombination
    strategy: str
    interval: float
    runs: tuple[CascadeRun, ...]

    @property
    def canonical(self) -> CascadeRun:
        return self.runs[0]

    @property
    def fraction_unstable(self) -> float | None:
        """The unstable share of the successful runs; None if none."""
        ok = [r for r in self.runs if r.status == "ok"]
        return sum(1 for r in ok if r.overall != "stable") / len(ok) if ok else None

    @property
    def permutation_invariant(self) -> bool:
        """Whether all successful runs agree on the overall kind."""
        return len({r.overall for r in self.runs if r.status == "ok"}) <= 1


def combination_branch_set(
    case: GridCase, combination: OutageCombination
) -> tuple[tuple[int, int], ...]:
    """In-service branch endpoints incident to the combination's buses."""
    _, branch_on = outage_masks(case, combination.substations)
    removed = (case.arrays.status & ~branch_on).nonzero()[0]
    return tuple(sorted({case.branches[k].endpoints for k in removed}))


def cascade_confirm(
    case: GridCase,
    combination: OutageCombination,
    plan: PermutationPlan | None = None,
    models: Sequence[MachineModel] | None = None,
    options: ScenarioOptions | None = None,
    keep_traces: bool = False,
) -> CascadeSummary:
    """Dynamically verify a combination over switching orderings.

    Each selected ordering of the combination's branch set becomes an
    evenly spaced switching schedule; a failed run is recorded as an
    error without touching its siblings. The summary reports the
    unstable fraction over successful runs and whether all successful
    runs agree on the overall kind. ``keep_traces`` keeps the canonical
    (first) ordering's trace only.
    """
    plan = plan or PermutationPlan()
    models = tuple(models) if models is not None else default_machine_models(case)
    pairs = combination_branch_set(case, combination)
    if not pairs:
        raise ValueError(f"combination {combination} touches no in-service branch")
    orders = plan.orders(pairs)

    # every ordering starts from the same base state; when it cannot be
    # built, every ordering records that failure
    try:
        state, base_error = initial_state(case, models), None
    except Exception as exc:
        state, base_error = None, str(exc)

    runs: list[CascadeRun] = []
    for order in orders:
        if base_error is not None:
            runs.append(
                CascadeRun(order=order, status="error", overall=None, detail=base_error)
            )
            continue
        actions = [OutageAction.open_branch(a, b) for a, b in order]
        schedule = SwitchingSchedule.evenly_spaced(actions, interval=plan.interval)
        try:
            trace, verdict = run_scenario(case, schedule, models, options, state)
        except Exception as exc:  # isolate failures per ordering
            runs.append(
                CascadeRun(order=order, status="error", overall=None, detail=str(exc))
            )
            continue
        runs.append(
            CascadeRun(
                order=order,
                status="ok",
                overall=verdict.overall,
                time_of_first_violation=verdict.time_of_first_violation,
                trace=trace if keep_traces and not runs else None,
            )
        )
    return CascadeSummary(
        combination=combination,
        strategy=plan.resolve(len(pairs)),
        interval=plan.interval,
        runs=tuple(runs),
    )


# --- re-evaluation ------------------------------------------------------------


@dataclass(frozen=True)
class ReEvaluationRecord:
    """Outcome of the adjustment ladder for one disagreement."""

    combination: OutageCombination
    kind: str  # steady_noncritical_dyn_unstable | steady_critical_dyn_stable
    adjustments: tuple[str, ...]
    resolution: str  # reconciled | persistent


def re_evaluate(
    case: GridCase,
    combination: OutageCombination,
    steady_verdict: str,
    dynamic_verdict: str,
    models: Sequence[MachineModel] | None = None,
    interval: float = 5.0,
    dt: float = 0.01,
) -> ReEvaluationRecord:
    """Walk the deterministic adjustment ladder for a disagreeing pair.

    Rungs, in order: (1) re-screen from a flat start at tolerance 1e-8;
    (2) re-run dynamics with dt halved; (3) re-run dynamics with the
    switching interval stretched to the 15 s upper bound. The first
    rung whose re-run agrees with the other simulator reconciles the
    pair; if none does the disagreement is persistent.
    """
    steady_critical = steady_verdict == "critical"
    dyn_critical = dynamic_verdict != "stable"
    if steady_critical == dyn_critical:
        raise ValueError(
            f"no disagreement: steady={steady_verdict!r} dynamic={dynamic_verdict!r}"
        )
    kind = (
        "steady_noncritical_dyn_unstable"
        if dyn_critical
        else "steady_critical_dyn_stable"
    )
    models = tuple(models) if models is not None else default_machine_models(case)
    pairs = combination_branch_set(case, combination)
    actions = [OutageAction.open_branch(a, b) for a, b in pairs]
    adjustments: list[str] = []
    state: DynamicState | None = None  # built by the first dynamic rung

    def dynamics_overall(run_dt: float, run_interval: float) -> str:
        nonlocal state
        if state is None:
            state = initial_state(case, models)
        schedule = SwitchingSchedule.evenly_spaced(actions, interval=run_interval)
        _, verdict = run_scenario(
            case, schedule, models, ScenarioOptions(dt=run_dt), state
        )
        return verdict.overall

    # rung 1: steady side, flat start at tight tolerance
    strict = screen_combination(
        case,
        combination,
        PowerFlowOptions(tolerance=1e-8, flat_start=True),
    )
    adjustments.append(f"flat_start_tol_1e-08 -> {strict.verdict}")
    if (strict.verdict == "critical") == dyn_critical:
        return ReEvaluationRecord(combination, kind, tuple(adjustments), "reconciled")

    # rung 2: dynamic side, halved step
    overall = dynamics_overall(dt / 2.0, interval)
    adjustments.append(f"half_dt -> {overall}")
    if (overall != "stable") == steady_critical:
        return ReEvaluationRecord(combination, kind, tuple(adjustments), "reconciled")

    # rung 3: dynamic side, 15 s switching interval
    overall = dynamics_overall(dt, 15.0)
    adjustments.append(f"interval_15s -> {overall}")
    if (overall != "stable") == steady_critical:
        return ReEvaluationRecord(combination, kind, tuple(adjustments), "reconciled")

    return ReEvaluationRecord(combination, kind, tuple(adjustments), "persistent")


def reeval_csv(records: Iterable[ReEvaluationRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["combination", "kind", "adjustments", "resolution"])
    for r in records:
        w.writerow([str(r.combination), r.kind, "; ".join(r.adjustments), r.resolution])
    return buf.getvalue()


# --- full pipeline ------------------------------------------------------------


@dataclass(frozen=True)
class DynPolicy:
    """Which screened combinations get dynamic verification.

    Every steady-critical combination, plus a seeded uniform sample of the
    non-critical ones sized by ``noncritical_fraction`` (at least
    ``min_noncritical`` whenever the fraction or minimum is positive and
    candidates exist).
    """

    noncritical_fraction: float = 0.05
    min_noncritical: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.noncritical_fraction <= 1.0:
            raise ValueError("noncritical_fraction must be within [0, 1]")
        if self.min_noncritical < 0:
            raise ValueError("min_noncritical must be non-negative")

    def sample_size(self, n_noncritical: int) -> int:
        if self.noncritical_fraction == 0.0 and self.min_noncritical == 0:
            return 0
        target = max(
            self.min_noncritical, round(self.noncritical_fraction * n_noncritical)
        )
        return min(target, n_noncritical)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run depends on besides the case itself."""

    k_max: int = 1
    budget: int | None = None
    seed: int = 0
    policy: DynPolicy = field(default_factory=DynPolicy)
    plan: PermutationPlan = field(
        default_factory=lambda: PermutationPlan(strategy="single_canonical")
    )
    dt: float = 0.01
    subset: tuple[int, ...] | None = None
    prune: bool = True
    workers: int | None = None
    trace_decimate: int = 10


@dataclass(frozen=True)
class PipelineReport:
    """Everything a pipeline run produced; ``cascades`` are in selection
    order."""

    config: PipelineConfig
    screening: ScreeningRun
    cascades: tuple[CascadeSummary, ...]
    matrix: CrossCheckMatrix
    reevaluations: tuple[ReEvaluationRecord, ...]

    @property
    def verified(self) -> tuple[tuple[OutageCombination, str], ...]:
        """(combination, overall kind) of each canonical run that finished."""
        return tuple((c.combination, c.canonical.overall)
                     for c in self.cascades if c.canonical.status == "ok")

    @property
    def failed(self) -> tuple[tuple[OutageCombination, str], ...]:
        """(combination, error detail) of each canonical run that raised."""
        return tuple((c.combination, c.canonical.detail or "unknown error")
                     for c in self.cascades if c.canonical.status != "ok")


def _select_for_dynamics(
    results: Sequence[ScreeningResult], policy: DynPolicy, seed: int
) -> list[ScreeningResult]:
    def combo_key(r: ScreeningResult):
        return tuple(map(_sub_key, r.combination.substations))

    criticals = sorted(
        (r for r in results if r.verdict == "critical"), key=combo_key
    )
    noncriticals = sorted(
        (r for r in results if r.verdict != "critical"), key=combo_key
    )
    sampled = random.Random(seed).sample(noncriticals, policy.sample_size(len(noncriticals)))
    return sorted(criticals + sampled, key=combo_key)


def _summary_text(report: PipelineReport, case: GridCase) -> str:
    run = report.screening
    m = report.matrix
    lines: list[str] = []
    lines.append(
        f"case: {len(case.buses)} buses, {len(case.branches)} branches, "
        f"{len(case.substations)} substations"
    )
    lines.append(
        f"screening: k_max={report.config.k_max} evaluations={run.evaluations} "
        f"pruned={run.pruned} coverage={run.coverage:.12g}"
    )
    if run.coverage < 1.0:
        lines.append(
            f"screening budget exhausted ({run.budget}): results cover a partial sweep"
        )
    criticals = [
        r for pl in run.levels for r in pl.results if r.verdict == "critical"
    ]
    lines.append(f"steady-critical combinations: {len(criticals)}")
    for r in criticals:
        lines.append(f"  {r.combination}: {r.reason}")
    lines.append(f"dynamically verified: {len(report.verified)}")
    for combo, overall in report.verified:
        lines.append(f"  {combo}: {overall}")
    for combo, detail in report.failed:
        lines.append(f"  {combo}: dynamics error: {detail}")
    lines.append(
        "cross-check: "
        f"P(critical)={m.p_critical_steady:.12g} "
        f"P(non-critical)={m.p_noncritical_steady:.12g}"
    )
    for s in _STEADY:
        lines.append("  " + " ".join(
            f"P({d.replace('_', '-')}|{s.replace('_', '-')})=" + _fmt_prob(m.conditional(s, d))
            for d in _DYN
        ))
    lines.append(f"re-evaluations: {len(report.reevaluations)}")
    for rec in report.reevaluations:
        lines.append(f"  {rec.combination}: {rec.kind} -> {rec.resolution}")
    return "\n".join(lines) + "\n"


def _combo_slug(combination: OutageCombination) -> str:
    return "-".join(str(s) for s in combination.substations)


def run_pipeline(
    case: GridCase,
    config: PipelineConfig | None = None,
    run_dir: str | Path | None = None,
    models: Sequence[MachineModel] | None = None,
) -> PipelineReport:
    """Screen, verify dynamically per policy, cross-check, re-evaluate.

    With ``run_dir`` set, writes screening.csv, traces/<combo>.csv for
    each verified combination, matrix.csv, reeval.csv and summary.txt
    under it. Each trace file is written as soon as its combination is
    verified, and the report keeps no trace. The report holds the
    cascades in selection order; its verdict lists, the matrix and the
    re-evaluations follow from them. Identical inputs
    (including seed) produce byte-identical files: nothing time- or
    host-dependent is emitted.
    """
    config = config or PipelineConfig()
    models = tuple(models) if models is not None else default_machine_models(case)
    if run_dir is not None and config.trace_decimate < 1:
        raise ValueError("trace_decimate must be >= 1")

    screening = run_screening(
        case,
        config.k_max,
        budget=config.budget,
        subset=config.subset,
        prune=config.prune,
        workers=config.workers,
    )
    all_results = [r for pl in screening.levels for r in pl.results]
    selected = _select_for_dynamics(all_results, config.policy, config.seed)

    cascades: list[CascadeSummary] = []
    traces_dir = None
    if run_dir is not None:
        traces_dir = Path(run_dir) / "traces"
        traces_dir.mkdir(parents=True, exist_ok=True)
    for result in selected:
        summary = cascade_confirm(
            case,
            result.combination,
            plan=config.plan,
            models=models,
            options=ScenarioOptions(dt=config.dt),
            keep_traces=traces_dir is not None,
        )
        canonical = summary.canonical
        if canonical.trace is not None:
            path = traces_dir / f"combo_{_combo_slug(result.combination)}.csv"
            with path.open("w") as f:
                f.writelines(_csv_lines(canonical.trace, config.trace_decimate))
            summary = replace(summary, runs=(replace(canonical, trace=None), *summary.runs[1:]))
        cascades.append(summary)

    matrix = cross_check(all_results, {
        c.combination.substations: c.canonical.overall
        for c in cascades if c.canonical.status == "ok"
    })
    reevaluations = tuple(
        re_evaluate(case, r.combination, r.steady_verdict, r.dynamic_verdict,
                    models=models, interval=config.plan.interval, dt=config.dt)
        for r in matrix.records
        if r.dynamic_verdict is not None and (r.steady_verdict == "critical") != r.dyn_critical
    )
    report = PipelineReport(config=config, screening=screening, cascades=tuple(cascades),
                            matrix=matrix, reevaluations=reevaluations)

    if run_dir is not None:
        out = Path(run_dir)
        (out / "screening.csv").write_text(screening_report_csv(screening))
        (out / "matrix.csv").write_text(matrix_csv(matrix))
        (out / "reeval.csv").write_text(reeval_csv(reevaluations))
        (out / "summary.txt").write_text(_summary_text(report, case))

    return report
