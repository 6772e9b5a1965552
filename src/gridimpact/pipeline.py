"""Orchestration: screening, dynamic verification and cross-checking.

Glues the steady-state screen to the time-domain verifier. Screened
combinations selected by policy (every critical one plus a seeded
sample of non-critical ones) are re-run dynamically, their branch sets
opened one by one in sorted order (cascade confirmation), the two verdicts
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
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .dynamics import (
    DynamicState,
    DynamicTrace,
    ScenarioOptions,
    SwitchingSchedule,
    default_machine_models,
    initial_state,
    run_scenario,
    trace_to_csv,
)
from .model import GridCase
from .powerflow import PowerFlowOptions
from .screening import (
    OutageCombination,
    ScreeningResult,
    ScreeningRun,
    _pool_size,
    _sweep,
    _worker_pool,
    run_screening,  # noqa: F401  (gridbench/spans.py wraps it here)
    screen_combination,
    screening_report_csv,
)
from .topology import OutageAction, outage_masks

__all__ = [
    "CrossCheckMatrix",
    "cross_check",
    "matrix_csv",
    "CascadeRun",
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
    Only counts are stored; every mass and conditional is computed from
    them.
    """

    total: int  # screened combinations
    n_critical_steady: int
    counts: dict[tuple[str, str], int]  # (steady, dyn) -> verified count

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
    dynamic_verdicts: Mapping[tuple, str],
) -> CrossCheckMatrix:
    """Cross-tabulate steady and dynamic verdicts per combination.

    ``dynamic_verdicts`` maps a combination's substation tuple to its
    overall stability kind; any kind but ``stable`` is dyn-critical.
    Every key must be a screened combination's.
    """
    screened: set[tuple] = set()
    n_critical = 0
    counts: dict[tuple[str, str], int] = {}
    for r in screen_results:
        subs = r.combination.substations
        if subs in screened:
            raise ValueError("duplicate combinations in screening results")
        screened.add(subs)
        n_critical += r.verdict == "critical"
        overall = dynamic_verdicts.get(subs)
        if overall is not None:
            key = (r.verdict, "dyn_stable" if overall == "stable" else "dyn_critical")
            counts[key] = counts.get(key, 0) + 1
    unmatched = [k for k in dynamic_verdicts if k not in screened]
    if unmatched:
        raise ValueError(f"dynamic verdicts for unscreened combinations: {unmatched}")
    if not screened:
        raise ValueError("cross_check needs at least one screening result")
    return CrossCheckMatrix(len(screened), n_critical, counts)


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

# Every dynamic run opens its branches SWITCH_INTERVAL seconds apart at
# the library's step, ScenarioOptions().dt.
SWITCH_INTERVAL = 5.0


@dataclass(frozen=True)
class CascadeRun:
    """One combination's dynamic outcome (overall kind, or an error)."""

    combination: OutageCombination
    status: str  # ok | error
    overall: str | None
    time_of_first_violation: float | None = None
    detail: str | None = None
    trace: DynamicTrace | None = field(default=None, repr=False, compare=False)


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
    trace_every: int | None = None,
) -> CascadeRun:
    """Dynamically verify a combination: open its branch set, in
    ``combination_branch_set``'s sorted order, ``SWITCH_INTERVAL`` apart
    from the default machine models, and read the verdict. A run that
    raises, or a combination that touches no in-service branch, is
    recorded as an error run. With ``trace_every`` set, a finished run
    keeps its trace of every ``trace_every``-th sample; without it, it
    records none.
    """
    pairs = combination_branch_set(case, combination)
    # an empty branch set's only run is an error that never reads a base state
    state = _base_state(case) if pairs else None
    return _run_order(case, combination, pairs, SWITCH_INTERVAL, ScenarioOptions().dt,
                      state, trace_every=trace_every)


def _base_state(case: GridCase) -> DynamicState | Exception:
    """The state every dynamic run of a combination starts from, built
    for the default machine models, or the exception that building it
    raised."""
    try:
        return initial_state(case, default_machine_models(case))
    except Exception as exc:  # each run from it records the failure
        return exc


def _run_order(
    case: GridCase, combination: OutageCombination, order: tuple[tuple[int, int], ...],
    interval: float, dt: float, state: DynamicState | Exception | None,
    trace_every: int | None = None,
) -> CascadeRun:
    """Open ``order``'s branches ``interval`` apart from ``state`` at step
    ``dt`` and read ``combination``'s verdict. A run that raises, an empty
    order (which never reads ``state``) or a failed base state is recorded
    as an error; with ``trace_every`` set, a finished run keeps its trace
    of every ``trace_every``-th sample, and without it records none."""
    if not order:
        return CascadeRun(combination, "error", None,
                          detail="the combination touches no in-service branch")
    actions = [OutageAction.open_branch(a, b) for a, b in order]
    schedule = SwitchingSchedule.evenly_spaced(actions, interval)
    try:
        if isinstance(state, Exception):
            raise state  # the base state could not be built
        trace, verdict = run_scenario(case, schedule, options=ScenarioOptions(dt=dt),
                                      state=state, trace_every=trace_every)
    except Exception as exc:  # isolate a failed run
        return CascadeRun(combination, "error", None, detail=str(exc))
    return CascadeRun(combination, "ok", verdict.overall,
                      verdict.time_of_first_violation,
                      trace=None if trace_every is None else trace)


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
) -> ReEvaluationRecord:
    """Walk the deterministic adjustment ladder for a disagreeing pair.

    Rungs, in order: (1) re-screen from a flat start at tolerance 1e-8;
    (2) re-run dynamics with the step halved; (3) re-run dynamics with
    the switching interval stretched from ``SWITCH_INTERVAL`` to the 15 s
    upper bound. Both dynamic rungs use the default machine models. The
    first rung whose re-run agrees with the other simulator reconciles
    the pair; if none does the disagreement is persistent.
    """
    steady_critical = steady_verdict == "critical"
    dyn_critical = dynamic_verdict != "stable"
    if steady_critical == dyn_critical:
        raise ValueError(
            f"no disagreement: steady={steady_verdict!r} dynamic={dynamic_verdict!r}"
        )
    kind = "steady_noncritical_dyn_unstable" if dyn_critical else "steady_critical_dyn_stable"
    adjustments: list[str] = []

    # rung 1: steady side, flat start at tight tolerance
    strict = screen_combination(
        case,
        combination,
        PowerFlowOptions(tolerance=1e-8, flat_start=True),
    )
    adjustments.append(f"flat_start_tol_1e-08 -> {strict.verdict}")
    if (strict.verdict == "critical") == dyn_critical:
        return ReEvaluationRecord(combination, kind, tuple(adjustments), "reconciled")

    # rungs 2 and 3: dynamic side, halved step, then 15 s switching
    # interval, both from one base state and recording no trace; a rung
    # whose run raises records its error and reconciles nothing
    pairs = combination_branch_set(case, combination)
    state = _base_state(case)
    dt = ScenarioOptions().dt
    for label, run_interval, run_dt in (("half_dt", SWITCH_INTERVAL, dt / 2.0),
                                        ("interval_15s", 15.0, dt)):
        run = _run_order(case, combination, pairs, run_interval, run_dt, state)
        outcome = run.overall if run.status == "ok" else f"error: {run.detail}"
        adjustments.append(f"{label} -> {outcome}")
        if run.status == "ok" and (run.overall != "stable") == steady_critical:
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

# A report's trace file holds every TRACE_EVERY-th sample of its
# combination's confirmation run (every 0.1 s at the default 10 ms step).
TRACE_EVERY = 10


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
    subset: tuple[int, ...] | None = None
    prune: bool = True
    workers: int = 1


@dataclass(frozen=True)
class PipelineReport:
    """Everything a pipeline run produced; ``cascades`` are in selection
    order."""

    config: PipelineConfig
    screening: ScreeningRun
    cascades: tuple[CascadeRun, ...]
    matrix: CrossCheckMatrix
    reevaluations: tuple[ReEvaluationRecord, ...]

    @property
    def verified(self) -> tuple[tuple[OutageCombination, str], ...]:
        """(combination, overall kind) of each run that finished."""
        return tuple((c.combination, c.overall) for c in self.cascades if c.status == "ok")

    @property
    def failed(self) -> tuple[tuple[OutageCombination, str], ...]:
        """(combination, error detail) of each run that raised."""
        return tuple((c.combination, c.detail or "unknown error")
                     for c in self.cascades if c.status != "ok")


def _select_for_dynamics(
    results: Sequence[ScreeningResult], policy: DynPolicy, seed: int
) -> list[ScreeningResult]:
    def combo_key(r: ScreeningResult):
        return r.combination.key

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


def _confirm(case: GridCase, combination: OutageCombination,
             traces_dir: Path | None) -> CascadeRun:
    """``cascade_confirm`` of a selected combination. With ``traces_dir``
    set, the run's trace is written to ``traces_dir/combo_<name>.csv``,
    where the name is the combination as it prints with ``+`` turned into
    ``-``, and the returned run keeps none. A confirmation that raises
    becomes an error run (and its traceback is logged)."""
    try:
        run = cascade_confirm(case, combination,
                              trace_every=None if traces_dir is None else TRACE_EVERY)
        if run.trace is None:
            return run
        name = str(combination).replace("+", "-")
        (traces_dir / f"combo_{name}.csv").write_text(trace_to_csv(run.trace))
    except Exception as exc:  # isolate failures per combination
        import logging

        logging.getLogger(__name__).exception("confirming %s raised", combination)
        return CascadeRun(combination, "error", None, detail=str(exc))
    return replace(run, trace=None)


def run_pipeline(
    case: GridCase,
    config: PipelineConfig | None = None,
    run_dir: str | Path | None = None,
) -> PipelineReport:
    """Screen, verify dynamically per policy, cross-check, re-evaluate.

    With ``run_dir`` set, writes screening.csv, traces/<combo>.csv for
    each verified combination, matrix.csv, reeval.csv and summary.txt
    under it; a ``run_dir`` that is neither new nor empty is refused
    before any work. A trace file holds every ``TRACE_EVERY``-th sample
    of its combination's confirmation run, the only samples that run
    records; it is written by the process that ran the confirmation, and
    the report keeps no trace. A confirmation that raises is reported as
    a dynamics error.

    One task runner (``_worker_pool``) of ``config.workers`` processes,
    at most one per CPU, runs every screening level, confirmation and
    re-evaluation ladder. With one worker it starts no process: a task
    runs here when its result is read, so the stages run in turn. With
    more it is one fork pool, and a confirmation starts once its
    combination is known to be selected: when it is pruned, ahead of its
    level's sweep when it is critical from its islands alone (a pre-pass
    made only on a pool), when its screen returns critical, and after
    the last level for the non-critical sample. Confirmations are read
    in selection order, and a disagreement's re-evaluation ladder is
    queued as soon as its confirmation is read. The report holds the
    cascades in selection order and the re-evaluations in matrix order,
    so identical inputs (including seed) give byte-identical files on
    any number of workers: nothing time- or host-dependent is emitted.
    """
    config = config or PipelineConfig()
    if config.budget is not None and config.budget < 1:
        raise ValueError(f"budget must be at least 1, got {config.budget}: "
                         "the cross-check needs a screened combination")
    nworkers = _pool_size(case, config.k_max, config.budget, config.subset, config.workers)
    run_dir = None if run_dir is None else Path(run_dir)
    # a second run into one directory would leave the first run's traces
    if run_dir is not None and run_dir.exists() and (
            not run_dir.is_dir() or any(run_dir.iterdir())):
        raise ValueError(f"run directory {run_dir} is neither new nor empty")
    traces_dir = None if run_dir is None else run_dir / "traces"
    if traces_dir is not None:  # a run directory holds traces/, even empty
        traces_dir.mkdir(parents=True)

    with _worker_pool(case, nworkers) as tasks:
        confirmations: dict[OutageCombination, Callable[[], CascadeRun]] = {}

        def confirm(combination: OutageCombination) -> None:
            # every critical combination is selected: confirm it once known
            if combination not in confirmations:
                confirmations[combination] = tasks.later(_confirm, combination, traces_dir)

        screening = _sweep(case, config.k_max, config.budget, config.subset,
                           config.prune, tasks, on_critical=confirm)
        all_results = [r for pl in screening.levels for r in pl.results]
        selected = _select_for_dynamics(all_results, config.policy, config.seed)
        for result in selected:
            confirm(result.combination)
        cascades: list[CascadeRun] = []
        ladders: dict[OutageCombination, Callable[[], ReEvaluationRecord]] = {}
        for r in selected:
            run = confirmations[r.combination]()
            cascades.append(run)
            if run.status == "ok" and (r.verdict == "critical") != (run.overall != "stable"):
                ladders[r.combination] = tasks.later(re_evaluate, r.combination, r.verdict,
                                                     run.overall)

        matrix = cross_check(all_results, {
            c.combination.substations: c.overall for c in cascades if c.status == "ok"
        })
        reevaluations = tuple(ladders[r.combination]() for r in all_results
                              if r.combination in ladders)  # in matrix order

    report = PipelineReport(config=config, screening=screening, cascades=tuple(cascades),
                            matrix=matrix, reevaluations=reevaluations)
    if run_dir is not None:
        (run_dir / "screening.csv").write_text(screening_report_csv(screening))
        (run_dir / "matrix.csv").write_text(matrix_csv(matrix))
        (run_dir / "reeval.csv").write_text(reeval_csv(reevaluations))
        (run_dir / "summary.txt").write_text(_summary_text(report, case))

    return report
