"""Steady-state contingency screening over substation outage combinations.

Enumerates n-choose-k substation outage sets, applies each to the grid
model, and classifies the post-outage steady state as critical or
non-critical. A combination is critical when the surviving network has
no usable power-flow solution: some energized island diverges (or has
no synchronous steady state at all), or nothing servable remains.
Voltage and loading violations alone do not make a combination
critical; they are recorded for ranking and later dynamic verification.

Supersets of a known critical combination are assumed critical without
re-solving (containment pruning). The assumption is monotonicity of
collapse under additional outages; it is plausible but unproven, so
pruning can be disabled for audit runs and the pruned/unpruned critical
sets compared.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .model import GridCase
from .powerflow import PowerFlowOptions, Violation, check_violations, solve_islands
from .topology import apply_substation_outage, find_islands

__all__ = [
    "OutageCombination",
    "ScreeningResult",
    "PriorityList",
    "ScreeningRun",
    "count_combinations",
    "enumerate_combinations",
    "screen_combination",
    "run_screening",
    "screening_report_csv",
    "worker_count",
]


def worker_count() -> int:
    """Worker processes for screening sweeps (GRIDIMPACT_WORKERS, default 1),
    at most ``os.cpu_count()``."""
    raw = os.environ.get("GRIDIMPACT_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, min(n, os.cpu_count() or 1))


@dataclass(frozen=True)
class OutageCombination:
    """A distinct, sorted k-subset of substation ids to take out together."""

    substations: tuple[int | str, ...]

    def __post_init__(self) -> None:
        subs = tuple(self.substations)
        if len(subs) == 0:
            raise ValueError("outage combination must not be empty")
        if len(set(subs)) != len(subs):
            raise ValueError(f"duplicate substations in combination: {subs}")
        if list(subs) != sorted(subs, key=_sub_key):
            raise ValueError(f"combination must be sorted: {subs}")
        object.__setattr__(self, "substations", subs)

    @property
    def level(self) -> int:
        return len(self.substations)

    def contains(self, other: "OutageCombination") -> bool:
        return set(other.substations) <= set(self.substations)

    def __str__(self) -> str:
        return "+".join(str(s) for s in self.substations)


def _sub_key(s: int | str):
    # ints before strings, each ordered naturally
    return (0, s, "") if isinstance(s, int) else (1, 0, s)


@dataclass(frozen=True)
class ScreeningResult:
    """Steady-state verdict for one outage combination.

    ``verdict`` is critical exactly when ``reason`` is ``diverged`` or
    ``dead_system``. ``unserved_mw`` totals load in dead (de-energized)
    islands; for pruned results it is inherited from the contained
    ancestor. ``critical_by`` names the ancestor combination when the
    verdict came from containment pruning rather than a solve.
    """

    combination: OutageCombination
    verdict: str
    reason: str
    violations: tuple[Violation, ...]
    island_count: int
    unserved_mw: float
    critical_by: OutageCombination | None = None

    def __post_init__(self) -> None:
        crit = self.reason in ("diverged", "dead_system")
        if (self.verdict == "critical") != crit:
            raise ValueError(
                f"verdict {self.verdict!r} inconsistent with reason {self.reason!r}"
            )


@dataclass(frozen=True)
class PriorityList:
    """Ranked screening results for one outage level.

    Critical combinations first, then descending unserved megawatts,
    with the combination itself as the final tiebreaker so the order is
    total and reproducible.
    """

    level: int
    results: tuple[ScreeningResult, ...]

    @staticmethod
    def ranked(level: int, results: Iterable[ScreeningResult]) -> "PriorityList":
        def key(r: ScreeningResult):
            return (
                0 if r.verdict == "critical" else 1,
                -r.unserved_mw,
                tuple(_sub_key(s) for s in r.combination.substations),
            )

        return PriorityList(level, tuple(sorted(results, key=key)))

    @property
    def critical(self) -> tuple[ScreeningResult, ...]:
        return tuple(r for r in self.results if r.verdict == "critical")


@dataclass(frozen=True)
class ScreeningRun:
    """Outcome of a level-wise screening sweep."""

    levels: tuple[PriorityList, ...]
    evaluations: int
    pruned: int
    budget: int | None
    coverage: float  # combinations classified / combinations enumerable

    def level(self, k: int) -> PriorityList:
        for pl in self.levels:
            if pl.level == k:
                return pl
        raise KeyError(f"no screening results for level {k}")


def count_combinations(n: int, k: int) -> int:
    """Number of distinct k-subsets of n substations, C(n, k)."""
    if k < 0 or n < 0:
        raise ValueError("n and k must be non-negative")
    if k > n:
        raise ValueError(f"cannot choose {k} of {n} substations")
    return math.comb(n, k)


def enumerate_combinations(
    case: GridCase,
    k: int,
    subset: Sequence[int | str] | None = None,
) -> Iterator[OutageCombination]:
    """Stream all level-k outage combinations in lexicographic order.

    ``subset`` restricts the universe to the given substation ids
    (default: every substation in the case). The stream is lazy; no
    full materialization happens here.
    """
    if k < 1:
        raise ValueError("outage level must be at least 1")
    if subset is None:
        universe = [s.id for s in case.substations]
    else:
        known = {s.id for s in case.substations}
        universe = list(subset)
        unknown = [s for s in universe if s not in known]
        if unknown:
            raise ValueError(f"unknown substations in filter: {unknown}")
    universe.sort(key=_sub_key)
    for combo in itertools.combinations(universe, k):
        yield OutageCombination(combo)


def screen_combination(case: GridCase, combo: OutageCombination,
                       options: PowerFlowOptions | None = None) -> ScreeningResult:
    """Classify one outage combination by island-aware power flow.

    Pipeline: remove the substations, partition into islands, solve
    every servable island (with the nameplate-capability gate), then
    aggregate: ``diverged`` if any energized island has no solution,
    ``dead_system`` if nothing servable remains, otherwise
    ``islanded_unserved_load`` / ``violations_only`` / ``clean``.
    """
    options = options or PowerFlowOptions()
    reduced, _, _ = apply_substation_outage(case, combo.substations)
    partition = find_islands(reduced)
    solution, _ = solve_islands(
        reduced, options, partition=partition, enforce_capability=True
    )
    unserved = sum(
        reduced.bus(b).load_p
        for isl in partition.islands
        if isl.dead
        for b in isl.buses
    )
    if solution.cause == "dead_system":
        return ScreeningResult(
            combination=combo,
            verdict="critical",
            reason="dead_system",
            violations=(),
            island_count=len(partition),
            unserved_mw=unserved,
        )
    if not solution.converged:
        return ScreeningResult(
            combination=combo,
            verdict="critical",
            reason="diverged",
            violations=(),
            island_count=len(partition),
            unserved_mw=unserved,
        )
    violations = tuple(check_violations(reduced, solution))
    if unserved > 0.0:
        reason = "islanded_unserved_load"
    elif violations:
        reason = "violations_only"
    else:
        reason = "clean"
    return ScreeningResult(
        combination=combo,
        verdict="non_critical",
        reason=reason,
        violations=violations,
        island_count=len(partition),
        unserved_mw=unserved,
    )


# (case, options) of a pool worker, set once by its initializer
_worker_job: tuple[GridCase, PowerFlowOptions] | None = None


def _init_worker(case: GridCase, options: PowerFlowOptions) -> None:
    global _worker_job
    _worker_job = (case, options)


def _screen_in_worker(combo: OutageCombination) -> ScreeningResult:
    case, options = _worker_job
    return screen_combination(case, combo, options)


def run_screening(
    case: GridCase,
    k_max: int,
    budget: int | None = None,
    subset: Sequence[int | str] | None = None,
    prune: bool = True,
    options: PowerFlowOptions | None = None,
    workers: int | None = None,
) -> ScreeningRun:
    """Level-wise screening sweep for levels 1..k_max.

    Levels run in order; every superset of an already-critical
    combination is recorded critical-by-containment without a solve
    when ``prune`` is on. ``budget`` caps the number of power-flow
    evaluations (pruned records are free); when it runs out the sweep
    stops and ``coverage`` reports the classified fraction.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    options = options or PowerFlowOptions()
    nworkers = (
        worker_count() if workers is None else max(1, min(workers, os.cpu_count() or 1))
    )
    n_universe = len(case.substations) if subset is None else len(subset)

    total_enumerable = sum(
        count_combinations(n_universe, k) for k in range(1, k_max + 1)
    )
    # solved critical combinations -> their results, in discovery order;
    # pruning takes the first one a combination contains
    critical: dict[OutageCombination, ScreeningResult] = {}
    levels: list[PriorityList] = []
    evaluations = 0
    pruned_count = 0
    classified = 0
    exhausted = False

    for k in range(1, k_max + 1):
        if exhausted:
            break
        results: list[ScreeningResult] = []
        to_solve: list[OutageCombination] = []
        pruned_here: list[tuple[OutageCombination, OutageCombination]] = []
        for combo in enumerate_combinations(case, k, subset):
            hit = None
            if prune:
                cset = set(combo.substations)
                hit = next((a for a in critical if cset.issuperset(a.substations)), None)
            if hit is not None:
                pruned_here.append((combo, hit))
            else:
                to_solve.append(combo)

        if budget is not None and evaluations + len(to_solve) > budget:
            to_solve = to_solve[: max(0, budget - evaluations)]
            exhausted = True

        if nworkers > 1 and len(to_solve) > 1:
            from concurrent.futures import ProcessPoolExecutor

            # forked workers inherit the solver's scipy modules: import
            # them here once instead of in every worker
            import scipy.sparse.csgraph  # noqa: F401
            import scipy.sparse.linalg  # noqa: F401

            with ProcessPoolExecutor(
                max_workers=nworkers, initializer=_init_worker, initargs=(case, options)
            ) as pool:
                solved = list(
                    pool.map(
                        _screen_in_worker,
                        to_solve,
                        chunksize=max(1, len(to_solve) // (8 * nworkers)),
                    )
                )
        else:
            solved = [screen_combination(case, c, options) for c in to_solve]
        evaluations += len(solved)
        results.extend(solved)

        for combo, anc in pruned_here:
            anc_result = critical[anc]
            results.append(
                ScreeningResult(
                    combination=combo,
                    verdict="critical",
                    reason=anc_result.reason,
                    violations=(),
                    island_count=anc_result.island_count,
                    unserved_mw=anc_result.unserved_mw,
                    critical_by=anc,
                )
            )
        pruned_count += len(pruned_here)
        classified += len(solved) + len(pruned_here)

        critical.update((r.combination, r) for r in solved if r.verdict == "critical")
        levels.append(PriorityList.ranked(k, results))

    coverage = classified / total_enumerable if total_enumerable else 1.0
    return ScreeningRun(
        levels=tuple(levels),
        evaluations=evaluations,
        pruned=pruned_count,
        budget=budget,
        coverage=coverage,
    )


def screening_report_csv(run: ScreeningRun) -> str:
    """Render a screening run as CSV.

    Columns: level, substations, verdict, reason, islands, unserved_mw,
    violations (count), critical_by.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["level", "substations", "verdict", "reason", "islands",
         "unserved_mw", "violations", "critical_by"]
    )
    for pl in run.levels:
        for r in pl.results:
            w.writerow(
                [
                    pl.level,
                    str(r.combination),
                    r.verdict,
                    r.reason,
                    r.island_count,
                    f"{r.unserved_mw:.1f}",
                    len(r.violations),
                    str(r.critical_by) if r.critical_by else "",
                ]
            )
    return buf.getvalue()
