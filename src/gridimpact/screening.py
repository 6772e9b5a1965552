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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .model import GridCase
from .powerflow import (
    PowerFlowOptions,
    Violation,
    _generation_deficit,
    check_violations,
    solve_islands,
)
from .topology import (
    apply_substation_outage,  # noqa: F401  (gridbench/spans.py wraps it here)
    find_islands,
    outage_masks,
)

if TYPE_CHECKING:
    from concurrent.futures import Executor

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
]


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

    def __str__(self) -> str:
        return "+".join(str(s) for s in self.substations)


def _sub_key(s: int | str):
    # ints before strings, each ordered naturally
    return (0, s, "") if isinstance(s, int) else (1, 0, s)


@dataclass(frozen=True)
class ScreeningResult:
    """Steady-state verdict for one outage combination.

    ``verdict`` is critical exactly when ``reason`` is ``diverged``,
    ``dead_system`` or ``error`` (the screen raised; such a result has no
    islands, no unserved load and prunes nothing). ``unserved_mw`` totals
    load in dead (de-energized) islands; for pruned results it is
    inherited from the contained ancestor. ``critical_by`` names the
    ancestor combination when the verdict came from containment pruning
    rather than a solve. ``cause`` says why a critical combination has
    no steady state: the cause of its first failing island
    (``max_iterations``, ``singular_jacobian``, ``numerical_overflow`` or
    ``generation_deficit``), ``dead_system`` or ``error``; a pruned result
    carries its ancestor's, and a non-critical one None.
    """

    combination: OutageCombination
    reason: str
    violations: tuple[Violation, ...]
    island_count: int
    unserved_mw: float
    critical_by: OutageCombination | None = None
    cause: str | None = None

    @property
    def verdict(self) -> str:
        critical = self.reason in ("diverged", "dead_system", "error")
        return "critical" if critical else "non_critical"


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
    (default: every substation in the case); an unknown or repeated id
    raises ValueError at the first draw. The stream is lazy; no full
    materialization happens here.
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
        repeated = sorted({s for s in universe if universe.count(s) > 1}, key=_sub_key)
        if repeated:
            raise ValueError(f"repeated substations in filter: {repeated}")
    universe.sort(key=_sub_key)
    for combo in itertools.combinations(universe, k):
        yield OutageCombination(combo)


def screen_combination(case: GridCase, combo: OutageCombination,
                       options: PowerFlowOptions | None = None) -> ScreeningResult:
    """Classify one outage combination by island-aware power flow.

    Pipeline: mask the substations out of the case, partition what is
    left into islands, solve every servable island (with the
    nameplate-capability gate), then aggregate: ``diverged`` if any
    energized island has no solution, ``dead_system`` if nothing servable
    remains, otherwise ``islanded_unserved_load`` / ``violations_only`` /
    ``clean``. No reduced case is built: all of it runs over the case's
    own bus and branch order.
    """
    options = options or PowerFlowOptions()
    partition = find_islands(case, *outage_masks(case, combo.substations))
    solution, _ = solve_islands(case, options, partition=partition)
    load_p = case.arrays.load_p
    unserved = sum((p for isl in partition.islands if not isl.servable
                    for p in load_p[isl.at].tolist()), 0.0)
    common = dict(combination=combo, island_count=len(partition), unserved_mw=unserved)
    if solution.cause == "dead_system":
        return ScreeningResult(reason="dead_system", violations=(), cause="dead_system",
                               **common)
    if not solution.converged:
        cause = next(isl.cause for isl in solution.islands
                     if isl.cause not in (None, "dead_island"))
        return ScreeningResult(reason="diverged", violations=(), cause=cause, **common)
    violations = tuple(check_violations(case, solution))
    reason = ("islanded_unserved_load" if unserved > 0.0
              else "violations_only" if violations else "clean")
    return ScreeningResult(reason=reason, violations=violations, **common)


def _screen_isolated(case: GridCase, combo: OutageCombination) -> ScreeningResult:
    """screen_combination at the default options, recording a screen that
    raises as critical with reason ``error`` (and logging its traceback)
    instead of aborting the sweep."""
    try:
        return screen_combination(case, combo)
    except Exception:
        import logging

        logging.getLogger(__name__).exception("screening %s raised", combo)
        return ScreeningResult(
            combination=combo,
            reason="error",
            violations=(),
            island_count=0,
            unserved_mw=0.0,
            cause="error",
        )


def _known_critical(case: GridCase, combo: OutageCombination) -> bool:
    """Whether the combination screens critical without a Newton solve:
    it leaves no servable island, or a servable island whose load exceeds
    its in-island nameplate capability (the gate ``solve_islands``
    applies before iterating)."""
    partition = find_islands(case, *outage_masks(case, combo.substations))
    servable = [isl for isl in partition.islands if isl.servable]
    return not servable or any(_generation_deficit(case, isl) for isl in servable)


# the case of a pool worker, set once by its initializer
_worker_case: GridCase | None = None


def _init_worker(case: GridCase) -> None:
    global _worker_case
    _worker_case = case


def _with_worker_case(task, *args):
    """``task(case, *args)`` on the case of the pool worker it runs in."""
    return task(_worker_case, *args)


@dataclass(frozen=True)
class _Tasks:
    """Runs ``task(case, *args)`` for a sweep or a pipeline: on ``pool``,
    whose workers hold the case, or, without one, in the caller when the
    result is read."""

    case: GridCase
    processes: int
    pool: Executor | None = None

    def later(self, task, *args) -> Callable[[], object]:
        """The result of ``task(case, *args)``: started now on a worker,
        or run in the caller when it is read."""
        if self.pool is None:
            return lambda: task(self.case, *args)
        return self.pool.submit(_with_worker_case, task, *args).result

    def map(self, task, items: Sequence) -> Iterator:
        """``task(case, item)`` of each of ``items``, in their order: on
        the pool in chunks, or in the caller as they are read."""
        if self.pool is None:
            return (task(self.case, item) for item in items)
        return self.pool.map(_with_worker_case, itertools.repeat(task), items,
                             chunksize=max(1, len(items) // (8 * self.processes)))


@contextmanager
def _worker_pool(case: GridCase, workers: int) -> Iterator[_Tasks]:
    """The task runner on ``workers`` processes. With one it starts no
    process and runs each task in the caller when its result is read.
    With more it is a pool of forked processes, each holding ``case``
    from its initializer, so that a task sends only its own arguments;
    leaving the block cancels the tasks not yet started and waits for
    the workers to exit."""
    if workers == 1:
        yield _Tasks(case, 1)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # forked workers inherit the solver's scipy modules: import them here
    # once instead of in every worker
    import scipy.sparse.csgraph  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    # fork, not spawn: a spawned worker would import the package and
    # unpickle the case again. A fork pool forks all its workers at the
    # first submit, before it starts its own management thread.
    pool = ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(case,))
    try:
        yield _Tasks(case, workers, pool)
    finally:
        pool.shutdown(cancel_futures=True)


def _pool_size(k_max: int, budget: int | None, workers: int) -> int:
    """Checks a sweep's arguments before any work, and returns the number
    of processes it screens on: ``workers``, at most ``os.cpu_count()``."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must not be negative, got {budget}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def run_screening(
    case: GridCase,
    k_max: int,
    budget: int | None = None,
    subset: Sequence[int | str] | None = None,
    prune: bool = True,
    workers: int = 1,
) -> ScreeningRun:
    """Level-wise screening sweep for levels 1..k_max.

    Levels run in order; every superset of an already-critical
    combination is recorded critical-by-containment without a solve
    when ``prune`` is on. A combination whose screen raises is recorded
    critical with reason ``error``, the sweep goes on, and it prunes
    nothing. ``budget`` caps the number of power-flow evaluations
    (pruned records are free); when it runs out the sweep stops and
    ``coverage`` reports the classified fraction. All levels screen on
    one task runner (``_worker_pool``): with one worker in this process,
    with more on one pool of forked workers, at most ``os.cpu_count()``.
    Raises ``ValueError`` for a ``k_max`` or ``workers`` below 1 or a
    negative ``budget``.
    """
    with _worker_pool(case, _pool_size(k_max, budget, workers)) as tasks:
        return _sweep(case, k_max, budget, subset, prune, tasks)


def _sweep(
    case: GridCase,
    k_max: int,
    budget: int | None,
    subset: Sequence[int | str] | None,
    prune: bool,
    tasks: _Tasks,
    on_critical: Callable[[OutageCombination], None] | None = None,
) -> ScreeningRun:
    """``run_screening``'s sweep on ``tasks``, on arguments already
    checked. Per level, ``on_critical(combination)`` is called for each
    pruned combination, then (on more than one process, where it lets
    work start earlier) for each that ``_known_critical`` marks before
    the screens are queued, then for each screen that returns critical;
    a combination may be named twice."""
    n_universe = len(case.substations) if subset is None else len(subset)
    total_enumerable = sum(
        count_combinations(n_universe, k) for k in range(1, k_max + 1)
    )
    # solved critical combinations (their substations) -> (discovery
    # rank, result); pruning takes the first-discovered one a combination
    # contains
    critical: dict[tuple, tuple[int, ScreeningResult]] = {}
    levels: list[PriorityList] = []
    evaluations = 0
    pruned_count = 0
    classified = 0
    exhausted = False
    notify = on_critical or (lambda combination: None)

    for k in range(1, k_max + 1):
        if exhausted:
            break
        results: list[ScreeningResult] = []
        to_solve: list[OutageCombination] = []
        pruned_here: list[tuple[OutageCombination, tuple]] = []
        for combo in enumerate_combinations(case, k, subset):
            hit = _critical_ancestor(combo.substations, critical) if prune else None
            if hit is not None:
                pruned_here.append((combo, hit))
            else:
                to_solve.append(combo)

        if budget is not None and evaluations + len(to_solve) > budget:
            to_solve = to_solve[: max(0, budget - evaluations)]
            exhausted = True

        for combo, _ in pruned_here:
            notify(combo)
        if on_critical is not None and tasks.processes > 1:
            for combo in to_solve:
                if _known_critical(case, combo):
                    notify(combo)
        solved = []
        for r in tasks.map(_screen_isolated, to_solve):
            if r.verdict == "critical":
                notify(r.combination)
            solved.append(r)
        evaluations += len(solved)
        results.extend(solved)

        for combo, anc in pruned_here:
            # the ancestor's verdict, reason, islands, unserved load and cause
            anc_result = critical[anc][1]
            results.append(replace(anc_result, combination=combo, violations=(),
                                   critical_by=anc_result.combination))
        pruned_count += len(pruned_here)
        classified += len(solved) + len(pruned_here)

        for r in solved:
            if r.verdict == "critical" and r.reason != "error":
                critical[r.combination.substations] = (len(critical), r)
        levels.append(PriorityList.ranked(k, results))

    coverage = classified / total_enumerable if total_enumerable else 1.0
    return ScreeningRun(
        levels=tuple(levels),
        evaluations=evaluations,
        pruned=pruned_count,
        budget=budget,
        coverage=coverage,
    )


def _critical_ancestor(subs: tuple, critical: dict[tuple, tuple[int, ScreeningResult]]):
    """The first-discovered key of ``critical`` that is a proper subset of
    ``subs`` (a sorted tuple), or None: at most 2^k - 2 lookups."""
    best = None
    for size in range(1, len(subs)):
        for part in itertools.combinations(subs, size):
            found = critical.get(part)
            if found is not None and (best is None or found[0] < critical[best][0]):
                best = part
    return best


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
