"""Frozen screening outcomes on the 118-bus case, for differential tests.

Covers every level-1 combination plus every level-2 combination of the
AC07 sub-universe (the pairs an unpruned sweep solves). Each record
holds the verdict, reason, island count, unserved MW, every island's
Newton iterations and cause, and every violation's kind, entity and
value. The committed file was frozen from the element-by-element
implementation that preceded the compiled array form (``GridCase.arrays``).

Regenerate (only when a change of results is intended) from the
repository root with:

    PYTHONPATH=src python tests/screening_fixture.py
"""

from __future__ import annotations

import json
from pathlib import Path

from gridimpact import screening
from gridimpact.model import load_case
from gridimpact.screening import enumerate_combinations

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "data" / "screening_fixture.json"
CASE_PATH = HERE.parent / "src" / "gridimpact" / "data" / "ieee118.grid"
SUB_UNIVERSE = (80, 92, 94, 95, 96, 98, 99, 100, 101, 102)


def fixture_combinations(case):
    """Level 1 over every substation, then level 2 over SUB_UNIVERSE."""
    return [*enumerate_combinations(case, 1), *enumerate_combinations(case, 2, SUB_UNIVERSE)]


def describe(case, combo) -> dict:
    """Screen one combination and record what the fixture pins."""
    solves = []
    inner = screening.solve_islands

    def recording(*args, **kwargs):
        out = inner(*args, **kwargs)
        solves.append(out[0])
        return out

    screening.solve_islands = recording
    try:
        r = screening.screen_combination(case, combo)
    finally:
        screening.solve_islands = inner
    (solution,) = solves
    return {
        "combination": list(combo.substations),
        "verdict": r.verdict,
        "reason": r.reason,
        "island_count": r.island_count,
        "unserved_mw": r.unserved_mw,
        "islands": [[isl.iterations, isl.cause] for isl in solution.islands],
        "violations": [[v.kind, v.entity, v.value] for v in r.violations],
    }


def main() -> None:
    case = load_case(CASE_PATH)
    records = [describe(case, c) for c in fixture_combinations(case)]
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"{len(records)} records -> {FIXTURE}")


if __name__ == "__main__":
    main()
