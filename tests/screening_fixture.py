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

Compare the current code with the committed file, writing nothing, with:

    PYTHONPATH=src python tests/screening_fixture.py --check

It prints the exact matches per field and the largest violation-value
deviation, and exits 1 when any record differs in a field that must
match exactly or a violation value deviates by more than 1e-9 (the
bounds of ``test_compiled.test_screening_matches_frozen_fixture``).
"""

from __future__ import annotations

import json
import sys
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


EXACT = ("verdict", "reason", "island_count", "unserved_mw", "islands", "violations")
VALUE_BOUND = 1e-9


def _exact_part(record: dict, field: str):
    """What of a field must match exactly: violations in kind and entity."""
    if field == "violations":
        return [v[:2] for v in record["violations"]]
    return record[field]


def check(case) -> int:
    """Compare the current code with the fixture; 1 on any mismatch."""
    frozen = json.loads(FIXTURE.read_text())
    combos = fixture_combinations(case)
    if [r["combination"] for r in frozen] != [list(c.substations) for c in combos]:
        print("the fixture's combinations differ from fixture_combinations()")
        return 1
    matches = dict.fromkeys(EXACT, 0)
    worst = 0.0
    for want, combo in zip(frozen, combos):
        got = describe(case, combo)
        for field in EXACT:
            matches[field] += _exact_part(got, field) == _exact_part(want, field)
        if _exact_part(got, "violations") == _exact_part(want, "violations"):
            for g, w in zip(got["violations"], want["violations"]):
                worst = max(worst, abs(g[2] - w[2]))
    for field in EXACT:
        print(f"{field}: {matches[field]}/{len(frozen)} exact")
    print(f"largest violation-value deviation: {worst:.3g} (bound {VALUE_BOUND:g})")
    failed = any(n != len(frozen) for n in matches.values()) or worst > VALUE_BOUND
    print("FAIL" if failed else "ok")
    return int(failed)


def main(argv: list[str]) -> int:
    case = load_case(CASE_PATH)
    if argv == ["--check"]:
        return check(case)
    if argv:
        print(__doc__)
        return 2
    records = [describe(case, c) for c in fixture_combinations(case)]
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"{len(records)} records -> {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
