"""Frozen reports of the level-1 and level-2 pipeline on the 118-bus case.

Two runs of the console script are pinned, one per directory under
``tests/data``:

    pipeline_k1   gridimpact pipeline <case> --k 1
    pipeline_k2   gridimpact pipeline <case> --k 2 --seed 3

Each reference holds the run's matrix.csv, reeval.csv and summary.txt
byte for byte, and trace_rows.json: the data rows (header excluded) of
each traces/*.csv file. Trace bytes are not pinned (the level-2 run's
539 traces take about 280 MB). A run's screening.csv is compared with
the frozen screening sweep of its level under ``gridbench/reference``,
which this script reads and never writes. Which reference a run
directory is checked against is read from its summary.txt
(``screening: k_max=N``).

Regenerate a reference (only when a change of reports is intended) from
the repository root, from a run directory the console script wrote:

    gridimpact pipeline src/gridimpact/data/ieee118.grid --k 2 --seed 3 --out RUN
    python tests/pipeline_reference.py RUN

Compare a run directory with its reference, writing nothing, with:

    python tests/pipeline_reference.py --check RUN

It prints one line per compared file and exits 1 when any differs.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_REFERENCE = HERE.parent / "gridbench" / "reference"
# k_max -> (reference directory, frozen screening.csv of that sweep)
REFERENCES = {
    1: (HERE / "data" / "pipeline_k1", BENCH_REFERENCE / "pipeline_k1" / "screening.csv"),
    2: (HERE / "data" / "pipeline_k2", BENCH_REFERENCE / "screen_k2_all.csv"),
}
REPORTS = ("matrix.csv", "reeval.csv", "summary.txt")
TRACE_ROWS = "trace_rows.json"


def trace_rows(run_dir: Path) -> dict[str, int]:
    """Data rows of each traces/*.csv file, keyed by its path in the run."""
    rows = {}
    for path in sorted((run_dir / "traces").glob("*.csv")):
        with path.open("rb") as f:
            rows[path.relative_to(run_dir).as_posix()] = sum(1 for _ in f) - 1
    return rows


def reference_of(run_dir: Path):
    """The (reference directory, screening.csv) that a run's k_max selects."""
    match = re.search(r"^screening: k_max=(\d+) ", (run_dir / "summary.txt").read_text(),
                      re.MULTILINE)
    k_max = int(match.group(1)) if match else None
    if k_max not in REFERENCES:
        raise SystemExit(f"{run_dir}: no reference for k_max={k_max}")
    return REFERENCES[k_max]


def check(run_dir: Path) -> int:
    """Compare a run directory with its reference; 1 on any difference."""
    ref_dir, screening = reference_of(run_dir)
    pairs = [("screening.csv", screening), *((name, ref_dir / name) for name in REPORTS)]
    failed = False
    for name, want in pairs:
        same = (run_dir / name).read_bytes() == want.read_bytes()
        print(f"{name}: {'same' if same else 'DIFFERS'}")
        failed |= not same
    want_rows = json.loads((ref_dir / TRACE_ROWS).read_text())
    same = trace_rows(run_dir) == want_rows
    print(f"traces: {len(want_rows)} files, row counts {'same' if same else 'DIFFER'}")
    failed |= not same
    print("FAIL" if failed else "ok")
    return int(failed)


def freeze(run_dir: Path) -> int:
    """Write a run directory's reports and trace row counts as its reference."""
    ref_dir, screening = reference_of(run_dir)
    if (run_dir / "screening.csv").read_bytes() != screening.read_bytes():
        print(f"screening.csv differs from {screening}: refreshing that is a benchmark change")
        return 1
    ref_dir.mkdir(parents=True, exist_ok=True)
    for name in REPORTS:
        (ref_dir / name).write_bytes((run_dir / name).read_bytes())
    rows = trace_rows(run_dir)
    (ref_dir / TRACE_ROWS).write_text(json.dumps(rows, indent=1) + "\n")
    print(f"{len(REPORTS)} reports and {len(rows)} trace row counts -> {ref_dir}")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--check":
        return check(Path(argv[1]))
    if len(argv) == 1 and not argv[0].startswith("-"):
        return freeze(Path(argv[0]))
    print(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
