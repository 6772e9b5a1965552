"""Check that the traced run's counts repeat exactly between two runs.

    python3 gridbench/repeat_check.py --workload screen-k2 [--seed 42]

Runs ``run.py --trace 1`` twice on the same workload and seed and compares
every count in ``spans.EXACT_COUNTS``; exits 1 when any differs.  A later
change may cite these counts as counts only while this check passes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spans import EXACT_COUNTS

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: the traced run failed its checks")
    return {name: result["metrics"][name]["value"] for name in EXACT_COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    differ = [n for n in EXACT_COUNTS if first[n] != second[n]]
    for name in EXACT_COUNTS:
        mark = "DIFFERS" if name in differ else "same"
        print(f"{args.workload} {name}: {first[name]} {second[name]} {mark}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
