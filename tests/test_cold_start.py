"""Cold start: set-up loads no scipy; the first solve and a pool load it.

Each test runs in a fresh interpreter, because the test process itself
has imported scipy long before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CASE_PATH = SRC / "gridimpact" / "data" / "ieee118.grid"

PRELUDE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
CASE = sys.argv[2]

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints a JSON object last."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", PRELUDE + code, str(SRC), str(CASE_PATH)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_set_up_and_load_import_no_scipy():
    out = run_fresh("""
import gridimpact
from gridimpact import cli, dynamics, model, powerflow
case = model.load_case(CASE)
dynamics.default_machine_models(case)
assert cli.main(["load", CASE]) == 0
before = scipy_modules()
sol = powerflow.solve_newton(case)
print(json.dumps({"before": before, "converged": sol.converged,
                  "iterations": sol.iterations}))
""")
    assert out["before"] == []
    assert out["converged"]
    assert out["iterations"] == 7


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs two CPUs")
def test_pooled_sweep_from_cold_start():
    out = run_fresh("""
from gridimpact import model, screening
case = model.load_case(CASE)
subset = [80, 92, 94, 96, 98, 99, 100, 101]
pooled = screening.run_screening(case, k_max=1, subset=subset, workers=2)
linalg_in_parent = "scipy.sparse.linalg" in sys.modules
serial = screening.run_screening(case, k_max=1, subset=subset, workers=1)
print(json.dumps({"pooled": screening.screening_report_csv(pooled),
                  "serial": screening.screening_report_csv(serial),
                  "linalg_in_parent": linalg_in_parent}))
""")
    assert out["pooled"] == out["serial"]
    assert out["pooled"].count("\n") == 1 + 8
    assert out["linalg_in_parent"]
