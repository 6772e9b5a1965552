"""The benchmark's traced run wraps attributes that must exist."""

from __future__ import annotations

import importlib
import runpy

from conftest import REPO_ROOT


def test_every_traced_call_site_resolves():
    """Each (module, attribute) in gridbench/spans.py WRAPS is still a
    callable on the package, so a refactor that drops a traced call site
    fails here instead of in ``gridbench/run.py --trace 1``."""
    # run_path compiles the file in memory: nothing is written next to it
    wraps = runpy.run_path(str(REPO_ROOT / "gridbench" / "spans.py"))["WRAPS"]
    missing = [
        f"gridimpact.{module}.{attr}"
        for module, attr, _span in wraps
        if not callable(getattr(importlib.import_module(f"gridimpact.{module}"), attr, None))
    ]
    assert missing == []
