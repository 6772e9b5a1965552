"""Power-grid cyber-contingency impact assessment.

Screens multi-substation outage combinations with steady-state AC
power flow, verifies critical candidates with sequential-switching
time-domain simulation, and cross-classifies the two verdicts,
together with islanding analysis and two transformer aging laws (the
aging acceleration factor and parallel-bank load sharing).

Importing the package loads no submodule: each public name below is
imported from its submodule on first access (PEP 562), so a caller that
only loads a case does not pay for the pipeline, screening or aging
modules.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "model": (
        "Branch", "Bus", "Generator", "GridCase", "Substation", "load_case",
        "loads_case", "summarize", "validate",
    ),
    "topology": (
        "Island", "IslandPartition", "OutageAction", "apply_branch_outages",
        "apply_substation_outage", "find_islands", "outage_masks",
    ),
    "powerflow": (
        "PowerFlowOptions", "PowerFlowSolution", "build_admittance", "check_violations",
        "solve_islands", "solve_newton",
    ),
    "screening": (
        "OutageCombination", "ScreeningResult", "ScreeningRun", "count_combinations",
        "enumerate_combinations", "run_screening", "screen_combination",
    ),
    "dynamics": (
        "DynamicTrace", "ExciterParams", "GovernorParams", "MachineModel",
        "ScenarioOptions", "StabilityVerdict", "SwitchingSchedule",
        "default_machine_models", "init_dynamic_state", "load_schedule",
        "parse_schedule", "run_scenario", "trace_to_csv",
    ),
    "aging": ("aging_acceleration", "parallel_overload"),
    "pipeline": (
        "CascadeRun", "CrossCheckMatrix", "DynPolicy", "PipelineConfig", "PipelineReport",
        "ReEvaluationRecord", "cascade_confirm", "cross_check", "re_evaluate", "run_pipeline",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        if name in _EXPORTS:  # a submodule not imported yet
            return importlib.import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
