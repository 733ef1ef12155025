"""Deterministic evaluation harness: scenario files, runner, experiments, demos.

The experiments and demos load on first use (PEP 562 module __getattr__):
a scenario run never calls them, and every set-up would otherwise pay to
import them.
"""

import importlib

from .scenario import (
    Scenario,
    ScenarioInvalid,
    ServerSpec,
    load_scenario,
    parse_duration,
    parse_scenario_text,
)
from .runner import (
    CSV_HEADER,
    CheckFailed,
    ScenarioResult,
    World,
    build_world,
    check_world,
    run_scenario,
)

# name -> the submodule that defines it, imported when the name is first read
_LAZY = {
    "ExperimentReport": "experiments",
    "PLATFORM_PROFILES": "experiments",
    "experiment_platforms": "experiments",
    "experiment_probing": "experiments",
    "experiment_stress": "experiments",
    "spike_window_split": "experiments",
    "DEMOS": "demos",
    "DemoFailure": "demos",
    "demo_commit": "demos",
    "demo_commit_abort": "demos",
    "demo_coordinated": "demos",
    "demo_snapshot": "demos",
}

__all__ = [
    "Scenario",
    "ScenarioInvalid",
    "ServerSpec",
    "load_scenario",
    "parse_duration",
    "parse_scenario_text",
    "CSV_HEADER",
    "CheckFailed",
    "ScenarioResult",
    "World",
    "build_world",
    "check_world",
    "run_scenario",
    *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
