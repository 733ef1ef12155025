"""Deterministic evaluation harness: scenario files, runner, experiments, demos.

The package re-exports the scenario and runner names. Experiments and demos
are imported from their own modules, so a scenario run never loads them.
"""

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
]
