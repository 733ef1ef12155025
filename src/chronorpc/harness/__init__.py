"""Deterministic evaluation harness: scenario files, runner, experiments, demos."""

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
from .experiments import (
    ExperimentReport,
    PLATFORM_PROFILES,
    experiment_platforms,
    experiment_probing,
    experiment_stress,
    spike_window_split,
)
from .demos import (
    DEMOS,
    DemoFailure,
    demo_commit,
    demo_commit_abort,
    demo_coordinated,
    demo_snapshot,
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
    "ExperimentReport",
    "PLATFORM_PROFILES",
    "experiment_platforms",
    "experiment_probing",
    "experiment_stress",
    "spike_window_split",
    "DEMOS",
    "DemoFailure",
    "demo_commit",
    "demo_commit_abort",
    "demo_coordinated",
    "demo_snapshot",
]
