"""Canned studies built on run_scenario.

Three experiments, mirroring the questions the framework is meant to answer:

  platforms  - how prediction error tracks server speed/noise classes when
               probing periodically at a slow cadence
  probing    - periodic cadence sweep vs. burst size sweep on one server
  stress     - occasional execution-time spikes: error inside the windows
               that follow a spike vs. quiet stretches

Each study is a list of runs, each one server built by _one_server() and
run to completion in turn. A run is scored by ScenarioResult.rule_rows(),
one row per rule under the run's labels, so the report's count, mean and
max read as chronorpc run's summary does. Only the report is returned: a
run's world is dropped once it is scored.

Every experiment derives per-scenario seeds from its root seed through
named substreams, so reports are reproducible and individual scenarios can
be re-run in isolation.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from pathlib import Path

from ..protocol import MILLIS, SECONDS
from ..server import ExecutionModel
from ..sim import named_rng
from .scenario import Scenario, ServerSpec
from .runner import error_score, run_scenario

__all__ = [
    "ExperimentReport",
    "PLATFORM_PROFILES",
    "experiment_platforms",
    "experiment_probing",
    "experiment_stress",
    "spike_window_split",
]


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.header)
        writer.writerows(self.rows)
        return out.getvalue()

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"experiment_{self.name}.csv"
        path.write_text(self.csv_text(), encoding="utf-8")
        return path


def _sub_seed(root: int, *names: object) -> int:
    return named_rng(root, "experiment", *names).getrandbits(48)


# Server classes spanning roughly an order of magnitude in speed, with
# noise kept proportional to the base time.
PLATFORM_PROFILES: tuple[tuple[str, ExecutionModel], ...] = (
    ("fast", ExecutionModel(base=5 * MILLIS, sigma=500_000)),
    ("standard", ExecutionModel(base=30 * MILLIS, sigma=3 * MILLIS)),
    ("loaded", ExecutionModel(base=120 * MILLIS, sigma=12 * MILLIS)),
)


def _one_server(name: str, seed: int, model: ExecutionModel, **settings) -> Scenario:
    """A run of one server executing under `model`; `settings` are the
    remaining Scenario fields."""
    return Scenario(name=name, seed=seed, servers=(ServerSpec(model=model),), **settings)


def experiment_platforms(seed: int = 1, *, samples: int = 300) -> ExperimentReport:
    rows = []
    for profile, model in PLATFORM_PROFILES:
        result = run_scenario(_one_server(
            f"platforms-{profile}", _sub_seed(seed, "platforms", profile), model,
            period=8 * SECONDS, samples=samples,
        ))
        mean_ete = f"{result.mean_ete('s1'):.3f}"
        rows += [row + (mean_ete,) for row in result.rule_rows("s1", profile)]
    return ExperimentReport(
        "platforms",
        ("profile", "algorithm", "count", "mean_abs_error_ns", "max_abs_error_ns", "mean_ete_ns"),
        tuple(rows),
    )


def experiment_probing(
    seed: int = 1,
    *,
    samples: int = 200,
    trials: int = 80,
) -> ExperimentReport:
    model = ExecutionModel(base=30 * MILLIS, sigma=3 * MILLIS)
    # (mode, period_ns, burst_size) labels each run's rows
    runs = [
        (("periodic", period, 0), _one_server(
            f"probing-periodic-{period}", _sub_seed(seed, "probing", "periodic", period),
            model, period=period, samples=samples,
        ))
        for period in (1 * SECONDS, 2 * SECONDS, 4 * SECONDS, 8 * SECONDS)
    ] + [
        (("burst", 1 * SECONDS, size), _one_server(
            f"probing-burst-{size}", _sub_seed(seed, "probing", "burst", size), model,
            probe="burst", period=1 * SECONDS, burst_size=size, trials=trials,
        ))
        for size in (1, 2, 4, 8)
    ]
    rows = []
    for labels, scenario in runs:
        rows += run_scenario(scenario).rule_rows("s1", *labels)
    return ExperimentReport(
        "probing",
        ("mode", "period_ns", "burst_size", "algorithm", "count",
         "mean_abs_error_ns", "max_abs_error_ns"),
        tuple(rows),
    )


def spike_window_split(
    spike_indices: list[int], total: int, window: int
) -> tuple[list[int], list[int]]:
    """Partition sample indices into spike-affected and quiet ones.

    A spike at index k contaminates predictions for indices k..k+window:
    the spiked sample itself is mispredicted, and it then sits in the
    history window for the next `window` predictions.
    """
    hot: set[int] = set()
    for k in spike_indices:
        hot.update(range(k, min(total, k + window + 1)))
    inside = sorted(i for i in hot if 0 <= i < total)
    outside = [i for i in range(total) if i not in hot]
    return inside, outside


def experiment_stress(seed: int = 1, *, samples: int = 1000) -> ExperimentReport:
    model = ExecutionModel(
        base=30 * MILLIS, sigma=3 * MILLIS, spike_p=0.02, spike_mult=10.0
    )
    scenario = _one_server(
        "stress-spikes", _sub_seed(seed, "stress"), model,
        period=1 * SECONDS, samples=samples,
    )
    result = run_scenario(scenario)
    inside, outside = spike_window_split(
        result.spike_indices["s1"], samples, scenario.window
    )
    rows = []
    for algo, *overall in result.rule_rows("s1"):
        errors = result.errors("s1", algo)
        for region, indices in (("spike-window", inside), ("quiet", outside)):
            rows.append((algo, region, *error_score([errors[i] for i in indices])))
        rows.append((algo, "overall", *overall))
    return ExperimentReport(
        "stress",
        ("algorithm", "region", "count", "mean_abs_error_ns", "max_abs_error_ns"),
        tuple(rows),
    )
