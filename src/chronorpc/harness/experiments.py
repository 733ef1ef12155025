"""Canned studies built on run_scenario.

Three experiments, mirroring the questions the framework is meant to answer:

  platforms  - how prediction error tracks server speed/noise classes when
               probing periodically at a slow cadence
  probing    - periodic cadence sweep vs. burst size sweep on one server
  stress     - occasional execution-time spikes: error inside the windows
               that follow a spike vs. quiet stretches

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
from .runner import ScenarioResult, run_scenario

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


def experiment_platforms(
    seed: int = 1,
    *,
    samples: int = 300,
    out_dir: str | Path | None = None,
) -> tuple[ExperimentReport, dict[str, ScenarioResult]]:
    rows = []
    results: dict[str, ScenarioResult] = {}
    for profile, model in PLATFORM_PROFILES:
        scenario = Scenario(
            name=f"platforms-{profile}",
            seed=_sub_seed(seed, "platforms", profile),
            probe="periodic",
            period=8 * SECONDS,
            samples=samples,
            servers=(ServerSpec(model=model),),
        )
        result = run_scenario(scenario)
        results[profile] = result
        mean_ete = f"{result.mean_ete('s1'):.3f}"
        for algo in scenario.algorithms:
            count, mean, worst = result.error_stats("s1", algo)
            rows.append((profile, algo, count, f"{mean:.3f}", worst, mean_ete))
    report = ExperimentReport(
        "platforms",
        ("profile", "algorithm", "count", "mean_abs_error_ns", "max_abs_error_ns", "mean_ete_ns"),
        tuple(rows),
    )
    if out_dir is not None:
        report.write(out_dir)
    return report, results


def experiment_probing(
    seed: int = 1,
    *,
    samples: int = 200,
    trials: int = 80,
    out_dir: str | Path | None = None,
) -> tuple[ExperimentReport, dict[str, ScenarioResult]]:
    model = ExecutionModel(base=30 * MILLIS, sigma=3 * MILLIS)
    rows = []
    results: dict[str, ScenarioResult] = {}
    for period in (1 * SECONDS, 2 * SECONDS, 4 * SECONDS, 8 * SECONDS):
        scenario = Scenario(
            name=f"probing-periodic-{period}",
            seed=_sub_seed(seed, "probing", "periodic", period),
            probe="periodic",
            period=period,
            samples=samples,
            servers=(ServerSpec(model=model),),
        )
        result = run_scenario(scenario)
        results[scenario.name] = result
        for algo in scenario.algorithms:
            count, mean, worst = result.error_stats("s1", algo)
            rows.append(("periodic", period, 0, algo, count, f"{mean:.3f}", worst))
    for size in (1, 2, 4, 8):
        scenario = Scenario(
            name=f"probing-burst-{size}",
            seed=_sub_seed(seed, "probing", "burst", size),
            probe="burst",
            period=1 * SECONDS,
            burst_size=size,
            trials=trials,
            servers=(ServerSpec(model=model),),
        )
        result = run_scenario(scenario)
        results[scenario.name] = result
        for algo in scenario.algorithms:
            count, mean, worst = result.error_stats("s1", algo)
            rows.append(
                ("burst", scenario.period, size, algo, count, f"{mean:.3f}", worst)
            )
    report = ExperimentReport(
        "probing",
        ("mode", "period_ns", "burst_size", "algorithm", "count",
         "mean_abs_error_ns", "max_abs_error_ns"),
        tuple(rows),
    )
    if out_dir is not None:
        report.write(out_dir)
    return report, results


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


def experiment_stress(
    seed: int = 1,
    *,
    samples: int = 1000,
    out_dir: str | Path | None = None,
) -> tuple[ExperimentReport, ScenarioResult]:
    model = ExecutionModel(
        base=30 * MILLIS, sigma=3 * MILLIS, spike_p=0.02, spike_mult=10.0
    )
    scenario = Scenario(
        name="stress-spikes",
        seed=_sub_seed(seed, "stress"),
        probe="periodic",
        period=1 * SECONDS,
        samples=samples,
        servers=(ServerSpec(model=model),),
    )
    result = run_scenario(scenario)
    inside, outside = spike_window_split(
        result.spike_indices["s1"], samples, scenario.window
    )
    rows = []
    for algo in scenario.algorithms:
        errors = result.errors("s1", algo)
        for region, indices in (("spike-window", inside), ("quiet", outside)):
            picked = [errors[i] for i in indices]
            mean = sum(picked) / len(picked) if picked else 0.0
            worst = max(picked) if picked else 0
            rows.append((algo, region, len(picked), f"{mean:.3f}", worst))
        count, mean, worst = result.error_stats("s1", algo)
        rows.append((algo, "overall", count, f"{mean:.3f}", worst))
    report = ExperimentReport(
        "stress",
        ("algorithm", "region", "count", "mean_abs_error_ns", "max_abs_error_ns"),
        tuple(rows),
    )
    if out_dir is not None:
        report.write(out_dir)
    return report, result
