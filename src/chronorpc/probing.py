"""Active probing: measurement plans and probe-period selection.

When a workload does not naturally produce timing samples, the client sends
probe rpcs - scheduled, with get-time set - purely to measure execution
offsets. A plan is either Periodic (steady cadence) or Burst (a short run of
closely spaced probes fired on demand before the operation that matters).
Probe scheduled times form an exact grid: strictly increasing, spaced by the
plan period.

Period selection sweeps M bursts whose periods double each step, computes
each burst's mean offset, and picks:

* burst mode    - twice the best (lowest-mean) tested period, leaving margin
                  above the fastest cadence that still measured well
* periodic mode - the largest tested period whose mean stays within
                  (1 + alpha) of the best burst's mean; a `rule="period"`
                  variant instead compares the periods themselves against
                  (1 + alpha) x the best period
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .client import Client, PendingCall, probe_operation
from .prediction import EteSample
from .protocol import MILLIS, SECONDS, Operation

__all__ = [
    "InsufficientData",
    "PeriodicProbe",
    "BurstProbe",
    "ProbePlan",
    "ProbeRun",
    "run_probe_plan",
    "PeriodSelectionConfig",
    "SelectionResult",
    "choose_burst_period",
    "choose_periodic_period",
    "select_period_burst",
    "select_period_periodic",
]


class InsufficientData(Exception):
    """A burst produced no samples at all; selection cannot proceed."""


@dataclass(frozen=True)
class PeriodicProbe:
    period: int

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("probe period must be positive")


@dataclass(frozen=True)
class BurstProbe:
    count: int
    period: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("burst count must be >= 1")
        if self.period <= 0:
            raise ValueError("probe period must be positive")


ProbePlan = PeriodicProbe | BurstProbe


@dataclass
class ProbeRun:
    """Result of one executed plan; calls keep schedule order."""

    plan: ProbePlan
    scheduled_times: list[int]
    calls: list[PendingCall]

    @property
    def samples(self) -> list[EteSample]:
        """Samples from the calls that produced one (the rest are gaps)."""
        return [call.sample for call in self.calls if call.sample is not None]

    @property
    def sample_count(self) -> int:
        return len(self.samples)


def run_probe_plan(
    client: Client,
    server_id: str,
    plan: ProbePlan,
    *,
    samples: int | None = None,
    operation: Operation | None = None,
) -> ProbeRun:
    """Execute a plan against one server and collect its samples.

    `samples` bounds a periodic plan (bursts carry their own count). Probes
    dispatch the client's `dispatch_lead` ahead of their scheduled times so
    transit delay never pushes them into the past. A probe that is rejected
    or lost leaves a gap; the remaining probes still run.
    """
    if isinstance(plan, BurstProbe):
        count = plan.count
    else:
        if samples is None:
            raise ValueError("periodic plans need an explicit sample count")
        count = samples
    if count < 1:
        raise ValueError("probe count must be >= 1")
    op = operation if operation is not None else probe_operation()
    lead = client.dispatch_lead

    driver = client.driver
    start = driver.now() + lead
    times = [start + k * plan.period for k in range(count)]
    calls: list[PendingCall] = []

    def dispatch(scheduled_time: int) -> None:
        calls.append(client.submit(server_id, op, scheduled_time, get_time=True))

    for t in times:
        driver.call_at(t - lead, dispatch, t)

    deadline = times[-1] + client.reply_timeout
    driver.wait_until(lambda: len(calls) == count, deadline)
    client.wait(calls, deadline)
    for call in calls:
        # An unanswered probe times out here and leaves the client's pending
        # map, so a reply arriving later counts as unmatched instead of
        # feeding the predictor.
        client.resolve_soft(call)
    return ProbeRun(plan, times, calls)


@dataclass(frozen=True)
class PeriodSelectionConfig:
    """Sweep shape for probe-period selection."""

    bursts: int = 5
    burst_size: int = 4
    initial_period: int = 250 * MILLIS
    alpha: float = 0.1
    inter_burst_gap: int = 1 * SECONDS
    rule: str = "ete"  # periodic-mode comparison: "ete" | "period"

    def __post_init__(self):
        if self.bursts < 1:
            raise ValueError("bursts must be >= 1")
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if self.initial_period <= 0:
            raise ValueError("initial_period must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.inter_burst_gap < 0:
            raise ValueError("inter_burst_gap must be non-negative")
        if self.rule not in ("ete", "period"):
            raise ValueError("rule must be 'ete' or 'period'")

    def periods(self) -> list[int]:
        return [self.initial_period * (1 << i) for i in range(self.bursts)]


@dataclass
class SelectionResult:
    period: int
    best_index: int
    periods: list[int]
    means: list[float]
    bursts: list[list[EteSample]] = field(default_factory=list)


def choose_burst_period(periods: Sequence[int], means: Sequence[float]) -> tuple[int, int]:
    """Best tested period by mean offset (ties to the earliest), doubled."""
    if len(periods) != len(means) or not periods:
        raise ValueError("need one mean per tested period")
    best = min(range(len(means)), key=lambda i: (means[i], i))
    return best, 2 * periods[best]


def choose_periodic_period(
    periods: Sequence[int],
    means: Sequence[float],
    alpha: float,
    rule: str = "ete",
) -> tuple[int, int]:
    """Largest tested period still close enough to the best burst.

    "ete" compares burst means against (1 + alpha) x the best mean;
    "period" compares the periods themselves against (1 + alpha) x the best
    period. Returns (best_index, chosen_period).
    """
    best, _ = choose_burst_period(periods, means)
    if rule == "ete":
        bound = (1.0 + alpha) * means[best]
        qualifying = [i for i in range(len(periods)) if means[i] < bound]
    elif rule == "period":
        bound = (1.0 + alpha) * periods[best]
        qualifying = [i for i in range(len(periods)) if periods[i] < bound]
    else:
        raise ValueError("rule must be 'ete' or 'period'")
    if not qualifying:
        return best, periods[best]
    chosen = max(qualifying, key=lambda i: periods[i])
    return best, periods[chosen]


def _sweep(
    client: Client,
    server_id: str,
    config: PeriodSelectionConfig,
    operation: Operation | None,
) -> tuple[list[int], list[float], list[list[EteSample]]]:
    periods = config.periods()
    means: list[float] = []
    bursts: list[list[EteSample]] = []
    driver = client.driver
    for period in periods:
        run = run_probe_plan(
            client,
            server_id,
            BurstProbe(config.burst_size, period),
            operation=operation,
        )
        burst_samples = run.samples
        if not burst_samples:
            raise InsufficientData(
                f"burst at period {period} ns produced no samples"
            )
        means.append(sum(s.ete for s in burst_samples) / len(burst_samples))
        bursts.append(burst_samples)
        if config.inter_burst_gap:
            driver.wait_until(None, driver.now() + config.inter_burst_gap)
    return periods, means, bursts


def select_period_burst(
    client: Client,
    server_id: str,
    config: PeriodSelectionConfig | None = None,
    *,
    operation: Operation | None = None,
) -> SelectionResult:
    """Sweep doubling-period bursts and pick the burst-mode probe period."""
    config = config or PeriodSelectionConfig()
    periods, means, bursts = _sweep(client, server_id, config, operation)
    best, period = choose_burst_period(periods, means)
    return SelectionResult(period, best, periods, means, bursts)


def select_period_periodic(
    client: Client,
    server_id: str,
    config: PeriodSelectionConfig | None = None,
    *,
    operation: Operation | None = None,
) -> SelectionResult:
    """Sweep doubling-period bursts and pick the periodic-mode probe period."""
    config = config or PeriodSelectionConfig()
    periods, means, bursts = _sweep(client, server_id, config, operation)
    best, period = choose_periodic_period(periods, means, config.alpha, config.rule)
    return SelectionResult(period, best, periods, means, bursts)
