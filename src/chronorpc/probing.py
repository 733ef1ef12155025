"""Active probing: measurement plans and probe-period selection.

When a workload does not naturally produce timing samples, the client sends
probe rpcs - scheduled, with get-time set - purely to measure execution
offsets. A plan is a burst: a run of `count` probes spaced by `period`, fired
on demand before the operation that matters or repeated as a steady cadence.
Probe scheduled times form an exact grid: strictly increasing, spaced by the
plan period.

Period selection sweeps M bursts whose periods double each step, computes
each burst's mean offset, and picks:

* burst mode    - twice the best (lowest-mean) tested period, leaving margin
                  above the fastest cadence that still measured well
* periodic mode - the largest tested period whose mean stays within
                  (1 + alpha) of the best burst's mean
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .client import Client, PendingCall, probe_operation
from .protocol import MILLIS, SECONDS, Operation

__all__ = [
    "InsufficientData",
    "BurstProbe",
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
class BurstProbe:
    count: int
    period: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("burst count must be >= 1")
        if self.period <= 0:
            raise ValueError("probe period must be positive")


def run_probe_plan(
    client: Client,
    server_id: str,
    plan: BurstProbe,
    *,
    operation: Operation | None = None,
) -> list[PendingCall]:
    """Execute a plan against one server; returns its calls in schedule order.

    Each probe is sent the client's `dispatch_lead` ahead of its scheduled
    time, so transit delay never pushes it into the past: the plan waits
    until then and submits, and sets no timer of its own. A call whose
    `ete` is set measured an offset; a probe that is refused, unsent or
    unanswered leaves a gap, and the remaining probes still run. The plan's
    one wait ends every call: a refused probe holds its error reply, an
    unsent one the transport's error and one unanswered at the deadline
    ReplyTimeout, so a late reply feeds no predictor. The first probe is
    sent at once, so a server the client is not connected to raises
    ValueError before any time passes.
    """
    op = operation if operation is not None else probe_operation()
    lead = client.dispatch_lead
    driver = client.driver
    start = driver.now() + lead
    calls: list[PendingCall] = []
    for k in range(plan.count):
        t = start + k * plan.period
        driver.wait_until(None, t - lead)
        calls.append(client.submit(server_id, op, t, get_time=True))
    client.wait(calls, t + client.reply_timeout)
    return calls


@dataclass(frozen=True)
class PeriodSelectionConfig:
    """Sweep shape for probe-period selection."""

    bursts: int = 5
    burst_size: int = 4
    initial_period: int = 250 * MILLIS
    alpha: float = 0.1
    inter_burst_gap: int = 1 * SECONDS

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

    def periods(self) -> list[int]:
        return [self.initial_period * (1 << i) for i in range(self.bursts)]


@dataclass
class SelectionResult:
    period: int
    best_index: int
    periods: list[int]
    means: list[float]


def choose_burst_period(periods: Sequence[int], means: Sequence[float]) -> tuple[int, int]:
    """Best tested period by mean offset (ties to the earliest), doubled."""
    if len(periods) != len(means) or not periods:
        raise ValueError("need one mean per tested period")
    best = min(range(len(means)), key=lambda i: (means[i], i))
    return best, 2 * periods[best]


def choose_periodic_period(
    periods: Sequence[int], means: Sequence[float], alpha: float
) -> tuple[int, int]:
    """Largest tested period whose burst mean is below (1 + alpha) x the best.

    Returns (best_index, chosen_period).
    """
    best, _ = choose_burst_period(periods, means)
    bound = (1.0 + alpha) * means[best]
    qualifying = [i for i in range(len(periods)) if means[i] < bound]
    if not qualifying:
        return best, periods[best]
    chosen = max(qualifying, key=lambda i: periods[i])
    return best, periods[chosen]


def _sweep(
    client: Client,
    server_id: str,
    config: PeriodSelectionConfig,
    operation: Operation | None,
) -> tuple[list[int], list[float]]:
    periods = config.periods()
    means: list[float] = []
    driver = client.driver
    for period in periods:
        calls = run_probe_plan(
            client,
            server_id,
            BurstProbe(config.burst_size, period),
            operation=operation,
        )
        etes = [call.ete for call in calls if call.ete is not None]
        if not etes:
            raise InsufficientData(
                f"burst at period {period} ns produced no samples"
            )
        means.append(sum(etes) / len(etes))
        if config.inter_burst_gap:
            driver.wait_until(None, driver.now() + config.inter_burst_gap)
    return periods, means


def select_period_burst(
    client: Client,
    server_id: str,
    config: PeriodSelectionConfig | None = None,
    *,
    operation: Operation | None = None,
) -> SelectionResult:
    """Sweep doubling-period bursts and pick the burst-mode probe period."""
    config = config or PeriodSelectionConfig()
    periods, means = _sweep(client, server_id, config, operation)
    best, period = choose_burst_period(periods, means)
    return SelectionResult(period, best, periods, means)


def select_period_periodic(
    client: Client,
    server_id: str,
    config: PeriodSelectionConfig | None = None,
    *,
    operation: Operation | None = None,
) -> SelectionResult:
    """Sweep doubling-period bursts and pick the periodic-mode probe period."""
    config = config or PeriodSelectionConfig()
    periods, means = _sweep(client, server_id, config, operation)
    best, period = choose_periodic_period(periods, means, config.alpha)
    return SelectionResult(period, best, periods, means)
