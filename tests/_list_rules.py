"""List-based copies of the windowed rules, and the Kalman filter's step and
noise estimators.

The package computes the windowed rules incrementally (PredictorState keeps
a running sum). The functions here recompute them from plain lists with the
same operations in the same order, so the incremental code must match them
bit for bit (`==`), where tests/_reference.py is an independent oracle
checked to a tolerance.

The package computes the kalman rule as the last offset held, which is what
the filter as specified reduces to. `kalman_step` and the two noise
estimators below are the filter itself, kept so that tests can replay it
(`list_kalman_replay` in test_prediction.py) and check that reduction `==`.
"""

from __future__ import annotations

from typing import Sequence

from chronorpc.prediction import PredictionError


class EmptyWindow(PredictionError):
    """A windowed statistic was requested over zero samples."""


class InsufficientHistory(PredictionError):
    """A variance estimate was requested over fewer than two history entries."""


def average(values: Sequence[float]) -> float:
    """Plain mean; EmptyWindow on no samples."""
    if not values:
        raise EmptyWindow("average of zero samples")
    return sum(values) / len(values)


def ft_average(values: Sequence[float]) -> float:
    """Mean with one max and one min occurrence dropped.

    Windows shorter than 3 cannot spare the extremes and use the plain mean.
    Exactly one occurrence of the maximum and one of the minimum are removed,
    so duplicated extremes still contribute the surplus copies.
    """
    if not values:
        raise EmptyWindow("ft-average of zero samples")
    if len(values) < 3:
        return sum(values) / len(values)
    trimmed = sum(values) - max(values) - min(values)
    return trimmed / (len(values) - 2)


def _population_variance(values: Sequence[float]) -> float:
    # 1/N divisor over exactly the supplied entries.
    mean = sum(values) / len(values)
    return sum([(v - mean) ** 2 for v in values]) / len(values)


def estimate_drift_variance(estimate_history: Sequence[float]) -> float:
    """Process-noise estimate: population variance of the first differences
    of the filtered estimates. Needs at least 2 history entries."""
    if len(estimate_history) < 2:
        raise InsufficientHistory("drift variance needs >= 2 estimates")
    diffs = [b - a for a, b in zip(estimate_history, estimate_history[1:])]
    return _population_variance(diffs)


def estimate_residual_variance(
    measurement_history: Sequence[float], estimate_history: Sequence[float]
) -> float:
    """Measurement-noise estimate: population variance of the filtered
    residuals measurement - estimate. Needs at least 2 paired entries."""
    if len(measurement_history) != len(estimate_history):
        raise ValueError("histories must be the same length")
    if len(measurement_history) < 2:
        raise InsufficientHistory("residual variance needs >= 2 residuals")
    residuals = [x - s for x, s in zip(measurement_history, estimate_history)]
    return _population_variance(residuals)


def kalman_step(
    estimate: float,
    variance: float,
    drift_variance: float,
    residual_variance: float,
    measurement: float,
) -> tuple[float, float, float]:
    """One predict+update cycle of the unit-transition filter.

    Returns (new_estimate, new_variance, gain). The predicted estimate is the
    previous one; the predicted variance grows by the drift variance. When
    both the predicted variance and the residual variance are zero the gain
    is defined as 1 (adopt the measurement).
    """
    predicted_variance = variance + drift_variance
    denom = predicted_variance + residual_variance
    gain = 1.0 if denom == 0.0 else predicted_variance / denom
    new_estimate = estimate + gain * (measurement - estimate)
    new_variance = (1.0 - gain) * predicted_variance
    return new_estimate, new_variance, gain
