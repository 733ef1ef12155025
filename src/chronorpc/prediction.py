"""Completion-offset predictors over a sliding window of timing samples.

Every remotely executed operation that was scheduled for T_s and completed at
T_e yields one sample of its execution offset T_e - T_s. A client that wants
an operation to *finish* at T_d schedules it at T_d minus the predicted
offset, so prediction quality directly bounds completion-time error.

Four algorithms are provided:

* baseline     - always predicts 0 (schedule at the desired time itself)
* average      - arithmetic mean of the last N samples
* ft-average   - mean of the last N samples with one maximum and one minimum
                 occurrence removed (falls back to the plain mean when fewer
                 than 3 samples are held), insensitive to a lone outlier
* kalman       - one-dimensional constant-state Kalman filter whose process
                 and measurement variances are re-estimated from recent
                 history (drift of the filtered estimate, and filtered
                 residuals, respectively)

Arithmetic runs in 64-bit floats on nanosecond values; predictions are
rounded to whole nanoseconds only at the scheduling boundary.

EteSample and Prediction are built for every sample and every prediction,
so they are slotted but not frozen (a frozen __init__ pays for
object.__setattr__ on each field). They are read-only by contract and, being
mutable, not hashable.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "ALGORITHMS",
    "DEFAULT_WINDOW",
    "PredictionError",
    "EmptyWindow",
    "NotWarm",
    "InsufficientHistory",
    "OutOfOrderSample",
    "EteSample",
    "SampleWindow",
    "average",
    "ft_average",
    "estimate_drift_variance",
    "estimate_residual_variance",
    "kalman_step",
    "KalmanFilter1D",
    "Prediction",
    "PredictorState",
    "evaluate_stream",
    "read_sample_csv",
    "replay_rows",
    "REPLAY_INPUT_FIELDS",
]

ALGORITHMS = ("baseline", "average", "ft-average", "kalman")
DEFAULT_WINDOW = 8

REPLAY_INPUT_FIELDS = ("sequence", "scheduled_time_ns", "execution_time_ns")


class PredictionError(Exception):
    pass


class EmptyWindow(PredictionError):
    """A windowed statistic was requested over zero samples."""


class NotWarm(PredictionError):
    """The filter has not yet observed enough samples to predict."""


class InsufficientHistory(PredictionError):
    """A variance estimate was requested over fewer than two history entries."""


class OutOfOrderSample(PredictionError):
    """Sample sequence indices must be strictly increasing."""


@dataclass(slots=True)
class EteSample:
    """One measured execution offset: completion minus scheduled start."""

    scheduled_time: int
    execution_time: int
    ete: int
    sequence_index: int

    def __post_init__(self):
        if self.ete != self.execution_time - self.scheduled_time:
            raise ValueError("ete must equal execution_time - scheduled_time")

    @classmethod
    def from_times(
        cls, scheduled_time: int, execution_time: int, sequence_index: int
    ) -> "EteSample":
        return cls(
            scheduled_time,
            execution_time,
            execution_time - scheduled_time,
            sequence_index,
        )


class SampleWindow:
    """Fixed-capacity window of sample offsets ordered by sequence index.

    It keeps the exact integer sum of the offsets it holds, so the mean needs
    no pass over the window. That sum over n is bit for bit the float mean
    sum(values()) / n while the absolute offsets held add up to less than
    2**53 ns (104 days in all, 13 days per offset in a window of 8): below
    that bound every float partial sum is an exact integer.
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW):
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self.capacity = capacity
        self._values: deque[int] = deque(maxlen=capacity)
        self._total = 0
        self._last_index: int | None = None

    def push(self, sample: EteSample) -> None:
        if self._last_index is not None and sample.sequence_index <= self._last_index:
            raise OutOfOrderSample(
                f"sequence index {sample.sequence_index} after {self._last_index}"
            )
        values = self._values
        if len(values) == self.capacity:
            self._total -= values[0]
        values.append(sample.ete)
        self._total += sample.ete
        self._last_index = sample.sequence_index

    def values(self) -> list[float]:
        return [float(v) for v in self._values]

    def average(self) -> float:
        """average(values()), from the running sum."""
        if not self._values:
            raise EmptyWindow("average of zero samples")
        return self._total / len(self._values)

    def ft_average(self) -> float:
        """ft_average(values()), from the running sum."""
        values = self._values
        n = len(values)
        if n < 3:
            return self.average()
        return (self._total - max(values) - min(values)) / (n - 2)

    @property
    def last_index(self) -> int | None:
        return self._last_index

    def __len__(self) -> int:
        return len(self._values)


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


class KalmanFilter1D:
    """Kalman filter over a constant hidden offset with unit transition.

    The filter seeds itself from the first measurement (estimate := x,
    variance := 0) and re-estimates its noise terms before every update:
    drift variance from the last `window` first differences of the estimate
    and residual variance from the last `window` filtered residuals, both
    with 1/N divisors over however many entries exist. Each difference is
    taken once, when its estimate is appended, with the same subtraction
    estimate_drift_variance() makes. predict() is valid from the second
    sample on.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._estimate = 0.0
        self._variance = 0.0
        self._diffs: deque[float] = deque(maxlen=window)
        self._residuals: deque[float] = deque(maxlen=window)
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def warm(self) -> bool:
        return self._count >= 2

    @property
    def estimate(self) -> float:
        return self._estimate

    @property
    def variance(self) -> float:
        return self._variance

    def _drift_variance(self) -> float:
        if not self._diffs:
            return 0.0
        return _population_variance(self._diffs)

    def _residual_variance(self) -> float:
        if len(self._residuals) < 2:
            return 0.0
        return _population_variance(self._residuals)

    def predict(self) -> float:
        """Predicted next offset given everything observed so far."""
        if not self.warm:
            raise NotWarm(f"kalman filter has {self._count} samples, needs 2")
        return self._estimate

    def predicted_variance(self) -> float:
        if not self.warm:
            raise NotWarm(f"kalman filter has {self._count} samples, needs 2")
        return self._variance + self._drift_variance()

    def observe(self, measurement: float) -> None:
        if self._count == 0:
            self._estimate = float(measurement)
            self._variance = 0.0
        else:
            previous = self._estimate
            self._estimate, self._variance, _ = kalman_step(
                previous,
                self._variance,
                self._drift_variance(),
                self._residual_variance(),
                float(measurement),
            )
            self._diffs.append(self._estimate - previous)
        self._residuals.append(float(measurement) - self._estimate)
        self._count += 1


@dataclass(slots=True)
class Prediction:
    """A rounded offset prediction plus which algorithm actually produced it.

    `algorithm` reports the rule that ran (after any cold-start fallback);
    `fallback` is true when that differs from the configured choice.
    """

    value: int
    raw: float
    algorithm: str
    fallback: bool = False


def _round_ns(value: float) -> int:
    return int(round(value))


class PredictorState:
    """Per-(server, operation-type) predictor: window + configured algorithm.

    Cold-start ladder: with no samples every algorithm predicts 0 (baseline);
    the Kalman choice additionally falls back to the window average until the
    filter has two samples. Only the Kalman choice owns a filter.
    """

    def __init__(self, algorithm: str = "average", window: int = DEFAULT_WINDOW):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {algorithm!r}")
        self.algorithm = algorithm
        self.window = SampleWindow(window)
        self.kalman = KalmanFilter1D(window) if algorithm == "kalman" else None
        self._pushed = 0

    @property
    def sample_count(self) -> int:
        return self._pushed

    def push(self, sample: EteSample) -> None:
        self.window.push(sample)
        if self.kalman is not None:
            self.kalman.observe(float(sample.ete))
        self._pushed += 1

    def push_times(self, scheduled_time: int, execution_time: int) -> EteSample:
        sample = EteSample.from_times(scheduled_time, execution_time, self._pushed)
        self.push(sample)
        return sample

    @property
    def warm(self) -> bool:
        """True when predict() no longer needs the cold-start fallback."""
        if self.algorithm == "baseline":
            return True
        if self.algorithm == "kalman":
            return self.kalman.warm
        return len(self.window) >= 1

    def predict(self) -> Prediction:
        if self.algorithm == "baseline":
            return Prediction(0, 0.0, "baseline")
        window = self.window
        if not len(window):
            return Prediction(0, 0.0, "baseline", fallback=True)
        if self.algorithm == "average":
            raw = window.average()
            return Prediction(_round_ns(raw), raw, "average")
        if self.algorithm == "ft-average":
            raw = window.ft_average()
            return Prediction(_round_ns(raw), raw, "ft-average")
        # kalman
        if not self.kalman.warm:
            raw = window.average()
            return Prediction(_round_ns(raw), raw, "average", fallback=True)
        raw = self.kalman.predict()
        return Prediction(_round_ns(raw), raw, "kalman")


def evaluate_stream(
    samples: Iterable[EteSample], algorithm: str, window: int = DEFAULT_WINDOW
) -> list[Prediction]:
    """Offline pass over a recorded stream: for each sample, the prediction a
    fresh predictor would have issued just before observing it."""
    state = PredictorState(algorithm, window)
    out: list[Prediction] = []
    for sample in samples:
        out.append(state.predict())
        state.push(sample)
    return out


def read_sample_csv(stream: io.TextIOBase | Iterable[str]) -> list[EteSample]:
    """Load a recorded stream from CSV with columns
    sequence,scheduled_time_ns,execution_time_ns (header required)."""
    reader = csv.DictReader(stream)
    missing = [f for f in REPLAY_INPUT_FIELDS if f not in (reader.fieldnames or [])]
    if missing:
        raise ValueError(f"sample csv missing columns: {', '.join(missing)}")
    samples = []
    for row in reader:
        samples.append(
            EteSample.from_times(
                int(row["scheduled_time_ns"]),
                int(row["execution_time_ns"]),
                int(row["sequence"]),
            )
        )
    return samples


def replay_rows(
    samples: Sequence[EteSample],
    algorithms: Sequence[str] = ALGORITHMS,
    window: int = DEFAULT_WINDOW,
) -> tuple[list[str], list[list[int]]]:
    """Replay a recorded stream through the chosen algorithms.

    Returns (header, rows); each row is sequence, scheduled/execution time,
    the measured offset, then per-algorithm prediction and absolute error.
    """
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {name!r}")
    header = list(REPLAY_INPUT_FIELDS) + ["ete_ns"]
    for name in algorithms:
        header += [f"{name}_prediction_ns", f"{name}_abs_error_ns"]
    predictions = {name: evaluate_stream(samples, name, window) for name in algorithms}
    rows = []
    for i, sample in enumerate(samples):
        row = [
            sample.sequence_index,
            sample.scheduled_time,
            sample.execution_time,
            sample.ete,
        ]
        for name in algorithms:
            pred = predictions[name][i]
            row += [pred.value, abs(pred.value - sample.ete)]
        rows.append(row)
    return header, rows
