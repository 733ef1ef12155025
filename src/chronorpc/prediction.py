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

One PredictorState holds the window and serves any subset of them from it,
so evaluate_stream compares rules on exactly the same samples in one pass;
each rule is computed in PredictorState.predict and nowhere else.

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
    "OutOfOrderSample",
    "EteSample",
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


def _population_variance(values: Sequence[float]) -> float:
    # 1/N divisor over exactly the supplied entries.
    mean = sum(values) / len(values)
    return sum([(v - mean) ** 2 for v in values]) / len(values)


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
    taken once, when its estimate is appended (new minus previous).

    `count`, `estimate` and `variance` are plain attributes, read-only by
    contract; PredictorState predicts `estimate` once `count` is 2 or more.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.count = 0
        self.estimate = 0.0
        self.variance = 0.0
        self._diffs: deque[float] = deque(maxlen=window)
        self._residuals: deque[float] = deque(maxlen=window)

    def observe(self, measurement: float) -> None:
        measurement = float(measurement)
        if self.count == 0:
            self.estimate = measurement
            self.variance = 0.0
        else:
            # The noise terms: drift variance over the differences held, and
            # residual variance once two residuals are held.
            diffs = self._diffs
            residuals = self._residuals
            previous = self.estimate
            self.estimate, self.variance, _ = kalman_step(
                previous,
                self.variance,
                _population_variance(diffs) if diffs else 0.0,
                _population_variance(residuals) if len(residuals) >= 2 else 0.0,
                measurement,
            )
            diffs.append(self.estimate - previous)
        self._residuals.append(measurement - self.estimate)
        self.count += 1


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


class PredictorState:
    """Per-(server, operation-type) predictor: one window of offsets serving
    each of the rules it was built with.

    The window holds the last `window` offsets in sequence order
    (`offsets`), their exact integer sum (`total`), the last sequence index
    pushed (`last_index`) and how many samples were ever pushed
    (`sample_count`); all are read-only by contract. The mean needs no pass
    over the window: total / n is bit for bit the float mean
    sum(map(float, offsets)) / n while the absolute offsets held add up to
    less than 2**53 ns (104 days in all, 13 days per offset in a window of
    8), since below that bound every float partial sum is an exact integer.

    Cold-start ladder: with no samples every rule predicts 0 (baseline); the
    Kalman rule additionally falls back to the window average until the
    filter has two samples. Only a state built with kalman owns a filter.
    """

    def __init__(self, algorithms: Sequence[str], window: int = DEFAULT_WINDOW):
        for name in algorithms:
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm: {name!r}")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.algorithms = tuple(algorithms)
        self.window = window
        self.offsets: deque[int] = deque(maxlen=window)
        self.total = 0
        self.last_index: int | None = None
        self.sample_count = 0
        self.kalman = KalmanFilter1D(window) if "kalman" in self.algorithms else None

    def push(self, sample: EteSample) -> None:
        index = sample.sequence_index
        last = self.last_index
        if last is not None and index <= last:
            raise OutOfOrderSample(f"sequence index {index} after {last}")
        ete = sample.ete
        offsets = self.offsets
        if len(offsets) == self.window:
            self.total -= offsets[0]
        offsets.append(ete)
        self.total += ete
        self.last_index = index
        if self.kalman is not None:
            self.kalman.observe(ete)
        self.sample_count += 1

    def push_times(self, scheduled_time: int, execution_time: int) -> EteSample:
        sample = EteSample(
            scheduled_time,
            execution_time,
            execution_time - scheduled_time,
            self.sample_count,
        )
        self.push(sample)
        return sample

    def predict(self, algorithm: str) -> Prediction:
        """The rule's prediction, rounded to whole nanoseconds (round() of a
        float is already an int)."""
        if algorithm not in self.algorithms:
            raise ValueError(f"predictor not built for {algorithm!r}")
        if algorithm == "baseline":
            return Prediction(0, 0.0, "baseline")
        offsets = self.offsets
        n = len(offsets)
        if not n:
            return Prediction(0, 0.0, "baseline", True)
        if algorithm == "average":
            raw = self.total / n
            return Prediction(round(raw), raw, "average")
        if algorithm == "ft-average":
            if n < 3:
                raw = self.total / n
            else:
                raw = (self.total - max(offsets) - min(offsets)) / (n - 2)
            return Prediction(round(raw), raw, "ft-average")
        # kalman
        kalman = self.kalman
        if kalman.count < 2:
            raw = self.total / n
            return Prediction(round(raw), raw, "average", True)
        raw = kalman.estimate
        return Prediction(round(raw), raw, "kalman")


def evaluate_stream(
    samples: Iterable[EteSample],
    algorithms: Sequence[str],
    window: int = DEFAULT_WINDOW,
) -> list[dict[str, Prediction]]:
    """Offline pass over a recorded stream: for each sample, one row holding
    each rule's prediction that a fresh predictor would have issued just
    before observing it."""
    state = PredictorState(algorithms, window)
    predict, push, names = state.predict, state.push, state.algorithms
    rows: list[dict[str, Prediction]] = []
    for sample in samples:
        rows.append({name: predict(name) for name in names})
        push(sample)
    return rows


def read_sample_csv(stream: io.TextIOBase | Iterable[str]) -> list[EteSample]:
    """Load a recorded stream from CSV with columns
    sequence,scheduled_time_ns,execution_time_ns (header required)."""
    reader = csv.DictReader(stream, restval="")
    missing = [f for f in REPLAY_INPUT_FIELDS if f not in (reader.fieldnames or [])]
    if missing:
        raise ValueError(f"sample csv missing columns: {', '.join(missing)}")
    samples = []
    for row in reader:
        try:
            sample = EteSample.from_times(
                int(row["scheduled_time_ns"]),
                int(row["execution_time_ns"]),
                int(row["sequence"]),
            )
        except ValueError:
            raise ValueError(
                f"line {reader.line_num}: "
                f"{', '.join(REPLAY_INPUT_FIELDS)} must be integers"
            ) from None
        samples.append(sample)
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
    predictions = evaluate_stream(samples, algorithms, window)
    header = list(REPLAY_INPUT_FIELDS) + ["ete_ns"]
    for name in algorithms:
        header += [f"{name}_prediction_ns", f"{name}_abs_error_ns"]
    rows = []
    for sample, preds in zip(samples, predictions):
        row = [
            sample.sequence_index,
            sample.scheduled_time,
            sample.execution_time,
            sample.ete,
        ]
        for name in algorithms:
            pred = preds[name]
            row += [pred.value, abs(pred.value - sample.ete)]
        rows.append(row)
    return header, rows
