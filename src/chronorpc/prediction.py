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
* kalman       - the last offset held, once two samples are in (the window
                 average before that). As specified, the rule is a 1-D
                 constant-state Kalman filter that estimates its
                 measurement noise from its filtered residuals. Its first
                 gain is 1, which makes every filtered residual exactly
                 0.0, so the gain stays 1 and each estimate is the newest
                 measurement. Below the 2**53 ns bound PredictorState
                 states, e + 1.0 * (x - e) is exactly x, so the last offset
                 is bit for bit what the filter would predict.

Every rule is a pure function of one window, so one PredictorState serves
all of them: evaluate_stream compares rules on exactly the same samples in
one pass, and each rule is computed in PredictorState.predict and nowhere
else.

Arithmetic runs in 64-bit floats on nanosecond values; predictions are
rounded to whole nanoseconds only at the scheduling boundary.

Online, the predictor is pushed the bare offset of each answered call, which
itself holds T_s and T_e. EteSample is the offline record: a recorded stream
is read into EteSamples, and evaluate_stream walks them in order, refusing a
sequence index that does not strictly increase.

Prediction is built for every prediction, so it and EteSample are slotted
but not frozen (a frozen __init__ pays for object.__setattr__ on each
field). They are read-only by contract and, being mutable, not hashable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "ALGORITHMS",
    "DEFAULT_WINDOW",
    "PredictionError",
    "OutOfOrderSample",
    "EteSample",
    "Prediction",
    "PredictorState",
    "evaluate_stream",
]

ALGORITHMS = ("baseline", "average", "ft-average", "kalman")
DEFAULT_WINDOW = 8


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
    """Per-(server, operation-type) predictor: one window of offsets that
    serves every rule in ALGORITHMS.

    The window holds the last `window` offsets in push order (`offsets`),
    their exact integer sum (`total`) and how many offsets were ever pushed
    (`sample_count`); all are read-only by contract. The mean needs no pass
    over the window: total / n is bit for bit the float mean
    sum(map(float, offsets)) / n while the absolute offsets held add up to
    less than 2**53 ns (104 days in all, 13 days per offset in a window of
    8), since below that bound every float partial sum is an exact integer.

    Cold-start ladder: with no samples every rule predicts 0 (baseline); the
    kalman rule falls back to the window average until two samples have
    been pushed, then predicts the last offset held.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.offsets: deque[int] = deque(maxlen=window)
        self.total = 0
        self.sample_count = 0

    def push(self, ete: int) -> None:
        """Fold in one measured offset, T_e - T_s."""
        offsets = self.offsets
        if len(offsets) == self.window:
            self.total -= offsets[0]
        offsets.append(ete)
        self.total += ete
        self.sample_count += 1

    def predict(self, algorithm: str) -> Prediction:
        """The rule's prediction, rounded to whole nanoseconds (round() of a
        float is already an int)."""
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {algorithm!r}")
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
        if self.sample_count < 2:
            raw = self.total / n
            return Prediction(round(raw), raw, "average", True)
        last = offsets[-1]
        return Prediction(last, float(last), "kalman")


def evaluate_stream(
    samples: Iterable[EteSample],
    algorithms: Sequence[str],
    window: int = DEFAULT_WINDOW,
) -> list[dict[str, Prediction]]:
    """Offline pass over a recorded stream: for each sample, one row holding
    each rule's prediction that a fresh predictor would have issued just
    before observing it. Sequence indices must strictly increase: a sample
    whose index does not raises OutOfOrderSample before it is pushed."""
    names = tuple(algorithms)
    for name in names:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {name!r}")
    state = PredictorState(window)
    predict, push = state.predict, state.push
    rows: list[dict[str, Prediction]] = []
    last = None
    for sample in samples:
        index = sample.sequence_index
        if last is not None and index <= last:
            raise OutOfOrderSample(f"sequence index {index} after {last}")
        last = index
        rows.append({name: predict(name) for name in names})
        push(sample.ete)
    return rows

