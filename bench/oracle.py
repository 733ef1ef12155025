"""Offline predictions recomputed from a recorded stream, apart from chronorpc.

A linear pass that follows the published update rules directly: plain lists,
no ring buffers, no shared state between algorithms. The benchmark compares
the package's offline predictions against it to within 1 ns.

Rules: a window of the N most recent offsets; ft-average drops one maximum
and one minimum when it holds at least 3; the Kalman filter seeds its
estimate from the first sample with zero variance, and before each update
takes the population variance of the first differences of the last N+1
estimates (drift) and of the last N residuals (measurement), each 0 over
fewer than 2 entries, with gain 1 when both variance terms are zero.
Cold start: no samples predicts 0; Kalman with fewer than 2 samples uses the
window average.
"""

from __future__ import annotations


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _variance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def predictions(offsets: list[int], algorithm: str, window: int) -> list[float]:
    """The prediction made before each offset of the stream arrives."""
    out: list[float] = []
    history: list[float] = []
    estimates: list[float] = []
    variance = 0.0
    residuals: list[float] = []
    for offset in offsets:
        recent = history[-window:]
        if algorithm == "baseline" or not recent:
            out.append(0.0)
        elif algorithm == "average" or (algorithm == "kalman" and len(history) < 2):
            out.append(_mean(recent))
        elif algorithm == "ft-average":
            if len(recent) < 3:
                out.append(_mean(recent))
            else:
                trimmed = sorted(recent)[1:-1]
                out.append(sum(trimmed) / len(trimmed))
        elif algorithm == "kalman":
            out.append(estimates[-1])
        else:
            raise ValueError(algorithm)

        x = float(offset)
        if not estimates:
            estimate, variance = x, 0.0
        else:
            last = estimates[-(window + 1) :]
            drift = _variance([b - a for a, b in zip(last, last[1:])])
            prior = variance + drift
            denominator = prior + _variance(residuals[-window:])
            gain = 1.0 if denominator == 0.0 else prior / denominator
            estimate = estimates[-1] + gain * (x - estimates[-1])
            variance = (1.0 - gain) * prior
        estimates.append(estimate)
        residuals.append(x - estimate)
        history.append(x)
    return out
