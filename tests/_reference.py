"""Independent reference predictors used as oracles by the unit tests.

Deliberately written in a different style from the package: no incremental
state, no ring buffers. Every prediction is recomputed from the full sample
prefix each step, directly from the published update rules. Slow, obvious,
and easy to audit by hand.

Conventions mirrored from the package contract:
  - window of N most recent samples; FT variant needs at least 3
  - kalman seeds estimate := first sample with zero variance, tracks the
    last N+1 estimates and last N residuals, uses 1/N (population)
    variances computed over whatever entries exist (0 when fewer than 2),
    and defines gain := 1 when both variance terms are zero
  - cold-start ladder: no samples -> 0; kalman with fewer than 2 samples
    -> plain window average, which over one sample is that sample, the
    package's last offset held

The package computes kalman as the last offset held: the filter below,
run as specified, has gain 1 on every step (each filtered residual is 0.0),
so each estimate is the newest measurement. ref_kalman_trajectory runs the
whole filter anyway, so the tests check that reduction rather than assume it.
"""

from __future__ import annotations


def ref_average(values: list[float]) -> float:
    assert values
    return sum(values) / len(values)


def ref_ft_average(values: list[float]) -> float:
    assert values
    if len(values) < 3:
        return sum(values) / len(values)
    trimmed = list(values)
    trimmed.remove(max(trimmed))
    trimmed.remove(min(trimmed))
    return sum(trimmed) / len(trimmed)


def ref_population_variance(entries: list[float]) -> float:
    if len(entries) < 2:
        return 0.0
    mean = sum(entries) / len(entries)
    return sum((e - mean) ** 2 for e in entries) / len(entries)


def ref_kalman_trajectory(
    measurements: list[float], window: int
) -> tuple[list[float], list[float]]:
    """Run the whole filter from scratch; returns (estimates, variances)."""
    estimates: list[float] = []
    variances: list[float] = []
    residuals: list[float] = []
    for n, x in enumerate(measurements):
        if n == 0:
            s, p = float(x), 0.0
        else:
            drift_diffs = [
                b - a
                for a, b in zip(
                    estimates[-(window + 1) :], estimates[-(window + 1) :][1:]
                )
            ]
            w_var = ref_population_variance(drift_diffs)
            v_var = ref_population_variance(residuals[-window:])
            s_prior = estimates[-1]
            p_prior = variances[-1] + w_var
            denom = p_prior + v_var
            gain = 1.0 if denom == 0.0 else p_prior / denom
            s = s_prior + gain * (x - s_prior)
            p = (1.0 - gain) * p_prior
        estimates.append(s)
        variances.append(p)
        residuals.append(x - s)
    return estimates, variances


def ref_predict(history: list[float], algorithm: str, window: int) -> float:
    """Prediction for the *next* sample given everything seen so far."""
    if algorithm == "baseline":
        return 0.0
    if not history:
        return 0.0
    recent = history[-window:]
    if algorithm == "average":
        return ref_average(recent)
    if algorithm == "ft-average":
        return ref_ft_average(recent)
    if algorithm == "kalman":
        if len(history) < 2:
            return ref_average(recent)
        estimates, _ = ref_kalman_trajectory(history, window)
        return estimates[-1]
    raise ValueError(algorithm)


def ref_prediction_series(
    measurements: list[float], algorithm: str, window: int
) -> list[float]:
    """One prediction per sample, each made before that sample arrives."""
    return [
        ref_predict(measurements[:n], algorithm, window)
        for n in range(len(measurements))
    ]
