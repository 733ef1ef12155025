import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronorpc.cli import read_sample_csv, replay_rows
from chronorpc.prediction import (
    ALGORITHMS,
    EteSample,
    OutOfOrderSample,
    PredictorState,
    evaluate_stream,
)
from chronorpc.protocol import MILLIS

from _list_rules import (
    InsufficientHistory,
    average,
    estimate_drift_variance,
    estimate_residual_variance,
    ft_average,
    kalman_step,
)
from _reference import (
    ref_kalman_trajectory,
    ref_population_variance,
    ref_prediction_series,
)


def make_samples(etes, spacing=1_000_000):
    out = []
    for i, ete in enumerate(etes):
        t_s = i * spacing
        out.append(EteSample.from_times(t_s, t_s + int(ete), i))
    return out


def make_trace(seed=42, n=100):
    """The synthetic trace used for step-by-step reference comparison:
    gaussian around 30ms with a few large spikes mixed in."""
    rng = random.Random(seed)
    values = []
    for i in range(n):
        ete = max(0, round(rng.gauss(30 * MILLIS, 3 * MILLIS)))
        if i % 17 == 5:
            ete *= 10
        values.append(ete)
    return values


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def window_of(etes) -> PredictorState:
    """A state for every rule whose window holds exactly the given offsets."""
    state = PredictorState(max(1, len(etes)))
    for ete in etes:
        state.push(ete)
    return state


def is_cold(p) -> bool:
    """The baseline fallback a rule gives over an empty window."""
    return (p.value, p.raw, p.algorithm, p.fallback) == (0, 0.0, "baseline", True)


class TestAverage:
    def test_hand_example(self):
        w = window_of([1 * MILLIS, 2 * MILLIS, 3 * MILLIS, 10 * MILLIS])
        assert w.predict("average").raw == 4 * MILLIS

    def test_single(self):
        assert window_of([7]).predict("average").raw == 7.0

    def test_empty(self):
        assert is_cold(window_of([]).predict("average"))


class TestFtAverage:
    def test_drops_extremes(self):
        w = window_of([1 * MILLIS, 2 * MILLIS, 3 * MILLIS, 10 * MILLIS])
        assert w.predict("ft-average").raw == 2.5 * MILLIS

    def test_short_window_is_plain_mean(self):
        w = window_of([5 * MILLIS, 9 * MILLIS])
        assert w.predict("ft-average").raw == 7 * MILLIS

    def test_constant_window(self):
        assert window_of([4 * MILLIS] * 4).predict("ft-average").raw == 4 * MILLIS

    def test_duplicated_max_removed_once(self):
        # one 5 dropped as max, the 1 dropped as min; the other 5 stays
        assert window_of([5, 5, 5, 1]).predict("ft-average").raw == 5.0

    def test_empty(self):
        assert is_cold(window_of([]).predict("ft-average"))


class TestVarianceEstimates:
    def test_residuals_plus_minus_one_ms(self):
        # residuals {+1ms, -1ms}: mean 0, both squared deviations 1 ms^2
        v = estimate_residual_variance(
            [31 * MILLIS, 29 * MILLIS], [30 * MILLIS, 30 * MILLIS]
        )
        assert v == float(MILLIS) ** 2

    def test_constant_estimates_zero_drift(self):
        assert estimate_drift_variance([20.0, 20.0, 20.0, 20.0]) == 0.0

    def test_matches_reference_popvar(self):
        rng = random.Random(3)
        hist = [rng.uniform(0, 1e9) for _ in range(9)]
        diffs = [b - a for a, b in zip(hist, hist[1:])]
        assert math.isclose(
            estimate_drift_variance(hist),
            ref_population_variance(diffs),
            rel_tol=1e-12,
        )

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            estimate_drift_variance([1.0])
        with pytest.raises(InsufficientHistory):
            estimate_residual_variance([1.0], [1.0])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            estimate_residual_variance([1.0, 2.0], [1.0])

    def test_nonnegative(self):
        rng = random.Random(11)
        for _ in range(50):
            hist = [rng.uniform(-1e9, 1e9) for _ in range(rng.randint(2, 10))]
            assert estimate_drift_variance(hist) >= 0.0


class TestKalmanStep:
    def test_symmetric_gain(self):
        # predicted variance equals residual variance -> midpoint
        s, p, k = kalman_step(10.0, 1.0, 1.0, 2.0, 20.0)
        assert k == 0.5
        assert s == 15.0
        assert p == 1.0

    def test_noiseless_measurement(self):
        s, p, k = kalman_step(10.0, 3.0, 1.0, 0.0, 42.0)
        assert k == 1.0
        assert s == 42.0
        assert p == 0.0

    def test_confident_prior(self):
        s, p, k = kalman_step(10.0, 0.0, 0.0, 5.0, 99.0)
        assert k == 0.0
        assert s == 10.0
        assert p == 0.0

    def test_degenerate_both_zero(self):
        s, p, k = kalman_step(10.0, 0.0, 0.0, 0.0, 33.0)
        assert k == 1.0
        assert s == 33.0

    def test_gain_in_unit_interval(self):
        rng = random.Random(5)
        for _ in range(200):
            _, p_new, k = kalman_step(
                rng.uniform(-1e9, 1e9),
                rng.uniform(0, 1e12),
                rng.uniform(0, 1e12),
                rng.uniform(0, 1e12),
                rng.uniform(-1e9, 1e9),
            )
            assert 0.0 <= k <= 1.0
            assert p_new >= 0.0


class TestKalmanFilter:
    """The filter as specified, run by the from-scratch reference, and the
    package's kalman rule, which is the last offset held."""

    def test_not_warm_until_two(self):
        state = PredictorState(8)
        ran = []
        for ete in [20 * MILLIS] * 2:
            ran.append(state.predict("kalman").algorithm)
            state.push(ete)
        p = state.predict("kalman")
        assert ran + [p.algorithm] == ["baseline", "average", "kalman"]
        assert p.raw == 20.0 * MILLIS

    def test_constant_stream_fixed_point(self):
        estimates, variances = ref_kalman_trajectory([20.0 * MILLIS] * 20, 8)
        assert estimates[-1] == 20.0 * MILLIS
        assert variances[-1] == 0.0

    def test_trace_matches_reference(self):
        # The list replay (kalman_step and the list noise estimators) against
        # the from-scratch filter; a prediction is the estimate one sample
        # earlier.
        trace = make_trace()
        ref_estimates, ref_variances = ref_kalman_trajectory(
            [float(v) for v in trace], 8
        )
        raws, variances = list_kalman_replay(trace, 8)
        for i in range(len(trace)):
            if i >= 2:
                assert rel_err(raws[i], ref_estimates[i - 1]) <= 1e-9, i
            assert rel_err(variances[i], ref_variances[i]) <= 1e-9, i

    def test_integer_streams_track_last_sample(self):
        # With zero-initialized variance and exact integer arithmetic the
        # residuals stay identically zero, so the gain locks at 1 and the
        # estimate follows the newest measurement. The package's kalman rule
        # is computed as exactly that.
        rng = random.Random(9)
        values = [float(rng.randint(0, 10**10)) for _ in range(100)]
        estimates, _ = ref_kalman_trajectory(values, 8)
        assert estimates[-1] == values[-1]


class TestSampleWindow:
    """The window of offsets a PredictorState holds."""

    def test_eviction(self):
        state = PredictorState(3)
        for ete in [1, 2, 3, 4]:
            state.push(ete)
        assert list(state.offsets) == [2, 3, 4]
        assert state.total == 9
        assert state.sample_count == 4

    def test_out_of_order(self):
        # evaluate_stream is where sequence order is checked
        samples = make_samples([5, 6])
        with pytest.raises(OutOfOrderSample, match="sequence index 0 after 1"):
            evaluate_stream([samples[1], samples[0]], ("average",), 3)

    def test_duplicate_index(self):
        sample = make_samples([5])[0]
        with pytest.raises(OutOfOrderSample, match="sequence index 0 after 0"):
            evaluate_stream([sample, sample], ("average",), 3)

    def test_empty_push_one(self):
        state = PredictorState(4)
        assert len(state.offsets) == 0
        state.push(9)
        assert list(state.offsets) == [9]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PredictorState(0)


class TestEteSample:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            EteSample(scheduled_time=10, execution_time=30, ete=5, sequence_index=0)

    def test_from_times(self):
        s = EteSample.from_times(100, 130, 2)
        assert s.ete == 30
        assert s.sequence_index == 2


class TestPredictorState:
    def test_cold_start_is_baseline(self):
        for algo in ALGORITHMS:
            p = PredictorState(8).predict(algo)
            assert p.value == 0
            if algo != "baseline":
                assert p.fallback
                assert p.algorithm == "baseline"

    def test_kalman_falls_back_to_average_with_one_sample(self):
        state = PredictorState(8)
        state.push(30 * MILLIS)
        p = state.predict("kalman")
        assert p.algorithm == "average"
        assert p.fallback
        assert p.value == 30 * MILLIS

    def test_warm_flag(self):
        state = PredictorState(8)
        assert state.predict("kalman").fallback
        for ete in [10, 20]:
            state.push(ete)
        assert state.predict("kalman").algorithm == "kalman"
        assert not state.predict("kalman").fallback

    def test_baseline_always_zero(self):
        state = PredictorState(8)
        for ete in [10, 20, 30]:
            state.push(ete)
        assert state.predict("baseline").value == 0

    def test_rejects_unknown_algorithm(self):
        # An empty window refuses the name too, rather than answer with the
        # baseline fallback.
        state = PredictorState(8)
        with pytest.raises(ValueError, match="unknown algorithm: 'median'"):
            state.predict("median")
        for ete in [10, 20, 30]:
            state.push(ete)
        with pytest.raises(ValueError, match="unknown algorithm: 'median'"):
            state.predict("median")

    def test_rounding_to_nearest_ns(self):
        state = PredictorState(8)
        for ete in [1, 2]:
            state.push(ete)
        p = state.predict("average")
        assert p.raw == 1.5
        assert p.value == 2  # round-half-even at .5


class TestEvaluateStream:
    def test_prediction_precedes_sample(self):
        samples = make_samples([100, 200, 300])
        rows = evaluate_stream(samples, ("average",), 8)
        assert [row["average"].value for row in rows] == [0, 100, 150]

    def test_all_algorithms_match_reference_series(self):
        trace = make_trace()
        samples = make_samples(trace)
        floats = [float(v) for v in trace]
        rows = evaluate_stream(samples, ALGORITHMS, 8)
        assert len(rows) == len(samples)
        for algo in ALGORITHMS:
            want = ref_prediction_series(floats, algo, 8)
            for i, (row, w) in enumerate(zip(rows, want)):
                assert rel_err(row[algo].raw, w) <= 1e-9, (algo, i)


class TestReplay:
    def test_csv_round_trip(self):
        text = (
            "sequence,scheduled_time_ns,execution_time_ns\n"
            "0,1000,31000\n"
            "1,2000,32000\n"
        )
        samples = read_sample_csv(io.StringIO(text))
        assert [s.ete for s in samples] == [30000, 30000]

    def test_missing_column(self):
        with pytest.raises(ValueError):
            read_sample_csv(io.StringIO("sequence,scheduled_time_ns\n0,1\n"))

    def test_replay_rows_shape(self):
        samples = make_samples([100, 110, 120])
        header, rows = replay_rows(samples, ("baseline", "average"), 8)
        assert header == [
            "sequence",
            "scheduled_time_ns",
            "execution_time_ns",
            "ete_ns",
            "baseline_prediction_ns",
            "baseline_abs_error_ns",
            "average_prediction_ns",
            "average_abs_error_ns",
        ]
        assert rows[0][:4] == [0, 0, 100, 100]
        assert rows[1][4:] == [0, 110, 100, 10]

    def test_replay_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            replay_rows(make_samples([1]), ("average", "magic"), 8)

    def test_evaluate_stream_rejects_unknown_algorithm_before_any_sample(self):
        with pytest.raises(ValueError, match="unknown algorithm: 'magic'"):
            evaluate_stream([], ("average", "magic"))


etes = st.lists(st.integers(min_value=0, max_value=10**11), min_size=1, max_size=16)


class TestProperties:
    @settings(max_examples=150)
    @given(values=etes, shift=st.integers(min_value=0, max_value=10**10))
    def test_shift_equivariance(self, values, shift):
        base = window_of(values)
        moved = window_of([v + shift for v in values])
        for rule in ("average", "ft-average"):
            got, want = moved.predict(rule).raw, base.predict(rule).raw + shift
            assert rel_err(got, want) <= 1e-12, rule

    @settings(max_examples=150)
    @given(values=st.lists(st.integers(min_value=0, max_value=10**9), min_size=3, max_size=12))
    def test_ft_ignores_the_maximum_value(self, values):
        raised = list(values)
        top = max(raised)
        raised[raised.index(top)] = top * 1000 + 1  # unique maximum for sure
        got = window_of(raised).predict("ft-average").raw
        assert got == window_of(values).predict("ft-average").raw

    @settings(max_examples=150)
    @given(values=etes)
    def test_outputs_within_window_bounds(self, values):
        w = window_of(values)
        lo, hi = min(values), max(values)
        assert lo <= w.predict("average").raw <= hi
        assert lo <= w.predict("ft-average").raw <= hi

    @settings(max_examples=100)
    @given(values=st.lists(st.integers(min_value=0, max_value=10**11), min_size=2, max_size=20))
    def test_kalman_estimate_within_sample_range(self, values):
        estimates, _ = ref_kalman_trajectory([float(v) for v in values], 8)
        assert min(values) <= estimates[-1] <= max(values)

    @settings(max_examples=50)
    @given(values=etes)
    def test_determinism(self, values):
        samples = make_samples(values)
        for algo in ALGORITHMS:
            a = [row[algo].raw for row in evaluate_stream(samples, ALGORITHMS, 8)]
            b = [row[algo].raw for row in evaluate_stream(samples, ALGORITHMS, 8)]
            assert a == b


@st.composite
def windowed_streams(draw):
    """A window size and an int offset stream longer than it, with repeats."""
    window = draw(st.integers(min_value=1, max_value=16))
    offsets = st.integers(min_value=-(2**40), max_value=2**40)
    pool = draw(st.lists(offsets, min_size=1, max_size=4))
    values = draw(
        st.lists(
            st.one_of(st.sampled_from(pool), offsets),
            min_size=window + 1,
            max_size=window + 40,
        )
    )
    return window, values


def list_kalman_replay(values, window):
    """Kalman raws replayed on plain lists through the list-based rules,
    with the cold-start fallback PredictorState applies, and the filter's
    variance after each sample."""
    raws, variances = [], []
    measurements, estimates = [], []
    estimate = variance = 0.0

    def drift_variance():
        history = estimates[-(window + 1) :]
        return estimate_drift_variance(history) if len(history) >= 2 else 0.0

    for i, v in enumerate(values):
        if i >= 2:
            raws.append(estimate)
        else:
            held = [float(x) for x in values[max(0, i - window) : i]]
            raws.append(average(held) if held else 0.0)
        x = float(v)
        if i == 0:
            estimate, variance = x, 0.0
        else:
            paired = (measurements[-window:], estimates[-window:])
            residual = (
                estimate_residual_variance(*paired) if len(paired[0]) >= 2 else 0.0
            )
            estimate, variance, _ = kalman_step(
                estimate, variance, drift_variance(), residual, x
            )
        measurements.append(x)
        estimates.append(estimate)
        variances.append(variance)
    return raws, variances


class TestIncrementalWindowMatchesLists:
    @settings(max_examples=200)
    @given(stream=windowed_streams())
    def test_predict_raw_is_bit_identical(self, stream):
        window, values = stream
        kalman_raws, kalman_variances = list_kalman_replay(values, window)
        expected = {"baseline": [0.0] * len(values), "kalman": kalman_raws}
        for name, rule in (("average", average), ("ft-average", ft_average)):
            expected[name] = [0.0] + [
                rule([float(x) for x in values[max(0, i - window) : i]])
                for i in range(1, len(values))
            ]
        state = PredictorState(window)
        for i, ete in enumerate(values):
            for algo in ALGORITHMS:
                assert state.predict(algo).raw == expected[algo][i], (algo, i)
            state.push(ete)
            assert list(state.offsets) == values[max(0, i + 1 - window) : i + 1]
        # The filter as specified never leaves gain 1.
        assert kalman_variances == [0.0] * len(values)

    @settings(max_examples=200)
    @given(stream=windowed_streams())
    def test_kalman_is_the_last_offset_held(self, stream):
        window, values = stream
        estimates, variances = ref_kalman_trajectory(values, window)
        assert estimates == [float(v) for v in values]
        assert variances == [0.0] * len(values)
        state = PredictorState(window)
        for i, ete in enumerate(values):
            state.push(ete)
            if i >= 1:
                raw = state.predict("kalman").raw
                assert raw.hex() == float(values[i]).hex(), i
