import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronorpc.prediction import (
    ALGORITHMS,
    EmptyWindow,
    EteSample,
    InsufficientHistory,
    KalmanFilter1D,
    NotWarm,
    OutOfOrderSample,
    PredictorState,
    SampleWindow,
    average,
    estimate_drift_variance,
    estimate_residual_variance,
    evaluate_stream,
    ft_average,
    kalman_step,
    read_sample_csv,
    replay_rows,
)
from chronorpc.protocol import MILLIS

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


class TestAverage:
    def test_hand_example(self):
        assert average([1 * MILLIS, 2 * MILLIS, 3 * MILLIS, 10 * MILLIS]) == 4 * MILLIS

    def test_single(self):
        assert average([7.0]) == 7.0

    def test_empty(self):
        with pytest.raises(EmptyWindow):
            average([])


class TestFtAverage:
    def test_drops_extremes(self):
        got = ft_average([1 * MILLIS, 2 * MILLIS, 3 * MILLIS, 10 * MILLIS])
        assert got == 2.5 * MILLIS

    def test_short_window_is_plain_mean(self):
        assert ft_average([5 * MILLIS, 9 * MILLIS]) == 7 * MILLIS

    def test_constant_window(self):
        assert ft_average([4 * MILLIS] * 4) == 4 * MILLIS

    def test_duplicated_max_removed_once(self):
        # one 5 dropped as max, the 1 dropped as min; the other 5 stays
        assert ft_average([5.0, 5.0, 5.0, 1.0]) == 5.0

    def test_empty(self):
        with pytest.raises(EmptyWindow):
            ft_average([])


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
    def test_not_warm_until_two(self):
        f = KalmanFilter1D(8)
        with pytest.raises(NotWarm):
            f.predict()
        f.observe(20.0 * MILLIS)
        with pytest.raises(NotWarm):
            f.predict()
        f.observe(20.0 * MILLIS)
        assert f.predict() == 20.0 * MILLIS

    def test_constant_stream_fixed_point(self):
        f = KalmanFilter1D(8)
        for _ in range(20):
            f.observe(20.0 * MILLIS)
        assert f.predict() == 20.0 * MILLIS
        assert f.predicted_variance() == 0.0

    def test_trace_matches_reference(self):
        trace = [float(v) for v in make_trace()]
        ref_estimates, ref_variances = ref_kalman_trajectory(trace, 8)
        f = KalmanFilter1D(8)
        for i, x in enumerate(trace):
            f.observe(x)
            assert rel_err(f.estimate, ref_estimates[i]) <= 1e-9, i
            assert rel_err(f.variance, ref_variances[i]) <= 1e-9, i

    def test_integer_streams_track_last_sample(self):
        # With zero-initialized variance and exact integer arithmetic the
        # residuals stay identically zero, so the gain locks at 1 and the
        # estimate follows the newest measurement. Frozen here on purpose;
        # see the constant-stream fixed point above for the benign case.
        rng = random.Random(9)
        f = KalmanFilter1D(8)
        last = 0.0
        for _ in range(100):
            last = float(rng.randint(0, 10**10))
            f.observe(last)
        assert f.estimate == last

    def test_window_validation(self):
        with pytest.raises(ValueError):
            KalmanFilter1D(0)


class TestSampleWindow:
    def test_eviction(self):
        w = SampleWindow(3)
        for s in make_samples([1, 2, 3, 4]):
            w.push(s)
        assert w.values() == [2.0, 3.0, 4.0]
        assert len(w) == 3

    def test_out_of_order(self):
        w = SampleWindow(3)
        samples = make_samples([5, 6])
        w.push(samples[1])
        with pytest.raises(OutOfOrderSample):
            w.push(samples[0])

    def test_duplicate_index(self):
        w = SampleWindow(3)
        sample = make_samples([5])[0]
        w.push(sample)
        with pytest.raises(OutOfOrderSample):
            w.push(sample)

    def test_empty_push_one(self):
        w = SampleWindow(4)
        assert len(w) == 0
        w.push(make_samples([9])[0])
        assert len(w) == 1
        assert w.last_index == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SampleWindow(0)


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
            p = PredictorState(algo, 8).predict()
            assert p.value == 0
            if algo != "baseline":
                assert p.fallback
                assert p.algorithm == "baseline"

    def test_kalman_falls_back_to_average_with_one_sample(self):
        state = PredictorState("kalman", 8)
        state.push(make_samples([30 * MILLIS])[0])
        p = state.predict()
        assert p.algorithm == "average"
        assert p.fallback
        assert p.value == 30 * MILLIS

    def test_warm_flag(self):
        state = PredictorState("kalman", 8)
        assert not state.warm
        for s in make_samples([10, 20]):
            state.push(s)
        assert state.warm
        assert state.predict().algorithm == "kalman"
        assert not state.predict().fallback

    def test_only_kalman_owns_a_filter(self):
        states = {algo: PredictorState(algo, 8) for algo in ALGORITHMS}
        for state in states.values():
            for s in make_samples([10, 20, 30]):
                state.push(s)
        assert [a for a, st in states.items() if st.kalman is not None] == ["kalman"]
        assert states["kalman"].kalman.count == 3

    def test_baseline_always_zero(self):
        state = PredictorState("baseline", 8)
        for s in make_samples([10, 20, 30]):
            state.push(s)
        assert state.predict().value == 0

    def test_push_times_assigns_sequence(self):
        state = PredictorState("average", 8)
        s0 = state.push_times(0, 50)
        s1 = state.push_times(1000, 1080)
        assert (s0.sequence_index, s1.sequence_index) == (0, 1)
        assert state.predict().value == 65

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            PredictorState("median", 8)

    def test_rounding_to_nearest_ns(self):
        state = PredictorState("average", 8)
        for s in make_samples([1, 2]):
            state.push(s)
        p = state.predict()
        assert p.raw == 1.5
        assert p.value == 2  # round-half-even at .5


class TestEvaluateStream:
    def test_prediction_precedes_sample(self):
        samples = make_samples([100, 200, 300])
        preds = evaluate_stream(samples, "average", 8)
        assert [p.value for p in preds] == [0, 100, 150]

    def test_all_algorithms_match_reference_series(self):
        trace = make_trace()
        samples = make_samples(trace)
        floats = [float(v) for v in trace]
        for algo in ALGORITHMS:
            got = evaluate_stream(samples, algo, 8)
            want = ref_prediction_series(floats, algo, 8)
            for i, (g, w) in enumerate(zip(got, want)):
                assert rel_err(g.raw, w) <= 1e-9, (algo, i)


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


etes = st.lists(st.integers(min_value=0, max_value=10**11), min_size=1, max_size=16)


class TestProperties:
    @settings(max_examples=150)
    @given(values=etes, shift=st.integers(min_value=0, max_value=10**10))
    def test_shift_equivariance(self, values, shift):
        base = [float(v) for v in values]
        moved = [float(v + shift) for v in values]
        assert rel_err(average(moved), average(base) + shift) <= 1e-12
        assert rel_err(ft_average(moved), ft_average(base) + shift) <= 1e-12

    @settings(max_examples=150)
    @given(values=st.lists(st.integers(min_value=0, max_value=10**9), min_size=3, max_size=12))
    def test_ft_ignores_the_maximum_value(self, values):
        base = [float(v) for v in values]
        raised = list(base)
        top = max(raised)
        raised[raised.index(top)] = top * 1000 + 1  # unique maximum for sure
        assert ft_average(raised) == ft_average(base)

    @settings(max_examples=150)
    @given(values=etes)
    def test_outputs_within_window_bounds(self, values):
        base = [float(v) for v in values]
        lo, hi = min(base), max(base)
        assert lo <= average(base) <= hi
        assert lo <= ft_average(base) <= hi

    @settings(max_examples=100)
    @given(values=st.lists(st.integers(min_value=0, max_value=10**11), min_size=2, max_size=20))
    def test_kalman_estimate_within_sample_range(self, values):
        f = KalmanFilter1D(8)
        for v in values:
            f.observe(float(v))
        assert min(values) <= f.predict() <= max(values)

    @settings(max_examples=50)
    @given(values=etes)
    def test_determinism(self, values):
        samples = make_samples(values)
        for algo in ALGORITHMS:
            a = [p.raw for p in evaluate_stream(samples, algo, 8)]
            b = [p.raw for p in evaluate_stream(samples, algo, 8)]
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
    """Kalman raws replayed on plain lists through the module's functions,
    with the cold-start fallback PredictorState applies, and the filter's
    predicted variance before each sample (None while cold)."""
    raws, predicted_variances = [], []
    measurements, estimates = [], []
    estimate = variance = 0.0

    def drift_variance():
        history = estimates[-(window + 1) :]
        return estimate_drift_variance(history) if len(history) >= 2 else 0.0

    for i, v in enumerate(values):
        if i >= 2:
            raws.append(estimate)
            predicted_variances.append(variance + drift_variance())
        else:
            held = [float(x) for x in values[max(0, i - window) : i]]
            raws.append(average(held) if held else 0.0)
            predicted_variances.append(None)
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
    return raws, predicted_variances


class TestIncrementalWindowMatchesLists:
    @settings(max_examples=200)
    @given(stream=windowed_streams())
    def test_predict_raw_is_bit_identical(self, stream):
        window, values = stream
        samples = make_samples(values)
        kalman_raws, kalman_variances = list_kalman_replay(values, window)
        expected = {"baseline": [0.0] * len(values), "kalman": kalman_raws}
        for name, rule in (("average", average), ("ft-average", ft_average)):
            expected[name] = [0.0] + [
                rule([float(x) for x in values[max(0, i - window) : i]])
                for i in range(1, len(values))
            ]
        for algo in ALGORITHMS:
            state = PredictorState(algo, window)
            for i, sample in enumerate(samples):
                assert state.predict().raw == expected[algo][i], (algo, i)
                if state.kalman is not None and state.kalman.warm:
                    assert state.kalman.predicted_variance() == kalman_variances[i], i
                state.push(sample)
                assert state.window.values() == [
                    float(x) for x in values[max(0, i + 1 - window) : i + 1]
                ]
