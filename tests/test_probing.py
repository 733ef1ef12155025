import pytest

from chronorpc.client import Client, ReplyTimeout, probe_operation
from chronorpc.probing import (
    BurstProbe,
    InsufficientData,
    PeriodSelectionConfig,
    choose_burst_period,
    choose_periodic_period,
    run_probe_plan,
    select_period_burst,
    select_period_periodic,
)
from chronorpc.protocol import MILLIS, SECONDS, Operation
from chronorpc.server import ExecutionModel, Server
from chronorpc.sim import EventLoop, Link, named_rng


def make_pair(model=None, *, delay=1 * MILLIS, reply_filter=None, **client_kw):
    loop = EventLoop()
    client = Client(loop, **client_kw)
    up = Link(loop, client.on_frame, delay=delay, rng=named_rng(3, "up"))
    send = up.send
    if reply_filter is not None:
        send = lambda frame: None if reply_filter(frame) else up.send(frame)
    server = Server(
        "s1",
        scheduler=loop,
        send=send,
        model=model or ExecutionModel(base=20 * MILLIS),
        rng=named_rng(3, "server"),
    )
    down = Link(loop, server.on_frame, delay=delay, rng=named_rng(3, "down"))
    client.connect("s1", down.send)
    return loop, client, server


class TestPlans:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurstProbe(0, 1 * SECONDS)
        with pytest.raises(ValueError):
            BurstProbe(3, -1)

    def test_probe_operation_defaults(self):
        op = probe_operation()
        assert op.name == "noop"
        op = probe_operation("edit-config")
        assert op.params["rpc-type"] == "edit-config"


class TestRunProbePlan:
    def test_burst_grid_is_exact(self):
        loop, client, server = make_pair()
        t0 = client.now()
        calls = run_probe_plan(client, "s1", BurstProbe(4, 500 * MILLIS))
        lead = client.dispatch_lead
        scheduled = [c.scheduled_time for c in calls]
        assert scheduled == [t0 + lead + k * 500 * MILLIS for k in range(4)]
        assert [c.ete for c in calls] == [20 * MILLIS] * 4
        # the server really started each probe on its slot
        assert [e.t_start for e in server.log] == scheduled

    def test_periodic_collects_requested_samples(self):
        loop, client, server = make_pair()
        calls = run_probe_plan(client, "s1", BurstProbe(5, 1 * SECONDS))
        assert len(calls) == 5
        assert all(c.ete is not None for c in calls)
        scheduled = [c.scheduled_time for c in calls]
        assert {b - a for a, b in zip(scheduled, scheduled[1:])} == {1 * SECONDS}

    def test_lost_reply_leaves_a_gap(self):
        lost = b'"message-id":"m2"'
        loop, client, server = make_pair(
            reply_filter=lambda f: lost in f and b'"type":"rpc-reply"' in f,
            reply_timeout=1 * SECONDS,
        )
        calls = run_probe_plan(client, "s1", BurstProbe(4, 500 * MILLIS))
        assert len(calls) == 4
        # the gap keeps its slot
        assert [c.ete is not None for c in calls] == [True, False, True, True]
        # the other slots still ran and fed the predictor
        assert client.predictor("s1", "noop").sample_count == 3

    def test_lost_probe_times_out_and_a_late_reply_is_unmatched(self):
        dropped = []

        def drop_m2_reply(frame):
            if b'"message-id":"m2"' in frame and b'"type":"rpc-reply"' in frame:
                dropped.append(frame)
                return True
            return False

        loop, client, server = make_pair(
            reply_filter=drop_m2_reply, reply_timeout=1 * SECONDS
        )
        calls = run_probe_plan(client, "s1", BurstProbe(4, 500 * MILLIS))
        assert client._pending == {}
        assert isinstance(calls[1].error, ReplyTimeout)
        assert len(dropped) == 1
        unmatched = client.unmatched_messages
        client.on_frame(dropped[0])
        assert client.unmatched_messages == unmatched + 1
        assert calls[1].reply is None
        assert client.predictor("s1", "noop").sample_count == 3

    def test_custom_operation_routes_its_own_type(self):
        loop, client, server = make_pair()
        run_probe_plan(
            client, "s1", BurstProbe(3, 200 * MILLIS),
            operation=probe_operation("edit-config"),
        )
        assert client.predictor("s1", "edit-config").sample_count == 3
        assert client.predictor("s1", "noop").sample_count == 0


class TestChoosers:
    def test_burst_picks_double_of_best(self):
        periods = [250 * MILLIS, 500 * MILLIS, 1000 * MILLIS]
        best, period = choose_burst_period(periods, [30.0, 10.0, 11.0])
        assert best == 1
        assert period == 1000 * MILLIS

    def test_burst_tie_goes_to_earliest(self):
        periods = [100, 200, 400]
        best, period = choose_burst_period(periods, [5.0, 5.0, 5.0])
        assert (best, period) == (0, 200)

    def test_burst_validates_lengths(self):
        with pytest.raises(ValueError):
            choose_burst_period([100], [1.0, 2.0])
        with pytest.raises(ValueError):
            choose_burst_period([], [])

    def test_periodic_ete_rule(self):
        periods = [250, 500, 1000]
        best, period = choose_periodic_period(periods, [30.0, 10.0, 11.0], 0.1)
        assert best == 1
        # bound is 11.0; only the 10.0 burst qualifies (11.0 is not < 11.0)
        assert period == 500

    def test_periodic_all_equal_takes_largest(self):
        periods = [250, 500, 1000, 2000]
        best, period = choose_periodic_period(periods, [5.0] * 4, 0.1)
        assert (best, period) == (0, 2000)

    def test_periodic_zero_best_mean_falls_back(self):
        best, period = choose_periodic_period([250, 500], [0.0, 5.0], 0.1)
        assert (best, period) == (0, 250)


class TestSelectionConfig:
    def test_periods_double(self):
        cfg = PeriodSelectionConfig(bursts=5, initial_period=250 * MILLIS)
        assert cfg.periods() == [
            250 * MILLIS, 500 * MILLIS, 1000 * MILLIS,
            2000 * MILLIS, 4000 * MILLIS,
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodSelectionConfig(bursts=0)
        with pytest.raises(ValueError, match="burst_size"):
            PeriodSelectionConfig(burst_size=0)
        with pytest.raises(ValueError, match="initial_period"):
            PeriodSelectionConfig(initial_period=0)
        with pytest.raises(ValueError):
            PeriodSelectionConfig(alpha=0.0)
        with pytest.raises(ValueError):
            PeriodSelectionConfig(alpha=1.0)
        with pytest.raises(ValueError, match="inter_burst_gap"):
            PeriodSelectionConfig(inter_burst_gap=-1)


class TestSelectionEndToEnd:
    """Noise-free load model makes every burst mean a closed form.

    base 20ms, penalty 1.0, recovery 1s: a probe started g after the
    previous start runs for 20ms * (1 + max(0, 1 - g/1s)). The first slot
    of each burst is always clean because the sweep rests 1s between
    bursts.
    """

    @staticmethod
    def loaded_pair():
        model = ExecutionModel(
            base=20 * MILLIS,
            load_penalty=1.0,
            load_recovery=1 * SECONDS,
        )
        return make_pair(model)

    @staticmethod
    def expected_means():
        base = 20.0 * MILLIS
        out = []
        for period in PeriodSelectionConfig().periods():
            eff = base * (1.0 + max(0.0, 1.0 - period / SECONDS))
            out.append((base + 3 * eff) / 4)
        return out

    def test_sweep_means_match_load_model(self):
        loop, client, server = self.loaded_pair()
        result = select_period_burst(client, "s1")
        assert result.means == self.expected_means()
        assert result.periods == PeriodSelectionConfig().periods()

    def test_burst_mode_choice(self):
        loop, client, server = self.loaded_pair()
        result = select_period_burst(client, "s1")
        # 1s is the first period with a clean mean; doubled for margin
        assert result.best_index == 2
        assert result.period == 2 * SECONDS

    def test_periodic_mode_choice(self):
        loop, client, server = self.loaded_pair()
        result = select_period_periodic(client, "s1")
        # every clean-mean period qualifies; the largest tested one wins
        assert result.period == 4 * SECONDS

    def test_no_samples_is_insufficient_data(self):
        loop, client, server = self.loaded_pair()
        with pytest.raises(InsufficientData):
            select_period_burst(
                client, "s1", operation=Operation("no-such-op")
            )
