"""Client and server wired through simulated links."""

import pytest

from chronorpc.client import (
    AbortFailed,
    CancelResult,
    Client,
    CommitWindowTooShort,
    ReplyTimeout,
    RpcFailure,
    ScheduleOutcome,
    ScheduleRejected,
)
from chronorpc.protocol import (
    MILLIS,
    SECONDS,
    Operation,
    RpcReply,
    SchedulingRangeConfig,
    encode,
)
from chronorpc.server import ExecutionModel, Server
from chronorpc.sim import EventLoop, Link, named_rng


def make_world(specs, *, delay=1 * MILLIS, seed=9, **client_kw):
    """specs: {server_id: {"model":..., "range":..., "delay":...}}"""
    loop = EventLoop()
    client = Client(loop, **client_kw)
    servers = {}
    links = {}
    for sid, spec in specs.items():
        d = spec.get("delay", delay)
        up = Link(loop, client.on_frame, delay=d,
                  rng=named_rng(seed, "link", sid, "up"), name=f"{sid}-up")
        server = Server(
            sid,
            scheduler=loop,
            send=up.send,
            model=spec.get("model") or ExecutionModel(base=20 * MILLIS),
            range_config=spec.get("range"),
            rng=named_rng(seed, "server", sid),
        )
        down = Link(loop, server.on_frame, delay=d,
                    rng=named_rng(seed, "link", sid, "down"), name=f"{sid}-down")
        client.connect(sid, down.send, spec.get("range"))
        servers[sid] = server
        links[sid] = (down, up)
    return loop, client, servers, links


def one_server(model=None, range_config=None, **client_kw):
    loop, client, servers, links = make_world(
        {"s1": {"model": model, "range": range_config}}, **client_kw
    )
    return loop, client, servers["s1"], links["s1"]


class TestScheduleRaw:
    def test_immediate_has_no_schedule_metrics(self):
        loop, client, server, _ = one_server()
        out = client.schedule_raw("s1", Operation("noop"))
        assert out.ok
        assert out.scheduled_time is None
        assert out.ete is None
        assert out.execution_time is not None

    def test_scheduled_ete_is_exact_without_noise(self):
        loop, client, server, _ = one_server(ExecutionModel(base=25 * MILLIS))
        t_s = client.now() + 1 * SECONDS
        out = client.schedule_raw("s1", Operation("noop"), t_s)
        assert out.execution_time == t_s + 25 * MILLIS
        assert out.ete == 25 * MILLIS
        assert server.log[0].t_start == t_s

    def test_remote_rejection_raises(self):
        loop, client, server, _ = one_server()
        with pytest.raises(ScheduleRejected) as exc:
            client.schedule_raw("s1", Operation("noop"), client.now() + 30 * SECONDS)
        assert not exc.value.local
        assert server.log == []

    def test_resolved_call_is_its_own_outcome(self):
        loop, client, server, _ = one_server(ExecutionModel(base=25 * MILLIS))
        desired = client.now() + SECONDS
        call = client.submit_at_completion("s1", Operation("noop"), desired)
        client.wait([call], desired + client.reply_timeout)
        assert client.resolve(call) is call
        assert isinstance(call, ScheduleOutcome)
        assert call.status == "ok" and call.ok
        assert call.execution_time == call.reply.execution_time
        assert call.ete == call.sample.ete == 25 * MILLIS
        assert call.completion_error == call.execution_time - desired
        assert call.prediction_error == abs(call.prediction.value - call.ete)

    def test_other_error_reply_is_a_plain_outcome(self):
        loop, client, server, _ = one_server()
        out = client.schedule_raw("s1", Operation("does-not-exist"))
        assert not out.ok
        assert out.error_code == "unknown-operation"

    def test_reply_timeout(self):
        # server whose replies all vanish in transit
        loop = EventLoop()
        client = Client(loop, reply_timeout=2 * SECONDS)
        server = Server("s1", scheduler=loop, send=lambda frame: None)
        down = Link(loop, server.on_frame, delay=1 * MILLIS,
                    rng=named_rng(1, "down"))
        client.connect("s1", down.send)
        started = client.now()
        with pytest.raises(ReplyTimeout):
            client.schedule_raw("s1", Operation("noop"))
        assert client.now() == started + 2 * SECONDS


class TestFeedback:
    def test_ok_timed_reply_feeds_predictor(self):
        loop, client, server, _ = one_server(ExecutionModel(base=25 * MILLIS))
        client.schedule_raw("s1", Operation("noop"), client.now() + SECONDS)
        state = client.predictor("s1", "noop")
        assert state.sample_count == 1
        assert state.window.values() == [25 * MILLIS]

    def test_immediate_ops_do_not_feed(self):
        loop, client, server, _ = one_server()
        client.schedule_raw("s1", Operation("noop"))
        assert client.predictor("s1", "noop").sample_count == 0

    def test_get_time_false_does_not_feed(self):
        loop, client, server, _ = one_server()
        client.schedule_raw(
            "s1", Operation("noop"), client.now() + SECONDS, get_time=False
        )
        assert client.predictor("s1", "noop").sample_count == 0

    def test_rpc_type_param_overrides_routing(self):
        loop, client, server, _ = one_server()
        op = Operation("noop", {"rpc-type": "edit-config"})
        client.schedule_raw("s1", op, client.now() + SECONDS)
        assert client.predictor("s1", "edit-config").sample_count == 1
        assert client.predictor("s1", "noop").sample_count == 0


class TestScheduleAtCompletion:
    def test_cold_call_misses_by_full_execution_time(self):
        loop, client, server, _ = one_server(ExecutionModel(base=25 * MILLIS))
        desired = client.now() + 1 * SECONDS
        out = client.schedule_at_completion("s1", Operation("noop"), desired)
        # baseline prediction is zero, so the start lands on the target
        assert out.scheduled_time == desired
        assert out.completion_error == 25 * MILLIS

    def test_warm_loop_is_exact_with_constant_times(self):
        loop, client, server, _ = one_server(ExecutionModel(base=25 * MILLIS))
        for k in range(1, 6):
            desired = client.now() + 1 * SECONDS
            out = client.schedule_at_completion("s1", Operation("noop"), desired)
            if k > 1:
                assert out.completion_error == 0
                assert out.prediction_error == 0
                assert out.execution_time == desired

    def test_local_refusal_sends_nothing(self):
        cfg = SchedulingRangeConfig()
        loop, client, server, _ = one_server(range_config=cfg)
        with pytest.raises(ScheduleRejected) as exc:
            client.schedule_at_completion(
                "s1", Operation("noop"), client.now() + 30 * SECONDS
            )
        assert exc.value.local
        loop.run_until(deadline=40 * SECONDS)
        assert server.decode_errors == 0
        assert server.ops == {}
        assert server.log == []

    def test_without_range_config_refusal_comes_from_server(self):
        loop, client, server, _ = one_server()
        with pytest.raises(ScheduleRejected) as exc:
            client.schedule_at_completion(
                "s1", Operation("noop"), client.now() + 30 * SECONDS
            )
        assert not exc.value.local
        assert "s1" in " ".join(server.rejected_ids) or server.rejected_ids


class TestCancel:
    def test_cancel_pending(self):
        loop, client, server, _ = one_server()
        call = client.submit("s1", Operation("noop"), client.now() + 5 * SECONDS)
        loop.run_until(deadline=client.now() + 100 * MILLIS)
        assert client.cancel("s1", call.message_id) is CancelResult.CANCELLED
        loop.run_until(deadline=10 * SECONDS)
        assert server.log == []

    def test_cancel_after_run(self):
        loop, client, server, _ = one_server()
        out = client.schedule_raw("s1", Operation("noop"), client.now() + SECONDS)
        assert client.cancel("s1", out.message_id) is CancelResult.ALREADY_EXECUTED

    def test_cancel_unknown(self):
        loop, client, server, _ = one_server()
        assert client.cancel("s1", "m999") is CancelResult.UNKNOWN


class TestNotifications:
    def test_acceptance_notification_precedes_start(self):
        loop, client, server, _ = one_server()
        t_s = client.now() + 2 * SECONDS
        call = client.submit("s1", Operation("noop"), t_s, get_time=True)
        client.wait([call], t_s + SECONDS)
        assert call.notification is not None
        assert call.notification.accepted
        assert call.notification_at < t_s

    def test_unmatched_reply_is_counted(self):
        loop, client, server, _ = one_server()
        client.on_frame(encode(RpcReply.make_ok("m42")))
        assert client.unmatched_messages == 1

    def test_resolved_call_leaves_pending(self):
        loop, client, server, _ = one_server()
        call = client.submit("s1", Operation("noop"), client.now() + SECONDS)
        assert call.message_id in client._pending
        client.wait([call], client.now() + 2 * SECONDS)
        assert call.reply is not None
        assert call.message_id not in client._pending
        # a second reply finds no call: counted, and the first one stands
        first = call.reply
        client.on_frame(encode(RpcReply.make_ok(call.message_id)))
        assert client.unmatched_messages == 1
        assert call.reply is first

    def test_timed_out_call_leaves_pending(self):
        loop, client, server, _ = one_server()
        replies = []
        server._send = replies.append  # the server's replies never arrive
        call = client.submit("s1", Operation("noop"), get_time=True)
        client.wait([call], client.now() + SECONDS)
        assert replies and call.reply is None
        with pytest.raises(ReplyTimeout):
            client.resolve(call)
        assert call.message_id not in client._pending
        # the late reply finds no call: counted, and the timeout stands
        client.on_frame(replies[-1])
        assert client.unmatched_messages == 1
        assert call.reply is None

    def test_garbage_frame_is_counted(self):
        loop, client, server, _ = one_server()
        client.on_frame(b"{{{\n")
        assert client.decode_errors == 1


class TestCoordinatedOperation:
    def test_common_start_instant(self):
        specs = {
            sid: {"model": ExecutionModel(base=base)}
            for sid, base in [
                ("s1", 10 * MILLIS), ("s2", 20 * MILLIS), ("s3", 40 * MILLIS)
            ]
        }
        loop, client, servers, _ = make_world(specs)
        at = client.now() + 2 * SECONDS
        results = client.coordinated_operation(list(specs), Operation("noop"), at)
        for sid, item in results.items():
            assert isinstance(item, ScheduleOutcome) and item.ok, (sid, item)
            assert servers[sid].log[0].t_start == at

    def test_align_completion_with_warm_predictors(self):
        specs = {
            sid: {"model": ExecutionModel(base=base)}
            for sid, base in [
                ("s1", 10 * MILLIS), ("s2", 20 * MILLIS), ("s3", 40 * MILLIS)
            ]
        }
        loop, client, servers, _ = make_world(specs)
        for sid in specs:  # one warmup sample each
            client.schedule_raw(sid, Operation("noop"), client.now() + SECONDS)
        at = client.now() + 2 * SECONDS
        results = client.coordinated_operation(
            list(specs), Operation("noop"), at, align_completion=True
        )
        for sid, item in results.items():
            assert isinstance(item, ScheduleOutcome)
            assert item.execution_time == at, sid
        ends = {servers[sid].log[-1].t_end for sid in specs}
        assert ends == {at}

    def test_per_server_failure_does_not_block_others(self):
        specs = {
            "s1": {},
            "s2": {"range": SchedulingRangeConfig(sched_max_future=1 * SECONDS)},
        }
        loop, client, servers, _ = make_world(specs)
        at = client.now() + 2 * SECONDS
        results = client.coordinated_operation(["s1", "s2"], Operation("noop"), at)
        assert isinstance(results["s1"], ScheduleOutcome) and results["s1"].ok
        assert isinstance(results["s2"], ScheduleRejected)
        assert results["s2"].local
        assert servers["s1"].log[0].t_start == at


class TestSnapshot:
    def test_reads_running_state_at_instant(self):
        specs = {f"s{i}": {"model": ExecutionModel(base=10 * MILLIS)}
                 for i in range(1, 4)}
        loop, client, servers, _ = make_world(specs)
        for i, sid in enumerate(specs, start=1):
            servers[sid].state.running["counter"] = str(100 * i)
        at = client.now() + 2 * SECONDS
        snap = client.coordinated_snapshot(list(specs), "counter", at)
        assert {sid: e.value for sid, e in snap.items()} == {
            "s1": "100", "s2": "200", "s3": "300"
        }
        for sid, entry in snap.items():
            assert entry.execution_time == at + 10 * MILLIS
            assert servers[sid].log[-1].t_start == at

    def test_missing_key_surfaces_as_error(self):
        loop, client, servers, _ = make_world({"s1": {}})
        snap = client.coordinated_snapshot(["s1"], "ghost", client.now() + SECONDS)
        assert isinstance(snap["s1"], Exception)

    def test_failure_keeps_the_servers_reply(self):
        loop, client, servers, _ = make_world({"s1": {}})
        snap = client.coordinated_snapshot(["s1"], "ghost", client.now() + SECONDS)
        failure = snap["s1"]
        assert isinstance(failure, RpcFailure)
        assert failure.reply.error_code == "unknown-key"
        assert failure.reply.error_detail == "ghost"
        assert failure.reply.message_id in servers["s1"].ops


class TestAtomicCommit:
    @staticmethod
    def staged_world(n, extra=None):
        specs = {f"s{i}": {"model": ExecutionModel(base=15 * MILLIS)}
                 for i in range(1, n + 1)}
        if extra:
            specs.update(extra)
        loop, client, servers, _ = make_world(specs)
        for sid in specs:
            client.schedule_raw(
                sid, Operation("set-value", {"key": "mode", "value": "active"})
            )
        return loop, client, servers

    def test_commit_everywhere(self):
        loop, client, servers = self.staged_world(5)
        at = client.now() + 2 * SECONDS
        result = client.atomic_commit(list(servers), at)
        assert result.committed
        assert result.status == "committed"
        for sid, server in servers.items():
            assert server.state.running == {"mode": "active"}
            commit_entry = server.log[-1]
            assert commit_entry.t_start == at
            assert result.accept_times[sid] < at - result.margin
            out = result.outcomes[sid]
            assert isinstance(out, ScheduleOutcome) and out.ok

    def test_one_rejection_aborts_all(self):
        tight = {"s5": {
            "model": ExecutionModel(base=15 * MILLIS),
            "range": None,  # no local knowledge: rejection comes from the wire
        }}
        loop, client, servers = self.staged_world(4, extra=tight)
        servers["s5"].range_config = SchedulingRangeConfig(
            sched_max_future=1 * SECONDS
        )
        at = client.now() + 2 * SECONDS
        result = client.atomic_commit(list(servers), at)
        assert result.status == "aborted"
        assert "s5" in (result.reason or "")
        loop.run_until(deadline=at + SECONDS)
        for sid, server in servers.items():
            assert server.state.running == {}, sid  # nothing promoted
            committed = [e for e in server.log if e.t_start >= at - SECONDS]
            assert committed == [], sid
        for sid in ["s1", "s2", "s3", "s4"]:
            assert result.cancel_times[sid] < at
        assert "s5" not in result.cancel_times

    def test_window_too_short_sends_nothing(self):
        loop, client, servers = self.staged_world(2)
        logged = {sid: len(s.log) for sid, s in servers.items()}
        with pytest.raises(CommitWindowTooShort):
            client.atomic_commit(list(servers), client.now() + 100 * MILLIS)
        loop.run_until(deadline=client.now() + SECONDS)
        assert {sid: len(s.log) for sid, s in servers.items()} == logged

    def test_unconfirmed_cancel_is_abort_failure(self):
        # s2 sits behind a slow link: its cancel confirmation lands exactly at
        # the commit instant, which is too late to count.
        specs = {
            "s1": {"range": SchedulingRangeConfig(sched_max_future=300 * MILLIS),
                   "model": ExecutionModel(base=15 * MILLIS)},
            "s2": {"delay": 150 * MILLIS,
                   "model": ExecutionModel(base=15 * MILLIS)},
        }
        loop, client, servers, _ = make_world(specs)
        at = client.now() + 600 * MILLIS
        with pytest.raises(AbortFailed) as exc:
            client.atomic_commit(["s1", "s2"], at)
        assert "s2" in str(exc.value)


def test_range_config_mismatch_double_check():
    # client thinks the window is wide, server is stricter: remote reject
    loop, client, server, _ = one_server(
        range_config=SchedulingRangeConfig(sched_max_future=60 * SECONDS)
    )
    server.range_config = SchedulingRangeConfig(sched_max_future=1 * SECONDS)
    with pytest.raises(ScheduleRejected) as exc:
        client.schedule_raw(
            "s1", Operation("noop"), client.now() + 5 * SECONDS, range_check=True
        )
    assert not exc.value.local
