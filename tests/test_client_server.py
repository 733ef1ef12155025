"""Client and server wired through simulated links."""

import pytest

from chronorpc.client import (
    AbortFailed,
    Client,
    CommitWindowTooShort,
    ReplyTimeout,
    ScheduleOutcome,
    ScheduleRejected,
)
from chronorpc.live import LiveClient
from chronorpc.prediction import ALGORITHMS
from chronorpc.protocol import (
    MILLIS,
    SECONDS,
    Operation,
    RpcMessage,
    RpcReply,
    ScheduleNotification,
    SchedulingRangeConfig,
    TransportClosed,
    decode,
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
        client.connect(sid, down.send)
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
        with pytest.raises(ScheduleRejected):
            client.schedule_raw("s1", Operation("noop"), client.now() + 30 * SECONDS)
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
        assert call.ete == 25 * MILLIS
        # the call is the sample: its offset is what the predictor learned
        assert list(client.predictor("s1").offsets) == [call.ete]
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
        assert list(state.offsets) == [25 * MILLIS]

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

    def test_first_use_builds_one_window_for_every_rule(self):
        loop, client, server, _ = one_server(
            ExecutionModel(base=25 * MILLIS), algorithm="ft-average", window=3
        )
        client.schedule_at_completion("s1", Operation("noop"), client.now() + SECONDS)
        state = client.predictor("s1", "noop")
        assert (state.sample_count, state.window) == (1, 3)
        for algo in ALGORITHMS:
            assert state.predict(algo).value == (0 if algo == "baseline" else 25 * MILLIS)

    def test_reset_predictor_starts_a_fresh_window(self):
        loop, client, server, _ = one_server(ExecutionModel(base=25 * MILLIS))
        client.schedule_at_completion("s1", Operation("noop"), client.now() + SECONDS)
        old = client.predictor("s1", "noop")
        client.reset_predictor("s1", "noop")
        client.reset_predictor("s1", "never-used")
        fresh = client.predictor("s1", "noop")
        assert fresh is not old
        assert (fresh.sample_count, fresh.window) == (0, client.window)
        client.schedule_at_completion("s1", Operation("noop"), client.now() + SECONDS)
        assert client.predictor("s1", "noop") is fresh
        assert list(fresh.offsets) == list(old.offsets) == [25 * MILLIS]


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

    def test_out_of_range_is_refused_by_the_server(self):
        loop, client, server, _ = one_server()
        with pytest.raises(ScheduleRejected):
            client.schedule_at_completion(
                "s1", Operation("noop"), client.now() + 30 * SECONDS
            )
        assert server.rejected_ids == {"m1"}


class TestCancel:
    def test_cancel_pending(self):
        loop, client, server, _ = one_server()
        call = client.submit("s1", Operation("noop"), client.now() + 5 * SECONDS)
        loop.run_until(deadline=client.now() + 100 * MILLIS)
        out = client.cancel("s1", call.message_id)
        assert out.ok and out.operation.params == {"target-id": call.message_id}
        loop.run_until(deadline=10 * SECONDS)
        assert server.log == []

    def test_cancel_after_run(self):
        loop, client, server, _ = one_server()
        out = client.schedule_raw("s1", Operation("noop"), client.now() + SECONDS)
        cancel = client.cancel("s1", out.message_id)
        assert not cancel.ok and cancel.error_code == "already-executed"

    def test_cancel_unknown(self):
        loop, client, server, _ = one_server()
        cancel = client.cancel("s1", "m999")
        assert not cancel.ok and cancel.error_code == "unknown-message-id"

    def test_cancel_is_an_rpc(self):
        client = Client(EventLoop())
        frames = []
        client.connect("s1", frames.append)
        call = client.submit_cancel("s1", "m7")
        operation = Operation("cancel-schedule", {"target-id": "m7"})
        assert call.operation == operation
        assert [decode(f) for f in frames] == [RpcMessage(call.message_id, operation)]

    def test_malformed_cancel_is_answered_before_the_timeout(self):
        loop, client, server, _ = one_server()
        out = client.schedule_raw("s1", Operation("cancel-schedule"))
        assert out.reply.error_code == "invalid-params"
        assert out.reply_at - out.sent_at < SECONDS

    def test_any_error_reply_is_returned_as_the_call(self):
        # A server that answers every message duplicate-message-id: the
        # cancel's call carries that reply like any other.
        loop = EventLoop()
        client = Client(loop)

        def answer(frame):
            reply = RpcReply.make_error(decode(frame).message_id, "duplicate-message-id")
            loop.call_at(loop.now() + MILLIS, client.on_frame, encode(reply))

        client.connect("s1", answer)
        out = client.cancel("s1", "m7")
        assert not out.ok and out.error_code == "duplicate-message-id"
        assert out.operation == Operation("cancel-schedule", {"target-id": "m7"})
        assert client._pending == {}


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

    @pytest.mark.parametrize(
        "msg",
        [
            ScheduleNotification("m42", True),
            RpcMessage("m42", Operation("noop")),
            RpcMessage("m43", Operation("cancel-schedule", {"target-id": "m42"})),
        ],
        ids=["notification", "rpc", "cancel"],
    )
    def test_unmatched_or_unhandled_message_is_counted(self, msg):
        loop, client, server, _ = one_server()
        client.on_message(msg)
        assert client.unmatched_messages == 1
        assert client._pending == {}

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
        server.open_session(replies.append)  # the server's replies never arrive
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

    def test_submit_to_unconnected_server_is_refused(self):
        loop, client, server, (down, _) = one_server()
        with pytest.raises(ValueError, match="not connected to 's2'"):
            client.submit("s2", Operation("noop"))
        assert client._pending == {}
        assert down.frames_sent == 0

    def test_garbage_frame_is_counted(self):
        loop, client, server, _ = one_server()
        client.on_frame(b"{{{\n")
        assert client.decode_errors == 1

    def test_unencodable_rpc_leaves_no_pending_call(self):
        loop, client, server, (down, _) = one_server()
        for params in ({"k": 5}, None):
            with pytest.raises(ValueError):
                client.submit("s1", Operation("noop", params), get_time=True)
        with pytest.raises(ValueError):
            client.submit_cancel("s1", "")
        assert client._pending == {}
        assert down.frames_sent == 0
        # the client still works, and nothing is left waiting on the failures
        assert client.schedule_raw("s1", Operation("noop")).ok
        assert client._pending == {}

    def test_failed_send_leaves_no_pending_call(self):
        # A failed send is its call's failure, returned resolved, not raised.
        loop, client, server, (down, _) = one_server()
        down.close()
        calls = [
            client.submit("s1", Operation("noop"), get_time=True),
            client.submit_cancel("s1", "m1"),
        ]
        for call in calls:
            assert call.resolved and not call.ok and call.reply is None
            assert isinstance(call.error, TransportClosed)
        assert client._pending == {}
        with pytest.raises(TransportClosed):
            client.resolve(calls[0])

    def test_send_error_other_than_transport_is_raised(self):
        loop, client, server, _ = one_server()

        def broken(frame: bytes) -> None:
            raise RuntimeError("broken send")

        client.connect("s1", broken)
        with pytest.raises(RuntimeError, match="broken send"):
            client.submit("s1", Operation("noop"))
        assert client._pending == {}


def test_unknown_algorithm_is_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown algorithm: 'median'"):
        Client(EventLoop(), algorithm="median")
    with pytest.raises(ValueError, match="unknown algorithm: 'median'"):
        LiveClient(algorithm="median")


def test_window_below_one_is_rejected_at_construction():
    with pytest.raises(ValueError, match="window must be >= 1"):
        Client(EventLoop(), window=0)
    with pytest.raises(ValueError, match="window must be >= 1"):
        LiveClient(window=0)


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
        assert results["s2"].error_code == "schedule-out-of-range"
        with pytest.raises(ScheduleRejected):
            client.resolve(results["s2"])
        assert servers["s2"].rejected_ids == {"m2"}
        assert servers["s2"].log == []
        assert servers["s1"].log[0].t_start == at

    def test_unsendable_server_fails_only_its_call(self):
        # s2's down-link is closed: its call holds the transport's error,
        # and s1 and s3 still run the operation.
        specs = {f"s{i}": {} for i in (1, 2, 3)}
        loop, client, servers, links = make_world(specs)
        links["s2"][0].close()
        at = client.now() + 2 * SECONDS
        results = client.coordinated_operation(["s1", "s2", "s3"], Operation("noop"), at)
        assert list(results) == ["s1", "s2", "s3"]
        assert results["s1"].ok and results["s3"].ok
        assert isinstance(results["s2"].error, TransportClosed)
        assert results["s2"].reply is None
        assert [len(servers[sid].log) for sid in specs] == [1, 0, 1]
        assert client._pending == {}

    def test_repeated_server_runs_once(self):
        loop, client, servers, _ = make_world({"s1": {}})
        at = client.now() + 2 * SECONDS
        results = client.coordinated_operation(["s1", "s1"], Operation("noop"), at)
        assert list(results) == ["s1"]
        assert results["s1"].ok
        loop.run_until(deadline=at + SECONDS)
        assert len(servers["s1"].log) == 1


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
            assert entry.ok and entry.params == {"value": entry.value}
            assert entry.execution_time == at + 10 * MILLIS
            assert servers[sid].log[-1].t_start == at

    def test_missing_key_surfaces_as_error(self):
        loop, client, servers, _ = make_world({"s1": {}})
        servers["s1"].state.running["k"] = "7"
        snap = client.coordinated_snapshot(["s1"], "ghost", client.now() + SECONDS)
        assert isinstance(snap["s1"], ScheduleOutcome) and not snap["s1"].ok
        assert snap["s1"].value is None
        snap = client.coordinated_snapshot(["s1"], "k", client.now() + SECONDS)
        assert snap["s1"].ok and snap["s1"].value == "7"

    def test_failure_keeps_the_servers_reply(self):
        loop, client, servers, _ = make_world({"s1": {}})
        snap = client.coordinated_snapshot(["s1"], "ghost", client.now() + SECONDS)
        failure = snap["s1"]
        assert isinstance(failure, ScheduleOutcome) and not failure.ok
        assert failure.error_code == "unknown-key"
        assert failure.reply.error_detail == "ghost"
        assert failure.message_id in servers["s1"].ops
        assert failure.value is None


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
        # s5 accepts schedules at most 1 s ahead, so it refuses the commit
        tight = {"s5": {
            "model": ExecutionModel(base=15 * MILLIS),
            "range": SchedulingRangeConfig(sched_max_future=1 * SECONDS),
        }}
        loop, client, servers = self.staged_world(4, extra=tight)
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

    def test_repeated_server_takes_part_once(self):
        tight = {"s2": {
            "model": ExecutionModel(base=15 * MILLIS),
            "range": SchedulingRangeConfig(sched_max_future=1 * SECONDS),
        }}
        loop, client, servers = self.staged_world(1, extra=tight)
        at = client.now() + 2 * SECONDS
        result = client.atomic_commit(["s1", "s1", "s2"], at)
        assert result.status == "aborted"
        assert list(result.cancel_times) == ["s1"]
        loop.run_until(deadline=at + SECONDS)
        s1 = servers["s1"]
        commits = [op for op in s1.ops.values() if op.operation.name == "commit"]
        assert len(commits) == 1
        assert [op.operation.name for op in s1.log] == ["set-value"]
        assert s1.state.running == {}

    def test_no_participants_commits_trivially(self):
        loop, client, servers = self.staged_world(1)
        at = client.now() + 2 * SECONDS
        result = client.atomic_commit([], at)
        assert result.committed
        assert (result.outcomes, result.accept_times, result.cancel_times) == ({}, {}, {})
        loop.run_until(deadline=at + SECONDS)
        assert servers["s1"].state.running == {}

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

    @staticmethod
    def commits_run(server):
        return [op.message_id for op in server.log if op.operation.name == "commit"]

    def test_unsendable_commit_aborts_the_rest(self):
        # s2's down-link is closed, so its commit rpc cannot be sent: s1's
        # commit is withdrawn before the instant and s3 is never asked.
        specs = {f"s{i}": {"model": ExecutionModel(base=15 * MILLIS)} for i in (1, 2, 3)}
        loop, client, servers, links = make_world(specs)
        links["s2"][0].close()
        at = client.now() + 2 * SECONDS
        result = client.atomic_commit(["s1", "s2", "s3"], at)
        assert result.status == "aborted"
        assert "s2" in result.reason
        assert list(result.cancel_times) == ["s1"]
        assert result.cancel_times["s1"] < at
        assert result.outcomes["s1"].error_code == "cancelled"
        assert links["s3"][0].frames_sent == 0
        loop.run_until(deadline=at + SECONDS)
        for sid, server in servers.items():
            assert self.commits_run(server) == [], sid
        assert client._pending == {}

    def test_unsendable_cancel_does_not_stop_the_others(self):
        # s3 refuses the commit; s2's down-link closes after its commit rpc
        # left, so only s2's cancel cannot be sent. s1 is still withdrawn.
        specs = {
            "s1": {"model": ExecutionModel(base=15 * MILLIS)},
            "s2": {"model": ExecutionModel(base=15 * MILLIS)},
            "s3": {"model": ExecutionModel(base=15 * MILLIS),
                   "range": SchedulingRangeConfig(sched_max_future=1 * SECONDS)},
        }
        loop, client, servers, links = make_world(specs)
        loop.call_at(client.now() + 500_000, links["s2"][0].close)
        at = client.now() + 2 * SECONDS
        with pytest.raises(AbortFailed) as exc:
            client.atomic_commit(["s2", "s1", "s3"], at)
        assert str(exc.value).startswith("s2: cancel unsent")
        assert "s1" not in str(exc.value)
        assert links["s1"][0].frames_sent == 2  # the commit and its cancel
        loop.run_until(deadline=at + SECONDS)
        assert self.commits_run(servers["s1"]) == []
        assert self.commits_run(servers["s3"]) == []
        assert servers["s3"].rejected_ids == {"m3"}

    def test_unsent_commit_is_reported_and_not_cancelled(self):
        specs = {f"s{i}": {"model": ExecutionModel(base=15 * MILLIS)} for i in (1, 2)}
        loop, client, servers, links = make_world(specs)
        links["s2"][0].close()
        result = client.atomic_commit(["s1", "s2"], client.now() + 2 * SECONDS)
        assert result.reason.startswith("unsent: s2 (s2-down is closed)")
        assert list(result.outcomes) == ["s1", "s2"]
        assert isinstance(result.outcomes["s2"].error, TransportClosed)
        assert list(result.cancel_times) == ["s1"]
        # one commit rpc and one cancel, both to s1
        assert links["s1"][0].frames_sent == 2 and links["s2"][0].frames_sent == 0

    def test_link_dropped_before_acknowledgement_aborts(self):
        # s2's link drops after its commit rpc left, before the server's
        # acceptance arrives: s2 may or may not run it, so nothing commits
        # silently; s1 is withdrawn and s2's cancel cannot be sent.
        specs = {f"s{i}": {"model": ExecutionModel(base=15 * MILLIS)} for i in (1, 2)}
        loop, client, servers, links = make_world(specs)
        loop.call_at(client.now() + 500_000, client.disconnect, "s2")
        at = client.now() + 2 * SECONDS
        with pytest.raises(AbortFailed) as exc:
            client.atomic_commit(["s1", "s2"], at)
        assert str(exc.value).startswith("s2: cancel unsent (link to 's2' is closed)")
        assert links["s1"][0].frames_sent == 2  # the commit and its cancel
        loop.run_until(deadline=at + SECONDS)
        assert self.commits_run(servers["s1"]) == []

    def test_cancel_after_the_commit_ran_is_abort_failure(self):
        # s2 refuses at once; s1's acceptance takes 200 ms to arrive, so the
        # cancel leaves then and reaches s1 at the instant itself, just after
        # its due timer fired: the abort fails loudly, never silently partial.
        specs = {
            "s1": {"model": ExecutionModel(base=15 * MILLIS)},
            "s2": {"range": SchedulingRangeConfig(sched_max_future=100 * MILLIS)},
        }
        loop, client, servers, links = make_world(specs)
        down, up = links["s1"]
        down.delay, up.delay = 200 * MILLIS, 0
        at = client.now() + 400 * MILLIS
        with pytest.raises(AbortFailed) as exc:
            client.atomic_commit(["s1", "s2"], at)
        assert str(exc.value) == "s1: commit already executed"
        loop.run_until(deadline=at + SECONDS)
        [commit] = [op for op in servers["s1"].log if op.operation.name == "commit"]
        assert commit.t_start == at

    def test_unconnected_server_sends_nothing(self):
        loop, client, servers, links = make_world({"s1": {}})
        with pytest.raises(ValueError, match="not connected to 'ghost'"):
            client.atomic_commit(["s1", "ghost"], client.now() + 2 * SECONDS)
        assert links["s1"][0].frames_sent == 0
        assert client._pending == {}


def test_server_range_changed_at_runtime_is_enforced():
    # the server starts wide and is narrowed before the rpc arrives
    loop, client, server, _ = one_server(
        range_config=SchedulingRangeConfig(sched_max_future=60 * SECONDS)
    )
    server.range_config = SchedulingRangeConfig(sched_max_future=1 * SECONDS)
    with pytest.raises(ScheduleRejected):
        client.schedule_at_completion(
            "s1", Operation("noop"), client.now() + 5 * SECONDS
        )
    assert server.rejected_ids == {"m1"}
