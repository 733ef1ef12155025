import math
import statistics
import sys

import pytest

from chronorpc.protocol import (
    MAX_FRAME_BYTES,
    MILLIS,
    SECONDS,
    Operation,
    RpcMessage,
    RpcReply,
    ScheduleNotification,
    SchedulingRangeConfig,
    decode,
    encode,
)
from chronorpc.server import ExecutionModel, OpState, Server
from chronorpc.sim import EventLoop, named_rng


class Wire:
    """Captures server->client frames with the virtual time they were sent."""

    def __init__(self, loop):
        self.loop = loop
        self.events = []

    def send(self, frame):
        self.events.append((self.loop.now(), decode(frame)))

    def replies(self, mid=None):
        out = [m for _, m in self.events if isinstance(m, RpcReply)]
        if mid is not None:
            out = [m for m in out if m.message_id == mid]
        return out

    def reply(self, mid):
        found = self.replies(mid)
        assert len(found) == 1, f"expected one reply for {mid}, got {found}"
        return found[0]

    def notifications(self, mid=None):
        out = [
            (t, m) for t, m in self.events if isinstance(m, ScheduleNotification)
        ]
        if mid is not None:
            out = [(t, m) for t, m in out if m.message_id == mid]
        return out


def make_server(model=None, range_config=None, lanes=1, seed=0, start=0):
    loop = EventLoop(start=start)
    wire = Wire(loop)
    server = Server(
        "s1",
        scheduler=loop,
        send=wire.send,
        model=model or ExecutionModel(base=30 * MILLIS),
        range_config=range_config,
        rng=named_rng(seed, "server", "s1"),
        lanes=lanes,
    )
    return loop, server, wire


def rpc(server, mid, op="noop", params=None, at=None, get_time=False):
    server.on_frame(
        encode(
            RpcMessage(mid, Operation(op, params or {}), at, get_time)
        )
    )


def cancel(server, mid, target):
    rpc(server, mid, op="cancel-schedule", params={"target-id": target})


def widest(make):
    """The longest run of "x" that make() can wrap in one frame."""
    overhead = len(encode(make("x"))) - 1
    return "x" * (MAX_FRAME_BYTES - overhead)


class TestImmediateExecution:
    def test_runs_now_and_replies_at_completion(self):
        loop, server, wire = make_server()
        rpc(server, "m1", get_time=True)
        loop.run_until(deadline=1 * SECONDS)
        reply = wire.reply("m1")
        assert reply.ok
        assert reply.execution_time == 30 * MILLIS
        entry = server.log[0]
        assert (entry.t_start, entry.t_end) == (0, 30 * MILLIS)
        # reply goes out exactly at completion
        sent_at = [t for t, m in wire.events if isinstance(m, RpcReply)][0]
        assert sent_at == entry.t_end

    def test_no_notification_for_immediate(self):
        loop, server, wire = make_server()
        rpc(server, "m1")
        loop.run_until(deadline=1 * SECONDS)
        assert wire.notifications() == []

    def test_get_time_false_omits_execution_time(self):
        loop, server, wire = make_server()
        rpc(server, "m1", get_time=False)
        loop.run_until(deadline=1 * SECONDS)
        assert wire.reply("m1").execution_time is None


class TestScheduledExecution:
    def test_accept_notifies_before_scheduled_time(self):
        loop, server, wire = make_server()
        t_s = 2 * SECONDS
        rpc(server, "m1", at=t_s, get_time=True)
        loop.run_until(deadline=5 * SECONDS)
        [(notified_at, note)] = wire.notifications("m1")
        assert note == ScheduleNotification("m1")
        assert notified_at < t_s
        entry = server.log[0]
        assert entry is server.ops["m1"]
        assert entry.t_start == t_s
        assert wire.reply("m1").execution_time == t_s + 30 * MILLIS

    def test_start_timeliness_with_jitter(self):
        model = ExecutionModel(base=10 * MILLIS, jitter=2 * MILLIS)
        loop, server, wire = make_server(model=model)
        times = [1 * SECONDS + i * SECONDS for i in range(10)]
        for i, t_s in enumerate(times):
            rpc(server, f"m{i}", at=t_s)
        loop.run_until(deadline=times[-1] + SECONDS)
        assert len(server.log) == len(times)
        for entry, t_s in zip(server.log, times):
            assert 0 <= entry.t_start - t_s < model.jitter

    def test_run_now_window(self):
        loop, server, wire = make_server(start=10 * SECONDS)
        rpc(server, "m1", at=10 * SECONDS - 1 * SECONDS, get_time=True)
        loop.run_until(deadline=11 * SECONDS)
        # ran immediately, no acceptance notification
        assert wire.notifications() == []
        assert server.log[0].t_start == 10 * SECONDS
        assert wire.reply("m1").ok

    def test_reject_too_far_future(self):
        loop, server, wire = make_server()
        rpc(server, "m1", at=16 * SECONDS, get_time=True)
        loop.run_until(deadline=60 * SECONDS)
        # As in RFC 7758, the refusal is one frame: the error reply.
        [(sent_at, reply)] = wire.events
        assert sent_at == 0
        assert reply == RpcReply.make_error(
            "m1",
            "schedule-out-of-range",
            f"scheduled-time {16 * SECONDS} outside acceptable range",
        )
        assert "m1" in server.rejected_ids
        assert server.log == []
        assert "m1" not in server.ops

    def test_reject_too_far_past(self):
        loop, server, wire = make_server(start=100 * SECONDS)
        rpc(server, "m1", at=100 * SECONDS - 4 * SECONDS)
        loop.run_until(deadline=160 * SECONDS)
        assert wire.reply("m1").error_code == "schedule-out-of-range"
        assert server.log == []

    def test_custom_range(self):
        cfg = SchedulingRangeConfig(sched_max_future=1 * SECONDS, sched_max_past=0)
        loop, server, wire = make_server(range_config=cfg)
        rpc(server, "m1", at=1 * SECONDS)  # exactly on the bound: accepted
        rpc(server, "m2", at=1 * SECONDS + 1)  # one ns beyond: rejected
        loop.run_until(deadline=5 * SECONDS)
        assert wire.reply("m2").error_code == "schedule-out-of-range"
        assert [e.message_id for e in server.log] == ["m1"]


class TestAdmissionErrors:
    def test_duplicate_message_id(self):
        loop, server, wire = make_server()
        rpc(server, "m1", at=1 * SECONDS)
        rpc(server, "m1", at=2 * SECONDS)
        loop.run_until(deadline=5 * SECONDS)
        dup = [r for r in wire.replies("m1") if not r.ok]
        assert [r.error_code for r in dup] == ["duplicate-message-id"]
        # the original is unaffected and ran once
        assert [e.message_id for e in server.log] == ["m1"]

    def test_unknown_operation(self):
        loop, server, wire = make_server()
        rpc(server, "m1", op="frobnicate", at=1 * SECONDS)
        loop.run_until(deadline=5 * SECONDS)
        reply = wire.reply("m1")
        assert reply.error_code == "unknown-operation"
        assert "frobnicate" in reply.error_detail
        assert server.log == []

    def test_garbage_frame_counts_decode_error(self):
        loop, server, wire = make_server()
        server.on_frame(b"not json\n")
        assert server.decode_errors == 1
        assert wire.events == []

    def test_replies_are_ignored(self):
        loop, server, wire = make_server()
        server.on_frame(encode(RpcReply.make_ok("m9")))
        loop.run_until(deadline=1 * SECONDS)
        assert wire.events == []
        assert server.decode_errors == 0

    def test_frame_is_handled_under_the_scheduler_lock(self, monkeypatch):
        # A transport calls on_frame bare; the core takes its driver's lock.
        loop, server, wire = make_server()
        owned = []
        handle = server._handle_rpc

        def spy(msg):
            owned.append(loop.lock._is_owned())
            handle(msg)

        monkeypatch.setattr(server, "_handle_rpc", spy)
        rpc(server, "m1")
        assert owned == [True]

    @pytest.mark.parametrize(
        "make",
        [
            lambda text: RpcMessage("m1", Operation(text)),
            lambda text: RpcMessage("m1", Operation("cancel-schedule", {"target-id": text})),
        ],
        ids=["unknown-operation", "unknown-message-id"],
    )
    def test_error_echo_too_big_to_frame_is_dropped(self, make):
        # The rpc fits in one frame; its error reply, which echoes the op
        # name or the target id, does not.
        frame = encode(make(widest(make)))
        assert len(frame) == MAX_FRAME_BYTES
        loop, server, wire = make_server()
        server.on_frame(frame)
        assert server.unencodable_replies == 1 and wire.events == []
        rpc(server, "m2")
        loop.run_until(deadline=1 * SECONDS)
        assert wire.reply("m2").ok


class TestCancellation:
    def test_cancel_pending(self):
        loop, server, wire = make_server()
        rpc(server, "m1", at=5 * SECONDS, get_time=True)
        loop.run_until(deadline=1 * SECONDS)
        cancel(server, "c1", "m1")
        loop.run_until(deadline=10 * SECONDS)
        assert wire.reply("c1").ok
        assert wire.reply("m1").error_code == "cancelled"
        assert server.log == []
        assert server.ops["m1"].state is OpState.CANCELLED
        assert "c1" not in server.ops

    def test_cancel_cancelled_is_idempotent(self):
        loop, server, wire = make_server()
        rpc(server, "m1", at=5 * SECONDS)
        cancel(server, "c1", "m1")
        cancel(server, "c2", "m1")
        loop.run_until(deadline=10 * SECONDS)
        assert wire.reply("c1").ok
        assert wire.reply("c2").ok
        # only one cancelled-notice for the target
        assert len(wire.replies("m1")) == 1

    def test_cancel_after_execution(self):
        loop, server, wire = make_server()
        rpc(server, "m1", at=1 * SECONDS)
        loop.run_until(deadline=2 * SECONDS)
        cancel(server, "c1", "m1")
        loop.run_until(deadline=3 * SECONDS)
        reply = wire.reply("c1")
        assert reply.error_code == "already-executed"
        assert [e.message_id for e in server.log] == ["m1"]

    def test_cancel_unknown_target(self):
        loop, server, wire = make_server()
        cancel(server, "c1", "mX")
        reply = wire.reply("c1")
        assert reply.error_code == "unknown-message-id"
        assert "mX" in reply.error_detail

    def test_cancel_message_id_shares_uniqueness_space(self):
        loop, server, wire = make_server()
        rpc(server, "m1", at=5 * SECONDS)
        cancel(server, "m1", "m1")
        assert wire.reply("m1").error_code == "duplicate-message-id" or any(
            r.error_code == "duplicate-message-id" for r in wire.replies("m1")
        )

    def test_cancel_rejected_id_is_unknown(self):
        # a rejected rpc was never stored, so cancelling it reports unknown
        loop, server, wire = make_server()
        rpc(server, "m1", at=60 * SECONDS)
        cancel(server, "c1", "m1")
        assert wire.reply("c1").error_code == "unknown-message-id"

    def test_rpc_after_its_cancel_is_refused_and_never_runs(self):
        # The cancel overtook its rpc: it reports the target unknown, which a
        # committing client takes as a confirmed abort, so the late rpc must
        # be refused rather than run.
        loop, server, wire = make_server()
        cancel(server, "c1", "m1")
        assert wire.reply("c1").error_code == "unknown-message-id"
        rpc(server, "m1", op="set-value", params={"key": "k", "value": "v"},
            at=1 * SECONDS, get_time=True)
        loop.run_until(deadline=5 * SECONDS)
        assert wire.reply("m1").error_code == "cancelled"
        assert wire.notifications("m1") == []
        assert "m1" not in server.ops
        assert server.log == []
        assert server.state.candidate == {}
        assert server._cancelled_unseen == set()
        # the id now counts as seen: a second copy is a duplicate
        rpc(server, "m1", at=2 * SECONDS)
        assert [r.error_code for r in wire.replies("m1")] == [
            "cancelled", "duplicate-message-id"
        ]

    def test_cancel_after_its_own_cancel_does_not_act(self):
        # c2 withdrew c1 before c1 arrived, and its unknown-message-id is a
        # confirmed abort; so c1 is refused like any rpc and m1 still runs.
        loop, server, wire = make_server()
        rpc(server, "m1", at=1 * SECONDS)
        cancel(server, "c2", "c1")
        assert wire.reply("c2").error_code == "unknown-message-id"
        cancel(server, "c1", "m1")
        loop.run_until(deadline=2 * SECONDS)
        assert wire.reply("c1").error_code == "cancelled"
        assert wire.reply("m1").ok
        assert [e.message_id for e in server.log] == ["m1"]
        assert server._cancelled_unseen == set()

    @pytest.mark.parametrize(
        "params, at",
        [({}, None), ({"target-id": ""}, None), ({"target-id": "m1"}, 2 * SECONDS)],
        ids=["no-target", "empty-target", "scheduled"],
    )
    def test_malformed_cancel_is_answered_and_uses_its_id(self, params, at):
        loop, server, wire = make_server()
        rpc(server, "m1", at=1 * SECONDS)
        rpc(server, "c1", op="cancel-schedule", params=params, at=at)
        assert wire.reply("c1").error_code == "invalid-params"
        assert wire.notifications("c1") == []
        cancel(server, "c1", "m1")
        assert [r.error_code for r in wire.replies("c1")] == [
            "invalid-params", "duplicate-message-id"
        ]
        loop.run_until(deadline=2 * SECONDS)
        assert wire.reply("m1").ok
        assert [e.message_id for e in server.log] == ["m1"]
        assert "c1" not in server.ops
        assert server._cancelled_unseen == set()


class TestSessions:
    """Message ids, ops and tombstones are per session; the device is shared."""

    def test_second_session_numbers_from_m1(self):
        loop, server, first = make_server()
        rpc(server, "m1")
        rpc(server, "m2", at=60 * SECONDS)
        loop.run_until(deadline=1 * SECONDS)
        second = Wire(loop)
        server.open_session(second.send)
        assert (server.ops, server.rejected_ids) == ({}, set())
        rpc(server, "m1", get_time=True)
        loop.run_until(deadline=2 * SECONDS)
        assert second.reply("m1").execution_time == 1 * SECONDS + 30 * MILLIS
        assert first.reply("m1").execution_time is None
        assert [op.message_id for op in server.log] == ["m1", "m1"]

    def test_cancel_acts_only_within_its_session(self):
        loop, server, first = make_server()
        rpc(server, "m1", at=1 * SECONDS)
        second = Wire(loop)
        server.open_session(second.send)
        cancel(server, "c1", "m1")
        assert second.reply("c1").error_code == "unknown-message-id"
        loop.run_until(deadline=2 * SECONDS)
        # the first session's op ran when due and replied on its own sink
        assert first.reply("m1").ok
        assert second.replies("m1") == []
        assert [(op.message_id, op.t_start) for op in server.log] == [("m1", 1 * SECONDS)]

    def test_sessions_share_the_store(self):
        loop, server, first = make_server()
        rpc(server, "m1", op="set-value", params={"key": "k", "value": "v"})
        rpc(server, "m2", op="commit")
        loop.run_until(deadline=1 * SECONDS)
        second = Wire(loop)
        server.open_session(second.send)
        rpc(server, "m1", op="get-value", params={"key": "k"})
        loop.run_until(deadline=2 * SECONDS)
        assert second.reply("m1").params == {"value": "v"}

    def test_tombstone_never_refuses_a_later_session(self):
        loop, server, first = make_server()
        cancel(server, "c1", "m1")
        assert first.reply("c1").error_code == "unknown-message-id"
        second = Wire(loop)
        server.open_session(second.send)
        rpc(server, "m1", at=1 * SECONDS)
        loop.run_until(deadline=2 * SECONDS)
        assert second.reply("m1").ok
        assert first.replies("m1") == []
        assert [op.message_id for op in server.log] == ["m1"]


class TestBuiltins:
    def test_set_value_targets_candidate(self):
        loop, server, wire = make_server()
        rpc(server, "m1", op="set-value", params={"key": "k", "value": "v"})
        loop.run_until(deadline=1 * SECONDS)
        assert server.state.candidate == {"k": "v"}
        assert server.state.running == {}

    def test_get_value_reads_running_only(self):
        loop, server, wire = make_server()
        rpc(server, "m1", op="set-value", params={"key": "k", "value": "v"})
        rpc(server, "m2", op="get-value", params={"key": "k"})
        loop.run_until(deadline=1 * SECONDS)
        assert wire.reply("m2").error_code == "unknown-key"

    def test_commit_promotes_candidate(self):
        loop, server, wire = make_server()
        rpc(server, "m1", op="set-value", params={"key": "k", "value": "v"})
        rpc(server, "m2", op="commit")
        rpc(server, "m3", op="get-value", params={"key": "k"})
        loop.run_until(deadline=1 * SECONDS)
        assert wire.reply("m3").ok
        assert wire.reply("m3").params == {"value": "v"}
        assert server.state.running == {"k": "v"}

    def test_value_too_big_to_frame_frees_its_lane(self):
        # set-value fits in one frame; a get-value reply that carries the
        # value and its execution time does not. It is dropped, and the
        # lane it held serves the next op.
        make = lambda text: RpcMessage(
            "m1", Operation("set-value", {"key": "k", "value": text})
        )
        loop, server, wire = make_server()
        server.on_frame(encode(make(widest(make))))
        rpc(server, "m2", op="commit")
        rpc(server, "m3", op="get-value", params={"key": "k"}, get_time=True)
        rpc(server, "m4")
        loop.run_until(deadline=1 * SECONDS)
        assert server.unencodable_replies == 1
        assert [r.message_id for r in wire.replies()] == ["m1", "m2", "m4"]
        assert [op.message_id for op in server.log] == ["m1", "m2", "m3", "m4"]

    def test_time_past_19_digits_is_dropped_and_frees_its_lane(self):
        # The toast ends past 10**19 ns, so its reply's execution-time is
        # one the wire refuses. It is dropped and counted, and the noop on
        # the other lane is answered.
        loop, server, wire = make_server(lanes=2)
        rpc(server, "m1", op="toast", params={"duration-ns": "9" * 19}, get_time=True)
        rpc(server, "m2")
        loop.run_until()
        assert [r.message_id for r in wire.replies()] == ["m2"] and wire.reply("m2").ok
        assert server.unencodable_replies == 1
        assert [op.message_id for op in server.log] == ["m2", "m1"]
        assert server._active == 0

    def test_raising_sink_frees_its_lane(self):
        # m1's session has a sink that raises; m2 waits for the one lane.
        loop, server, wire = make_server()

        def gone(frame):
            raise ConnectionError("sink gone")

        server.open_session(gone)
        rpc(server, "m1")
        server.open_session(wire.send)
        rpc(server, "m2")
        with pytest.raises(ConnectionError):
            loop.run_until(deadline=1 * SECONDS)
        loop.run_until(deadline=1 * SECONDS)
        assert [r.message_id for r in wire.replies()] == ["m2"]

    def test_set_value_missing_params(self):
        loop, server, wire = make_server()
        rpc(server, "m1", op="set-value", params={"key": "k"})
        loop.run_until(deadline=1 * SECONDS)
        assert wire.reply("m1").error_code == "invalid-params"

    def test_get_value_missing_key_param(self):
        loop, server, wire = make_server()
        rpc(server, "m1", op="get-value")
        loop.run_until(deadline=1 * SECONDS)
        assert wire.reply("m1").error_code == "invalid-params"

    def test_failed_builtin_still_logs_execution(self):
        loop, server, wire = make_server()
        rpc(server, "m1", op="get-value", params={"key": "nope"}, get_time=True)
        loop.run_until(deadline=1 * SECONDS)
        reply = wire.reply("m1")
        assert not reply.ok
        assert reply.execution_time is None  # error replies never carry it
        assert [e.message_id for e in server.log] == ["m1"]

    def test_toast_adds_hold_time(self):
        loop, server, wire = make_server()
        rpc(server, "m1", op="toast", get_time=True)
        loop.run_until(deadline=1 * SECONDS)
        assert wire.reply("m1").execution_time == 30 * MILLIS + 100 * MILLIS

    def test_toast_duration_param(self):
        loop, server, wire = make_server()
        rpc(server, "m1", op="toast", params={"duration-ns": "5000000"}, get_time=True)
        loop.run_until(deadline=1 * SECONDS)
        assert wire.reply("m1").execution_time == 30 * MILLIS + 5 * MILLIS

    @pytest.mark.parametrize("raw", ["abc", "1e3", "-5", "5_000", " 7 ", "+9"])
    def test_malformed_toast_duration_is_refused(self, raw):
        loop, server, wire = make_server()
        rpc(server, "m1", op="toast", params={"duration-ns": raw}, get_time=True)
        loop.run_until(deadline=1 * SECONDS)
        reply = wire.reply("m1")
        assert reply.error_code == "invalid-params"
        assert "duration-ns" in reply.error_detail
        # no hold was added: the op ran for its base time only
        assert server.ops["m1"].t_end == 30 * MILLIS

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() reads digit strings of any length",
    )
    def test_toast_duration_too_long_for_int_is_refused(self):
        loop, server, wire = make_server()
        raw = "1" * (sys.get_int_max_str_digits() + 1)
        rpc(server, "m1", op="toast", params={"duration-ns": raw}, get_time=True)
        loop.run_until(deadline=1 * SECONDS)
        assert wire.reply("m1").error_code == "invalid-params"

    def test_spike_multiplies_run_but_not_toast_hold(self):
        model = ExecutionModel(base=30 * MILLIS, spike_p=1.0, spike_mult=2.0)
        loop, server, wire = make_server(model=model)
        rpc(server, "m1", op="toast", get_time=True)
        loop.run_until(deadline=1 * SECONDS)
        assert wire.reply("m1").execution_time == 60 * MILLIS + 100 * MILLIS


class TestExecutorLanes:
    def test_single_lane_serializes_simultaneous_due(self):
        model = ExecutionModel(base=50 * MILLIS)
        loop, server, wire = make_server(model=model)
        rpc(server, "m1", at=1 * SECONDS)
        rpc(server, "m2", at=1 * SECONDS)
        loop.run_until(deadline=3 * SECONDS)
        starts = {e.message_id: e.t_start for e in server.log}
        assert starts["m1"] == 1 * SECONDS
        assert starts["m2"] == 1 * SECONDS + 50 * MILLIS

    def test_two_lanes_run_in_parallel(self):
        model = ExecutionModel(base=50 * MILLIS)
        loop, server, wire = make_server(model=model, lanes=2)
        rpc(server, "m1", at=1 * SECONDS)
        rpc(server, "m2", at=1 * SECONDS)
        loop.run_until(deadline=3 * SECONDS)
        starts = {e.message_id: e.t_start for e in server.log}
        assert starts == {"m1": 1 * SECONDS, "m2": 1 * SECONDS}

    def test_log_ordered_by_completion(self):
        model = ExecutionModel(base=20 * MILLIS, sigma=5 * MILLIS)
        loop, server, wire = make_server(model=model, lanes=3, seed=4)
        for i in range(12):
            rpc(server, f"m{i}", at=1 * SECONDS + (i % 3) * MILLIS)
        loop.run_until(deadline=10 * SECONDS)
        ends = [e.t_end for e in server.log]
        assert ends == sorted(ends)
        assert len(server.log) == 12

    def test_cancel_while_waiting_for_a_lane(self):
        # m2 falls due while toast m1 holds the only lane, so it waits in the
        # ready queue; cancelled there, it must be skipped, and m3 behind it
        # still runs when the lane frees.
        loop, server, wire = make_server()
        rpc(server, "m1", op="toast", at=1 * SECONDS)
        rpc(server, "m2", op="set-value", params={"key": "k", "value": "v"},
            at=1 * SECONDS + 50 * MILLIS)
        rpc(server, "m3", at=1 * SECONDS + 60 * MILLIS)
        loop.run_until(deadline=1 * SECONDS + 80 * MILLIS)
        assert server.ops["m1"].state is OpState.RUNNING
        assert server.ops["m2"].state is OpState.PENDING
        assert [op.message_id for op in server._ready] == ["m2", "m3"]
        cancel(server, "c1", "m2")
        loop.run_until(deadline=3 * SECONDS)
        assert wire.reply("c1").ok
        assert wire.reply("m2").error_code == "cancelled"
        assert server.ops["m2"].state is OpState.CANCELLED
        assert server.ops["m2"].t_start is None
        assert server.state.candidate == {}
        assert [e.message_id for e in server.log] == ["m1", "m3"]
        assert server.ops["m3"].t_start == server.ops["m1"].t_end

    def test_lane_validation(self):
        with pytest.raises(ValueError):
            make_server(lanes=0)


class TestExecutionModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionModel(base=-1)
        with pytest.raises(ValueError):
            ExecutionModel(sigma=-0.5)
        with pytest.raises(ValueError):
            ExecutionModel(spike_p=1.5)
        with pytest.raises(ValueError):
            ExecutionModel(spike_mult=0.5)
        with pytest.raises(ValueError):
            ExecutionModel(load_penalty=-1)
        with pytest.raises(ValueError):
            ExecutionModel(load_recovery=-1)
        # values fine alone whose longest run is not finite together, or a
        # base beyond float range
        with pytest.raises(ValueError, match="infinite run"):
            ExecutionModel(base=10**299, spike_mult=1e10)
        with pytest.raises(ValueError, match="infinite run"):
            ExecutionModel(base=10**400)
        # a jitter draw scales a float by it
        with pytest.raises(ValueError, match="jitter"):
            ExecutionModel(jitter=int("9" * 400))

    def test_draw_order_matches_a_hand_run_stream(self):
        # Each op draws wake jitter, then run-time noise, then the spike coin,
        # and its load gap runs from the previous op's drawn start.
        model = ExecutionModel(
            base=10 * MILLIS,
            sigma=1 * MILLIS,
            jitter=2 * MILLIS,
            spike_p=0.3,
            spike_mult=4.0,
            load_penalty=0.5,
            load_recovery=150 * MILLIS,
        )
        loop, server, wire = make_server(model=model, seed=31)
        due = [1 * SECONDS + i * 100 * MILLIS for i in range(30)]
        for i, t_s in enumerate(due):
            rpc(server, f"m{i}", at=t_s)
        loop.run_until(deadline=5 * SECONDS)

        rng = named_rng(31, "server", "s1")
        expected, last = [], None
        for t_s in due:
            start = t_s + int(rng.random() * model.jitter)
            noise = rng.gauss(0.0, model.sigma)
            spiked = rng.random() < model.spike_p
            base = float(model.base)
            if last is not None and start - last < model.load_recovery:
                shortfall = 1.0 - (start - last) / model.load_recovery
                base = model.base * (1.0 + model.load_penalty * shortfall)
            run = max(0.0, base + noise)
            if spiked:
                run *= model.spike_mult
            expected.append((start, start + round(run), spiked))
            last = start
        assert [(op.t_start, op.t_end, op.spiked) for op in server.log] == expected
        assert 0 < sum(spiked for *_, spiked in expected) < len(expected)

    def test_effective_base_load_curve(self):
        m = ExecutionModel(base=100, load_penalty=0.5, load_recovery=1000)
        assert m.effective_base(None) == 100.0  # first op is unpenalized
        assert m.effective_base(1000) == 100.0
        assert m.effective_base(2000) == 100.0
        assert m.effective_base(500) == 100.0 * 1.25
        assert m.effective_base(0) == 150.0

    def test_gaussian_calibration(self):
        model = ExecutionModel(base=30 * MILLIS, sigma=3 * MILLIS)
        loop, server, wire = make_server(model=model, seed=77)
        n = 1000
        for i in range(n):
            t_s = 1 * SECONDS + i * 100 * MILLIS
            loop.call_at(t_s - 500 * MILLIS, lambda i=i, t_s=t_s: rpc(
                server, f"m{i}", at=t_s))
        loop.run_until(deadline=1 * SECONDS + (n + 2) * 100 * MILLIS)
        etes = [e.t_end - e.t_start for e in server.log]
        assert len(etes) == n
        mean = statistics.fmean(etes)
        sd = statistics.pstdev(etes)
        assert math.isclose(mean, 30 * MILLIS, abs_tol=0.5 * MILLIS)
        assert 2.6 * MILLIS < sd < 3.4 * MILLIS

    def test_spike_rate(self):
        model = ExecutionModel(base=10 * MILLIS, spike_p=0.1, spike_mult=10)
        loop, server, wire = make_server(model=model, seed=5)
        n = 2000
        for i in range(n):
            t_s = 1 * SECONDS + i * 20 * MILLIS
            loop.call_at(t_s - 10 * MILLIS, lambda i=i, t_s=t_s: rpc(
                server, f"m{i}", at=t_s))
        loop.run_until(deadline=1 * SECONDS + (n + 10) * 20 * MILLIS)
        spiked = [op for op in server.ops.values() if op.spiked]
        assert 0.07 * n < len(spiked) < 0.13 * n
        for op in spiked:
            assert op.t_end - op.t_start == 100 * MILLIS

    def test_draw_stream_depends_only_on_seed(self):
        runs = []
        for _ in range(2):
            loop, server, wire = make_server(
                model=ExecutionModel(base=30 * MILLIS, sigma=3 * MILLIS), seed=123
            )
            for i in range(20):
                rpc(server, f"m{i}", at=1 * SECONDS + i * 100 * MILLIS)
            loop.run_until(deadline=10 * SECONDS)
            runs.append([(e.t_start, e.t_end) for e in server.log])
        assert runs[0] == runs[1]
