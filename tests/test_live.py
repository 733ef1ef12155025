"""Wall-clock TCP smoke tests.

Everything here runs against real sockets and the real clock, so the
assertions are deliberately loose; the precise behavior is pinned by the
virtual-time suites.
"""

import gc
import logging
import os
import random
import socket
import struct
import sys
import threading
import time
import warnings
from types import SimpleNamespace

import pytest

from chronorpc import live
from chronorpc.live import LiveClient, LiveDriver, LiveServer, ThreadScheduler
from chronorpc.probing import BurstProbe, run_probe_plan
from chronorpc.protocol import (
    MILLIS,
    SECONDS,
    FrameSplitter,
    Operation,
    RpcMessage,
    RpcReply,
    TransportClosed,
    decode,
    encode,
)
from chronorpc.server import ExecutionModel

TOLERANCE = 150 * MILLIS  # generous: CI boxes stall


def test_schedule_over_tcp():
    model = ExecutionModel(base=20 * MILLIS)
    with LiveServer("live1", model=model) as server, LiveClient() as client:
        client.connect("live1", server.address)
        core = client.core
        desired = core.now() + 400 * MILLIS
        out = core.schedule_at_completion("live1", Operation("noop"), desired)
        assert out.ok
        assert out.execution_time is not None
        assert abs(out.completion_error) < TOLERANCE
        # second round has a warm predictor
        desired = core.now() + 400 * MILLIS
        out = core.schedule_at_completion("live1", Operation("noop"), desired)
        assert abs(out.completion_error) < TOLERANCE
        assert server.core.log and server.core.decode_errors == 0


def test_cancel_over_tcp():
    with LiveServer("live1") as server, LiveClient() as client:
        client.connect("live1", server.address)
        core = client.core
        call = core.submit(
            "live1", Operation("noop"), core.now() + 5 * SECONDS
        )
        deadline = core.now() + 2 * SECONDS
        core.driver.wait_until(lambda: call.notification_at is not None, deadline)
        out = core.cancel("live1", call.message_id)
        assert out.ok and out.error_code is None
        assert server.core.log == []


def test_immediate_value_round_trip():
    with LiveServer("live1") as server, LiveClient() as client:
        client.connect("live1", server.address)
        core = client.core
        core.schedule_raw(
            "live1", Operation("set-value", {"key": "k", "value": "v"})
        )
        core.schedule_raw("live1", Operation("commit"))
        out = core.schedule_raw("live1", Operation("get-value", {"key": "k"}))
        assert out.ok
        assert out.params == {"value": "v"}


def test_both_ends_disable_nagle():
    with LiveServer("live1") as server, LiveClient() as client:
        client.connect("live1", server.address)
        client.core.schedule_raw("live1", Operation("noop"))
        client_sock, _ = client._links["live1"]
        for sock in (client_sock, server._conn):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_thread_scheduler_ordering():
    sched = ThreadScheduler()
    hits = []
    base = sched.now()
    try:
        sched.call_at(base + 60 * MILLIS, hits.append, "b")
        sched.call_at(base + 20 * MILLIS, hits.append, "a")
        time.sleep(0.2)
        assert hits == ["a", "b"]
    finally:
        sched.close()


def test_thread_scheduler_survives_raising_callback(caplog):
    def boom():
        raise ValueError("boom")

    sched = ThreadScheduler()
    hits = []
    base = sched.now()
    try:
        with caplog.at_level(logging.ERROR, logger="chronorpc.live"):
            sched.call_at(base + 10 * MILLIS, boom)
            sched.call_at(base + 30 * MILLIS, hits.append, "after")
            time.sleep(0.2)
        assert hits == ["after"]
        [record] = caplog.records
        assert record.getMessage() == "timer callback failed"
        assert record.exc_info[0] is ValueError
    finally:
        sched.close()


def test_a_hold_past_timeout_max_leaves_the_free_lane_running():
    # The toast's end timer lies some 3 000 years out, past what
    # Condition.wait accepts; the timer thread must live on to run the noop.
    with LiveServer("live1", lanes=2) as server, LiveClient() as client:
        client.connect("live1", server.address)
        core = client.core
        core.submit("live1", Operation("toast", {"duration-ns": "1" + "0" * 20}))
        out = core.schedule_raw("live1", Operation("noop"), core.now() + 100 * MILLIS)
        assert out.ok


def test_a_hold_past_float_range_leaves_every_wait_running():
    # The toast's end timer lies past what a float holds. The server's timer
    # thread must live on to run the noop, and a client wait whose deadline
    # lies as far out must still end when its call resolves.
    with LiveServer("live1", lanes=2) as server, LiveClient(reply_timeout=1 * SECONDS) as client:
        client.connect("live1", server.address)
        core = client.core
        core.submit("live1", Operation("toast", {"duration-ns": "9" * 400}))
        out = core.schedule_raw("live1", Operation("noop"), core.now() + 50 * MILLIS)
        assert out.ok
        assert server._sched._thread.is_alive()
        later = core.submit("live1", Operation("noop"), core.now() + 50 * MILLIS, get_time=True)
        assert core.wait([later], 10**400)
        assert later.ok


def test_probe_plan_to_an_unconnected_server_raises_at_once(caplog):
    with LiveClient(reply_timeout=1 * SECONDS) as client:
        core = client.core
        start = time.monotonic()
        with caplog.at_level(logging.ERROR, logger="chronorpc.live"):
            with pytest.raises(ValueError, match="not connected to 'live1'"):
                run_probe_plan(core, "live1", BurstProbe(3, 10 * MILLIS))
            # a wait past the plan's slots would run any probe it had timed
            core.driver.wait_until(None, core.now() + 100 * MILLIS)
        assert time.monotonic() - start < 0.5
        assert caplog.records == []


def test_thread_scheduler_concurrent_call_at():
    """Timers added from more threads than cores all fire, none early."""
    n_threads, per_thread = 8, 50
    sched = ThreadScheduler()
    lateness = []
    done = threading.Event()

    def fire(due):
        lateness.append(time.time_ns() - due)
        if len(lateness) == n_threads * per_thread:
            done.set()

    def add(seed):
        rng = random.Random(seed)
        for _ in range(per_thread):
            due = sched.now() + rng.randrange(50 * MILLIS)
            sched.call_at(due, fire, due)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=add, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        assert done.wait(timeout=5)
        assert len(lateness) == n_threads * per_thread
        assert min(lateness) >= 0
    finally:
        sys.setswitchinterval(interval)
        sched.close()


def test_driver_timer_wakes_waiter():
    driver = LiveDriver()
    fired = []
    try:
        start = driver.now()
        driver.call_at(start + 20 * MILLIS, fired.append, True)
        assert driver.wait_until(lambda: bool(fired), start + 5 * SECONDS)
        assert driver.now() - start < 1 * SECONDS
    finally:
        driver.close()


def test_closed_driver_refuses_timers():
    driver = LiveDriver()
    driver.close()
    with pytest.raises(RuntimeError, match="scheduler is closed"):
        driver.call_at(driver.now(), lambda: None)


def test_server_close_stops_reading_before_its_timers():
    # Frames already read when close() hangs up still reach the core; each
    # schedules a timer, which a closed scheduler would refuse on the
    # connection thread. An unhandled thread exception fails the test.
    for _ in range(20):
        with LiveServer("live1") as server, LiveClient() as client:
            client.connect("live1", server.address)
            core = client.core
            for _ in range(50):
                core.submit("live1", Operation("noop"), core.now() + 5 * MILLIS)
            server.close()


def test_driver_deadline_runs_on_the_monotonic_clock(monkeypatch):
    frozen = time.time_ns()
    monkeypatch.setattr(
        live, "time", SimpleNamespace(time_ns=lambda: frozen, monotonic_ns=time.monotonic_ns)
    )
    driver = LiveDriver()
    results = []

    def wait():
        results.append(driver.wait_until(None, driver.now() + 50 * MILLIS))

    try:
        waiter = threading.Thread(target=wait, daemon=True)
        waiter.start()
        waiter.join(timeout=2)
        assert not waiter.is_alive()
        assert results == [False]
    finally:
        driver.close()


def test_server_and_connected_client_add_three_threads():
    # server: timer waiter and connection; client: one reader. The client's
    # timers fire inside its own waits.
    before = set(threading.enumerate())
    with LiveServer("live1") as server, LiveClient() as client:
        client.connect("live1", server.address)
        assert client.core.schedule_raw("live1", Operation("noop")).ok
        assert len(set(threading.enumerate()) - before) == 3


def test_server_decodes_each_frame_of_one_segment():
    """A garbage line between two rpcs in one send costs only itself."""
    noop = Operation("noop")
    with LiveServer("live1") as server:
        with socket.create_connection(server.address, timeout=5) as raw:
            raw.sendall(
                encode(RpcMessage("r1", noop)) + b"not a frame\n" + encode(RpcMessage("r2", noop))
            )
            splitter, replies = FrameSplitter(), []
            while len(replies) < 2:
                chunk = raw.recv(65536)
                assert chunk, "server hung up before replying"
                replies += [decode(f) for f in splitter.feed(chunk)]
        assert replies == [RpcReply.make_ok("r1"), RpcReply.make_ok("r2")]
        assert server.core.decode_errors == 1


@pytest.mark.parametrize(
    "frame",
    [
        b"[" * 60000 + b"\n",
        b'{"type":"rpc","message-id":"m1","op":"noop","params":{},"scheduled-time":'
        + b"1" * 5000
        + b"}\n",
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_server_keeps_serving_after_a_frame_json_cannot_parse(frame):
    with LiveServer("live1") as server:
        with socket.create_connection(server.address, timeout=5) as raw:
            raw.sendall(frame)
        with LiveClient(reply_timeout=2 * SECONDS) as client:
            client.connect("live1", server.address)
            assert client.core.schedule_raw("live1", Operation("noop")).ok
        assert server.core.decode_errors == 1


def test_frame_splitter_reassembles():
    splitter = FrameSplitter()
    assert splitter.feed(b'{"a":1}\n{"b"') == [b'{"a":1}\n']
    assert splitter.feed(b":2}\n") == [b'{"b":2}\n']
    assert splitter.feed(b"") == []


def test_server_closes_finished_connections():
    """Each accepted socket is closed once its peer hangs up, not left to GC."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with LiveServer("live1") as server:
            with LiveClient() as client:
                client.connect("live1", server.address)
                assert client.core.schedule_raw("live1", Operation("noop")).ok
            # A raw second connection: the server must have accepted it, and
            # so be done with the first one, once it answers.
            with socket.create_connection(server.address, timeout=5) as raw:
                raw.sendall(encode(RpcMessage("r1", Operation("noop"))))
                splitter, replies = FrameSplitter(), []
                while not replies:
                    chunk = raw.recv(65536)
                    assert chunk, "server hung up before replying"
                    replies = [decode(f) for f in splitter.feed(chunk)]
                assert replies == [RpcReply.make_ok("r1")]
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []


def test_dropped_connection_fails_calls_at_once():
    # The server closes 50 ms into a 500 ms op: the call fails then, not
    # after reply_timeout, and later sends on that link fail at once.
    model = ExecutionModel(base=500 * MILLIS)
    with LiveServer("live1", model=model) as server, LiveClient(
        reply_timeout=2 * SECONDS
    ) as client:
        client.connect("live1", server.address)
        core = client.core
        core.driver.call_at(core.now() + 50 * MILLIS, server.close)
        start = time.monotonic()
        with pytest.raises(TransportClosed):
            core.schedule_raw("live1", Operation("noop"))
        assert time.monotonic() - start < 1.0
        assert core._pending == {}
        later = core.submit("live1", Operation("noop"))
        assert isinstance(later.error, TransportClosed)
        assert core._pending == {}


def test_a_reset_link_fails_its_calls_at_once():
    # The peer resets the connection, so the reader's recv raises instead of
    # reading the end of the stream; the link still ends as a closed one
    # does: its call fails at once and its socket is closed.
    fds = _open_fds()
    with socket.create_server(("127.0.0.1", 0)) as listener, LiveClient(
        reply_timeout=5 * SECONDS
    ) as client:
        client.connect("s", listener.getsockname())
        conn, _ = listener.accept()
        core = client.core
        call = core.submit("s", Operation("noop"))
        with conn:
            assert conn.recv(65536)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        start = time.monotonic()
        assert core.wait([call], core.now() + 2 * SECONDS)
        assert time.monotonic() - start < 1.0
        assert isinstance(call.error, TransportClosed)
        assert core._pending == {}
    assert _open_fds() == fds


def _open_fds() -> int:
    """How many descriptors this process holds open.

    A socket that something still references raises no ResourceWarning,
    so only a count of descriptors shows one left open.
    """
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        pytest.skip("no /proc/self/fd to count descriptors in")


def _assert_leaves_nothing(make) -> None:
    """A make() that raises leaves no thread running and no socket unclosed."""
    threads, fds = threading.active_count(), _open_fds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises((OSError, ValueError)):
            make()
        gc.collect()
    assert threading.active_count() == threads
    assert _open_fds() == fds
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_live_link_id_refuses_a_second_link():
    # A second link under s would fail when the first one ends, so connect
    # refuses it and opens nothing; once that link drops, s connects again.
    threads = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with LiveServer("a") as a, LiveServer("b") as b, LiveClient() as client:
            client.connect("s", a.address)
            core = client.core
            call = core.submit("s", Operation("noop"), core.now() + 5 * SECONDS)
            fds = _open_fds()
            with pytest.raises(ValueError):
                client.connect("s", b.address)
            assert _open_fds() == fds
            a.close()
            core.wait([call], core.now() + 2 * SECONDS)
            assert isinstance(call.error, TransportClosed)
            client.connect("s", b.address)
            assert core.schedule_raw("s", Operation("noop")).ok
            assert len(b.core.log) == 1
        gc.collect()
    assert threading.active_count() == threads
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_reconnect_rounds_leak_nothing():
    # Each round's link drops with its server. Its socket closes as its
    # calls fail, and the next connect of s joins its reader, so the
    # client holds one link's worth however often s reconnects.
    threads, fds = threading.active_count(), _open_fds()
    with LiveClient() as client:
        core = client.core
        for _ in range(5):
            with LiveServer("a") as server:
                client.connect("s", server.address)
                # the server's timer and connection threads, and one reader
                assert threading.active_count() == threads + 3
                call = core.submit("s", Operation("noop"), core.now() + 5 * SECONDS)
            core.wait([call], core.now() + 2 * SECONDS)
            assert isinstance(call.error, TransportClosed)
            assert _open_fds() == fds
    assert threading.active_count() == threads


def test_connect_leaves_the_lock_free_during_the_handshake(monkeypatch):
    # Every other link's reader and every wait take the driver's lock, so
    # a slow handshake must not hold it.
    create_connection = socket.create_connection
    lock_free = []

    def try_the_lock():
        got = client.driver.lock.acquire(timeout=1)
        if got:
            client.driver.lock.release()
        lock_free.append(got)

    def handshake(*args, **kwargs):
        other = threading.Thread(target=try_the_lock)
        other.start()
        other.join(timeout=5)
        return create_connection(*args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", handshake)
    with LiveServer("live1") as server, LiveClient() as client:
        client.connect("live1", server.address)
        assert lock_free == [True]
        assert client.core.schedule_raw("live1", Operation("noop")).ok


def test_connect_overtaken_during_its_handshake_closes_its_socket(monkeypatch):
    # A second connect of the same id completes while the first is in its
    # handshake: the first must not replace that live link.
    create_connection = socket.create_connection
    made = []

    def handshake(*args, **kwargs):
        monkeypatch.setattr(socket, "create_connection", create_connection)
        client.connect("live1", server.address)
        made.append(create_connection(*args, **kwargs))
        return made[0]

    with LiveServer("live1") as server, LiveClient() as client:
        monkeypatch.setattr(socket, "create_connection", handshake)
        with pytest.raises(ValueError):
            client.connect("live1", server.address)
        assert made[0].fileno() == -1
        assert client.core.schedule_raw("live1", Operation("noop")).ok


def test_server_close_racing_an_accept_leaves_nothing(monkeypatch):
    # close() runs after accept() returns, before the server takes the
    # connection in: the connection thread still ends, and closes it.
    server = LiveServer("live1")
    accepted, closers = [], []
    setsockopt = socket.socket.setsockopt

    def close_first(sock, *args):
        if threading.current_thread() is server._accept_thread:
            accepted.append(sock)
            closers.append(threading.Thread(target=server.close))
            closers[0].start()
            closers[0].join(timeout=0.2)  # close() runs on to its join of us
        setsockopt(sock, *args)

    monkeypatch.setattr(socket.socket, "setsockopt", close_first)
    try:
        with socket.create_connection(server.address, timeout=5):
            server._accept_thread.join(timeout=2)
            assert not server._accept_thread.is_alive()
            [conn] = accepted
            assert conn.fileno() == -1
        closers[0].join(timeout=2)
        assert not closers[0].is_alive()
    finally:
        server.close()


def test_server_on_a_busy_port_leaks_nothing():
    with socket.create_server(("127.0.0.1", 0)) as busy:
        port = busy.getsockname()[1]
        _assert_leaves_nothing(lambda: LiveServer("live1", port=port))


def test_server_with_bad_settings_leaks_nothing():
    _assert_leaves_nothing(lambda: LiveServer("live1", lanes=0))


def test_second_client_is_served_like_the_first():
    with LiveServer("live1") as server:
        for _ in range(2):
            with LiveClient() as client:
                client.connect("live1", server.address)
                out = client.core.schedule_raw("live1", Operation("noop"))
                assert out.ok, out.error_code


def test_op_outlives_its_connection_and_replies_on_it():
    # The first client's m1 is not withdrawn when it hangs up: it runs when
    # due, and its reply goes to that closed connection, never to the second
    # client's, whose own ids start again at m1.
    with LiveServer("live1") as server:
        with LiveClient() as first:
            first.connect("live1", server.address)
            core = first.core
            call = core.submit("live1", Operation("noop"), core.now() + 300 * MILLIS)
            core.driver.wait_until(lambda: call.notification_at is not None, core.now() + 2 * SECONDS)
            assert call.message_id == "m1" and call.notification_at is not None
        with LiveClient() as second:
            second.connect("live1", server.address)
            core = second.core
            out = core.schedule_raw("live1", Operation("noop"))
            assert out.message_id == "m1"
            assert out.ok, out.error_code
            deadline = time.monotonic() + 2
            while len(server.core.log) < 2:
                assert time.monotonic() < deadline, "the first client's op never ran"
                time.sleep(0.01)
            # a stray reply would arrive within milliseconds of the op's end
            core.driver.wait_until(lambda: core.unmatched_messages, core.now() + 100 * MILLIS)
            assert core.unmatched_messages == 0
        assert sorted(op.scheduled_time is None for op in server.core.log) == [False, True]
        assert [op.message_id for op in server.core.log] == ["m1", "m1"]
