"""Wall-clock TCP smoke tests.

Everything here runs against real sockets and the real clock, so the
assertions are deliberately loose; the precise behavior is pinned by the
virtual-time suites.
"""

import gc
import logging
import random
import socket
import sys
import threading
import time
import warnings
from types import SimpleNamespace

from chronorpc import live
from chronorpc.client import CancelResult
from chronorpc.live import LiveClient, LiveDriver, LiveServer, ThreadScheduler
from chronorpc.protocol import (
    MILLIS,
    SECONDS,
    FrameSplitter,
    Operation,
    RpcMessage,
    RpcReply,
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
        core.driver.wait_until(lambda: call.notification is not None, deadline)
        assert core.cancel("live1", call.message_id) is CancelResult.CANCELLED
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
        for sock in (client._socks[0], server._conn):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_thread_scheduler_ordering():
    sched = ThreadScheduler()
    hits = []
    base = sched.now()
    try:
        sched.call_at(base + 60 * MILLIS, hits.append, "b")
        sched.call_at(base + 20 * MILLIS, hits.append, "a")
        timer = sched.call_at(base + 40 * MILLIS, hits.append, "x")
        timer.cancel()
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
    driver = LiveDriver(threading.RLock())
    fired = []
    try:
        start = driver.now()
        driver.call_at(start + 20 * MILLIS, fired.append, True)
        assert driver.wait_until(lambda: bool(fired), start + 5 * SECONDS)
        assert driver.now() - start < 1 * SECONDS
    finally:
        driver.close()


def test_driver_deadline_runs_on_the_monotonic_clock(monkeypatch):
    frozen = time.time_ns()
    monkeypatch.setattr(
        live, "time", SimpleNamespace(time_ns=lambda: frozen, monotonic_ns=time.monotonic_ns)
    )
    driver = LiveDriver(threading.RLock())
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
