"""Wall-clock operation over TCP.

The protocol, server core and client core are all transport-agnostic; this
module supplies the real-world glue: sim.EventLoop's timer heap run against
time.time_ns() by one worker thread, a client driver whose waits block on a
condition variable, and newline-framed TCP plumbing on both sides.

Timing here is at the mercy of the host scheduler, so expect millisecond
jitter; the virtual-time harness is the place for exact assertions.
"""

from __future__ import annotations

import logging
import socket
import threading
import time

from .client import Client
from .protocol import FrameSplitter, SchedulingRangeConfig
from .server import ExecutionModel, Server
from .sim import EventLoop, Timer

__all__ = [
    "ThreadScheduler",
    "LiveDriver",
    "LiveServer",
    "LiveClient",
]

log = logging.getLogger(__name__)


class ThreadScheduler(EventLoop):
    """An EventLoop whose clock is time.time_ns(), run by one worker thread.

    The worker runs the loop up to the current instant, then sleeps until
    the heap head falls due or a new timer takes its place. Callbacks run
    while holding `lock` (a private one when none is given), which is how
    the live server serialises timer fire against frames arriving from the
    socket reader.
    """

    def __init__(self, lock=None):
        super().__init__(time.time_ns())
        self._lock = lock if lock is not None else threading.RLock()
        self._timer_cond = threading.Condition(self._lock)
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="chronorpc-timer", daemon=True
        )
        self._thread.start()

    def now(self) -> int:
        return time.time_ns()

    def call_at(self, when: int, callback, *args) -> Timer:
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            timer = super().call_at(when, callback, *args)
            if self._heap[0][2] is timer:
                self._timer_cond.notify()
        return timer

    def _run(self) -> None:
        with self._lock:
            while not self._closed:
                try:
                    self.run_until(deadline=time.time_ns())
                except Exception:
                    log.exception("timer callback failed")
                    continue
                timeout = None
                if self._heap:
                    timeout = (self._heap[0][0] - time.time_ns()) / 1e9
                self._timer_cond.wait(timeout)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._timer_cond.notify()
        self._thread.join(timeout=1.0)


class LiveDriver(ThreadScheduler):
    """Client driver against the wall clock.

    wait_until blocks on a condition built over the client's own lock, so
    predicates always observe a consistent client state. The socket reader
    calls wake() after every frame it feeds in, and every timer dispatch
    wakes the waiters too. Waiters sleep on a condition of their own, so
    wake() never wakes the timer thread.
    """

    def __init__(self, lock):
        self._waiters = threading.Condition(lock)
        super().__init__(lock)

    def _dispatch_next(self) -> None:
        super()._dispatch_next()
        self._waiters.notify_all()

    def wait_until(self, predicate, deadline: int) -> bool:
        with self._waiters:
            while True:
                if predicate is not None and predicate():
                    return True
                remaining = deadline - time.time_ns()
                if remaining <= 0:
                    return bool(predicate()) if predicate is not None else False
                self._waiters.wait(remaining / 1e9)

    def wake(self) -> None:
        with self._waiters:
            self._waiters.notify_all()

    def close(self) -> None:
        super().close()
        self.wake()


def _reader(sock: socket.socket, deliver, on_close=None) -> None:
    splitter = FrameSplitter()
    try:
        while True:
            data = sock.recv(65536)
            if not data:
                break
            for frame in splitter.feed(data):
                deliver(frame)
    except OSError:
        pass
    finally:
        if on_close is not None:
            on_close()


class LiveServer:
    """One protocol server listening on a TCP port.

    Handles one connection at a time; frames and due timers are serialised
    through a single lock around the sans-io core.
    """

    def __init__(
        self,
        server_id: str = "live",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        model: ExecutionModel | None = None,
        range_config: SchedulingRangeConfig | None = None,
        rng=None,
        lanes: int = 1,
    ):
        self._lock = threading.RLock()
        self._sched = ThreadScheduler(lock=self._lock)
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()
        self._conn: socket.socket | None = None
        self._closed = False
        self.core = Server(
            server_id,
            scheduler=self._sched,
            send=self._send,
            model=model,
            range_config=range_config,
            rng=rng,
            lanes=lanes,
        )
        self._accept_thread = threading.Thread(
            target=self._serve, name=f"chronorpc-{server_id}", daemon=True
        )
        self._accept_thread.start()

    def _send(self, frame: bytes) -> None:
        conn = self._conn
        if conn is None:
            return
        try:
            conn.sendall(frame)
        except OSError:
            pass

    def _serve(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conn = conn

            def deliver(frame: bytes) -> None:
                with self._lock:
                    self.core.on_frame(frame)

            _reader(conn, deliver)
            # Under the lock, so no timer callback is sending on it meanwhile.
            with self._lock:
                if self._conn is conn:
                    self._conn = None
                conn.close()

    def close(self) -> None:
        self._closed = True
        conn = self._conn
        if conn is not None:
            # shutdown wakes a reader blocked in recv; close alone does not
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._sched.close()
        self._accept_thread.join(timeout=1.0)

    def __enter__(self) -> "LiveServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LiveClient:
    """A scheduling client bound to the wall clock, one TCP link per server."""

    def __init__(self, **client_kwargs):
        self._lock = threading.RLock()
        self.driver = LiveDriver(self._lock)
        self.core = Client(self.driver, lock=self._lock, **client_kwargs)
        self._socks: list[socket.socket] = []
        self._threads: list[threading.Thread] = []

    def connect(
        self,
        server_id: str,
        address: tuple[str, int],
        range_config: SchedulingRangeConfig | None = None,
    ):
        sock = socket.create_connection(address)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._socks.append(sock)
        session = self.core.connect(server_id, sock.sendall, range_config=range_config)

        def deliver(frame: bytes) -> None:
            with self._lock:
                self.core.on_frame(frame)
            self.driver.wake()

        thread = threading.Thread(
            target=_reader,
            args=(sock, deliver, self.driver.wake),
            name=f"chronorpc-reader-{server_id}",
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)
        return session

    def close(self) -> None:
        for sock in self._socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self.driver.close()
        for thread in self._threads:
            thread.join(timeout=1.0)

    def __enter__(self) -> "LiveClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
