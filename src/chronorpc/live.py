"""Wall-clock operation over TCP.

The protocol, server core and client core are all transport-agnostic; this
module supplies the real-world glue: sim.EventLoop's timer heap run against
time.time_ns(), and newline-framed TCP plumbing on both sides.

LiveDriver.wait_until is the one wall-clock loop. As in the simulator, due
timers fire on the thread that waits: a client's inside its own waits, a
server's on the one thread of its ThreadScheduler, which waits until closed.
Each LiveServer runs that thread and a connection thread; each LiveClient
runs one socket reader per connected server. A core runs under its
driver's lock: timers fire under it, the client core takes it, and frames
from a socket reach a core under it.

Timing here is at the mercy of the host scheduler, so expect millisecond
jitter; the virtual-time harness is the place for exact assertions.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time

from .client import Client
from .protocol import FrameSplitter
from .server import Server
from .sim import EventLoop

__all__ = [
    "ThreadScheduler",
    "LiveDriver",
    "LiveServer",
    "LiveClient",
]


class LiveDriver(EventLoop):
    """An EventLoop whose clock is time.time_ns(), run by whoever waits.

    Timers fire only inside wait_until, on the waiting thread, while it
    holds `lock`; so do predicates. A core driven by this driver takes the
    same lock, so a frame delivered from another thread never races a wait.
    A raising callback is logged and later timers still fire.
    """

    def __init__(self):
        super().__init__(time.time_ns())
        self._cond = threading.Condition(self.lock)
        self._closed = False

    def now(self) -> int:
        return time.time_ns()

    def call_at(self, when: int, callback, *args) -> None:
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            head = self._heap[0] if self._heap else None
            super().call_at(when, callback, *args)
            if self._heap[0] is not head:  # the new entry is the head
                self._cond.notify_all()

    def wait_until(self, predicate, deadline: int | None) -> bool:
        """Fire due timers until the predicate holds or the deadline passes.

        Sleeps between timers until wake(), a new heap head or the deadline.
        The deadline is a wall-clock instant; the time left runs on the
        monotonic clock, so a stalled or stepped wall clock cannot stretch
        the wait. None waits for the predicate alone.
        """
        end = None if deadline is None else time.monotonic_ns() + deadline - time.time_ns()
        with self._cond:
            while True:
                if predicate is not None and predicate():
                    return True
                now = time.time_ns()
                if self._heap and self._heap[0][0] <= now:
                    try:
                        self.run_until(deadline=now)
                    except Exception:
                        # imported here: only this failure path logs
                        import logging

                        logging.getLogger(__name__).exception("timer callback failed")
                    continue
                left = None if end is None else end - time.monotonic_ns()
                if left is not None and left <= 0:
                    return False
                if self._heap:
                    head = self._heap[0][0] - now
                    left = head if left is None else min(left, head)
                self._cond.wait(None if left is None else left / 1e9)

    def wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class ThreadScheduler(LiveDriver):
    """A LiveDriver with one daemon thread that waits until close().

    That thread fires the live server's timers while no one else waits.
    """

    def __init__(self):
        super().__init__()
        self._thread = threading.Thread(
            target=self.wait_until,
            args=(lambda: self._closed, None),
            name="chronorpc-timer",
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        super().close()
        self._thread.join(timeout=1.0)


def _hang_up(sock: socket.socket) -> None:
    # shutdown wakes a reader blocked in recv; close alone does not
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    with contextlib.suppress(OSError):
        sock.close()


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

    Handles one connection at a time on its connection thread, and opens a
    core session for each: message ids are unique per connection, and each
    op replies on the connection it came on, or nowhere once that has
    closed. Frames from that thread reach the core under its
    ThreadScheduler's lock, which the scheduler's timers fire under, so the
    core takes its driver's lock for both. `server_kwargs` go to Server as
    they are.
    """

    def __init__(
        self,
        server_id: str = "live",
        host: str = "127.0.0.1",
        port: int = 0,
        **server_kwargs,
    ):
        self._conn: socket.socket | None = None
        self._closed = False
        # A step that raises closes what the earlier steps opened.
        with contextlib.ExitStack() as opened:
            self._sched = ThreadScheduler()
            opened.callback(self._sched.close)
            self._listener = socket.create_server((host, port))
            opened.callback(self._listener.close)
            self.address = self._listener.getsockname()
            # No connection yet: each accepted one opens its own session.
            self.core = Server(
                server_id, scheduler=self._sched, send=lambda frame: None, **server_kwargs
            )
            self._accept_thread = threading.Thread(
                target=self._serve, name=f"chronorpc-{server_id}", daemon=True
            )
            self._accept_thread.start()
            opened.pop_all()

    def _serve(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conn = conn

            # conn is bound now: the next accept rebinds the loop's name.
            def send(frame: bytes, conn=conn) -> None:
                try:
                    conn.sendall(frame)
                except OSError:  # closed: an op outlived its connection
                    pass

            with self._sched.lock:
                self.core.open_session(send)

            def deliver(frame: bytes) -> None:
                with self._sched.lock:
                    self.core.on_frame(frame)

            _reader(conn, deliver)
            # Under the lock, so no timer callback is sending on it meanwhile.
            with self._sched.lock:
                if self._conn is conn:
                    self._conn = None
                conn.close()

    def close(self) -> None:
        self._closed = True
        conn = self._conn
        if conn is not None:
            _hang_up(conn)
        _hang_up(self._listener)
        self._sched.close()
        self._accept_thread.join(timeout=1.0)

    def __enter__(self) -> "LiveServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LiveClient:
    """A scheduling client bound to the wall clock, one TCP link per server.

    The core takes the driver's lock, and each link's reader thread feeds
    frames to it under that lock and wakes the waiters. When a link's reader
    ends, its pending and later calls fail with TransportClosed at once.
    There is no timer thread: a timer set on `driver`, such as a probe
    plan's dispatch, fires inside a wait.
    """

    def __init__(self, **client_kwargs):
        self.driver = LiveDriver()
        self.core = Client(self.driver, **client_kwargs)
        self._socks: list[socket.socket] = []
        self._threads: list[threading.Thread] = []

    def connect(self, server_id: str, address: tuple[str, int]) -> None:
        sock = socket.create_connection(address)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._socks.append(sock)
        self.core.connect(server_id, sock.sendall)

        def deliver(frame: bytes) -> None:
            with self.driver.lock:
                self.core.on_frame(frame)
            self.driver.wake()

        def dropped() -> None:
            self.core.disconnect(server_id)
            self.driver.wake()

        thread = threading.Thread(
            target=_reader,
            args=(sock, deliver, dropped),
            name=f"chronorpc-reader-{server_id}",
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)

    def close(self) -> None:
        for sock in self._socks:
            _hang_up(sock)
        self.driver.close()
        for thread in self._threads:
            thread.join(timeout=1.0)

    def __enter__(self) -> "LiveClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
