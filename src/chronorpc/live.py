"""Wall-clock operation over TCP.

The protocol, server core and client core are all transport-agnostic; this
module supplies the real-world glue: sim.EventLoop's timer heap run against
time.time_ns(), and newline-framed TCP plumbing on both sides.

LiveDriver.wait_until is the one wall-clock loop. As in the simulator, due
timers fire on the thread that waits: a server's on the one thread of its
ThreadScheduler, which waits until closed. Each LiveServer runs that thread
and a connection thread; each LiveClient runs one socket reader per
connected server. The server core schedules through now/call_at/lock; the
client core only waits, through now/wait_until/lock, as client.py states.
Timers fire under the driver's lock, and each core takes that lock itself
at its entry points, so the readers here hand frames to a core bare. A
connection is closed once, by the reader that saw it end, under that same
lock, which every send on it holds too; close() on either side only shuts
sockets down to wake their readers, and joins them.

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

# The longest Condition.wait in ns, whole seconds so that / 1e9 stays within it.
_TIMEOUT_MAX_NS = int(threading.TIMEOUT_MAX) * 1_000_000_000


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
                left = _TIMEOUT_MAX_NS if end is None else end - time.monotonic_ns()
                if left <= 0:
                    return False
                if self._heap:
                    left = min(left, self._heap[0][0] - now)
                # No deadline waits TIMEOUT_MAX at a time. The wait is clamped
                # in ns before its one float conversion: a far heap head or
                # deadline overflows a float, and Condition.wait overflows
                # past TIMEOUT_MAX. The loop re-checks.
                self._cond.wait(min(left, _TIMEOUT_MAX_NS) / 1e9)

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


def _shut(sock: socket.socket, lock) -> None:
    # shutdown wakes the thread reading sock, which closes it under `lock`
    with lock, contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)


def _reader(sock: socket.socket, deliver, driver: LiveDriver, on_close=None) -> None:
    """Hand sock's frames to deliver until sock ends, then close it.

    on_close and the close run in one hold of the driver's lock, which
    every send on sock holds too: no send meets a descriptor closed under
    it, and whoever sees sock open under that lock sees the link live.
    Then the driver's waiters wake, since the end may have ended a call.
    """
    splitter = FrameSplitter()
    try:
        while data := sock.recv(65536):
            for frame in splitter.feed(data):
                deliver(frame)
    except OSError:
        pass
    finally:
        with driver.lock:
            if on_close is not None:
                on_close()
            sock.close()
        driver.wake()


class LiveServer:
    """One protocol server listening on a TCP port.

    Handles one connection at a time on its connection thread, and opens a
    core session for each: message ids are unique per connection, and each
    op replies on the connection it came on, or nowhere once that has
    closed. That thread hands frames to the core bare: the core takes its
    ThreadScheduler's lock, which the scheduler's timers fire under. Under
    that lock too, the thread closes each connection when it ends. close()
    only shuts the connection and the listener down and joins the thread;
    then it closes the listener and stops the timers, so no frame already
    read reaches a closed scheduler. `server_kwargs` go to Server as they
    are.
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
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # close() shut the listener down
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # One hold with close(): it either finds conn here to shut down,
            # or has shut the listener down, so the next accept fails.
            with self._sched.lock:
                if self._closed:
                    conn.close()
                    continue
                self._conn = conn

            # conn is bound now: the next accept rebinds the loop's name.
            def send(frame: bytes, conn=conn) -> None:
                try:
                    conn.sendall(frame)
                except OSError:  # closed: an op outlived its connection
                    pass

            self.core.open_session(send)
            _reader(conn, self.core.on_frame, self._sched)

    def close(self) -> None:
        with self._sched.lock:
            self._closed = True
            _shut(self._listener, self._sched.lock)
            if self._conn is not None:
                _shut(self._conn, self._sched.lock)
        self._accept_thread.join(timeout=1.0)
        self._listener.close()
        self._sched.close()

    def __enter__(self) -> "LiveServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LiveClient:
    """A scheduling client bound to the wall clock, one TCP link per server.

    Each link's reader thread feeds frames to the core, which takes the
    driver's lock itself, and wakes the waiters. When a link's reader
    ends, it fails the link's pending and later calls with TransportClosed
    and closes the link's socket, in one hold of that lock. Only then can
    the server id connect again, and that connect joins the old reader,
    so a client holds one socket and one thread per server id however
    often it reconnects. Connecting one server never blocks the others.
    There is no timer thread: the client sets no timers, and a probe plan
    sends each probe when its own wait ends.
    """

    def __init__(self, **client_kwargs):
        self.driver = LiveDriver()
        self.core = Client(self.driver, **client_kwargs)
        # server id -> (socket, reader thread) of its latest link, which
        # is live while its socket is open
        self._links: dict[str, tuple[socket.socket, threading.Thread]] = {}

    def connect(self, server_id: str, address: tuple[str, int]) -> None:
        """Open a link to server_id and start its reader.

        Raises ValueError, and opens nothing, while the id's last link is
        live: that link's end would fail the new one's calls. The TCP
        handshake runs without the driver's lock, so the other links and
        the waits go on meanwhile. A connect that another connect of the
        same id overtook in the meantime closes its socket and raises
        ValueError too.
        """
        with self.driver.lock:
            last = self._links.get(server_id)
            if last is not None and last[0].fileno() != -1:
                raise ValueError(f"link to {server_id!r} is still open")
        if last is not None:
            last[1].join()  # closing its socket was its last step

        def deliver(frame: bytes) -> None:
            self.core.on_frame(frame)
            self.driver.wake()

        with contextlib.ExitStack() as opened:
            sock = opened.enter_context(socket.create_connection(address))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = threading.Thread(
                target=_reader,
                args=(sock, deliver, self.driver, lambda: self.core.disconnect(server_id)),
                name=f"chronorpc-reader-{server_id}",
                daemon=True,
            )
            with self.driver.lock:
                if self._links.get(server_id) is not last:
                    raise ValueError(f"{server_id!r} was connected meanwhile")
                reader.start()
                self.core.connect(server_id, sock.sendall)
                self._links[server_id] = (sock, reader)
            opened.pop_all()

    def close(self) -> None:
        for sock, reader in self._links.values():
            _shut(sock, self.driver.lock)
            reader.join(timeout=1.0)
        self.driver.close()

    def __enter__(self) -> "LiveClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
