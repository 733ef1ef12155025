"""Wall-clock operation over TCP.

The protocol, server core and client core are all transport-agnostic; this
module supplies the real-world glue: a worker-thread scheduler driven by
time.time_ns(), a client driver whose waits block on a condition variable,
and newline-framed TCP plumbing on both sides.

Timing here is at the mercy of the host scheduler, so expect millisecond
jitter; the virtual-time harness is the place for exact assertions.
"""

from __future__ import annotations

import heapq
import logging
import socket
import threading
import time
from itertools import count

from .client import Client
from .protocol import MAX_FRAME_BYTES, SchedulingRangeConfig
from .server import ExecutionModel, Server
from .sim import Timer

__all__ = [
    "ThreadScheduler",
    "LiveDriver",
    "LiveServer",
    "LiveClient",
]

log = logging.getLogger(__name__)


class ThreadScheduler:
    """Runs callbacks at wall-clock nanosecond instants on one worker thread.

    Callbacks execute while holding `lock` (when given), which is how the
    live server serialises timer fire against frames arriving from the
    socket reader.
    """

    def __init__(self, lock=None):
        self._lock = lock
        self._cond = threading.Condition()
        self._heap: list[tuple[int, int, Timer]] = []
        self._seq = count()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="chronorpc-timer", daemon=True
        )
        self._thread.start()

    def now(self) -> int:
        return time.time_ns()

    def call_at(self, when: int, callback, *args) -> Timer:
        timer = Timer(when, callback, args)
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            heapq.heappush(self._heap, (when, next(self._seq), timer))
            self._cond.notify_all()
        return timer

    def call_later(self, delay: int, callback, *args) -> Timer:
        return self.call_at(self.now() + max(0, delay), callback, *args)

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._closed:
                    if not self._heap:
                        self._cond.wait()
                        continue
                    when = self._heap[0][0]
                    remaining = when - time.time_ns()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining / 1e9)
                if self._closed:
                    return
                _, _, timer = heapq.heappop(self._heap)
            if timer.cancelled:
                continue
            try:
                if self._lock is not None:
                    with self._lock:
                        timer.callback(*timer.args)
                else:
                    timer.callback(*timer.args)
            except Exception:
                log.exception("timer callback failed")

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout=1.0)


class LiveDriver:
    """Client driver against the wall clock.

    wait_until blocks on a condition built over the client's own lock, so
    predicates always observe a consistent client state; the socket reader
    calls wake() after every frame it feeds in.
    """

    def __init__(self, lock):
        self._cond = threading.Condition(lock)
        self._sched = ThreadScheduler(lock=lock)

    def now(self) -> int:
        return time.time_ns()

    def call_at(self, when: int, callback, *args) -> Timer:
        def fire():
            callback(*args)
            self.wake()

        return self._sched.call_at(when, fire)

    def wait_until(self, predicate, deadline: int) -> bool:
        with self._cond:
            while True:
                if predicate is not None and predicate():
                    return True
                remaining = deadline - time.time_ns()
                if remaining <= 0:
                    return bool(predicate()) if predicate is not None else False
                self._cond.wait(remaining / 1e9)

    def wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def close(self) -> None:
        self._sched.close()
        self.wake()


class _FrameSplitter:
    """Accumulates socket bytes and yields complete newline-framed messages."""

    def __init__(self):
        self._buf = b""

    def feed(self, data: bytes) -> list[bytes]:
        self._buf += data
        frames = []
        while True:
            cut = self._buf.find(b"\n")
            if cut < 0:
                break
            frames.append(self._buf[: cut + 1])
            self._buf = self._buf[cut + 1 :]
        if len(self._buf) > MAX_FRAME_BYTES:
            # Force the oversized tail through as one bogus frame so the
            # receiver counts it as a decode error instead of growing forever.
            frames.append(self._buf)
            self._buf = b""
        return frames


def _reader(sock: socket.socket, deliver, on_close=None) -> None:
    splitter = _FrameSplitter()
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
            if self._conn is conn:
                self._conn = None

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
