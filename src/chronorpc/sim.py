"""Deterministic discrete-event core: virtual clock, timers, in-order links.

Everything in the simulated world shares one EventLoop. Events fire exactly
at their scheduled nanosecond instants; ties break by insertion order; the
clock never moves backward. All randomness derives from a root seed through
named substreams so adding one more actor never perturbs the draws of the
existing ones.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable

from .protocol import TransportClosed

__all__ = ["Timer", "EventLoop", "Link", "named_rng"]


def named_rng(seed: int, *names: object) -> random.Random:
    """Independent deterministic substream identified by (seed, names).

    String seeding keeps the derivation stable across processes and
    platforms (unlike hash()-based seeding).
    """
    label = ":".join(str(n) for n in (seed, *names))
    return random.Random(label)


class Timer:
    """Handle for a scheduled callback; cancel() is idempotent."""

    __slots__ = ("when", "callback", "args", "cancelled")

    def __init__(self, when: int, callback: Callable, args: tuple):
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """Virtual-time event loop ordered by (fire time, insertion order)."""

    def __init__(self, start: int = 0):
        self._now = start
        self._heap: list[tuple[int, int, Timer]] = []
        self._seq = itertools.count()

    def now(self) -> int:
        return self._now

    def call_at(self, when: int, callback: Callable, *args) -> Timer:
        # A request in the past fires at the current instant; time is monotone.
        when = max(int(when), self._now)
        timer = Timer(when, callback, args)
        heapq.heappush(self._heap, (when, next(self._seq), timer))
        return timer

    def call_later(self, delay: int, callback: Callable, *args) -> Timer:
        return self.call_at(self.now() + int(delay), callback, *args)

    def _dispatch_next(self) -> None:
        when, _, timer = heapq.heappop(self._heap)
        self._now = when
        if not timer.cancelled:
            timer.callback(*timer.args)

    def run_until(
        self,
        predicate: Callable[[], bool] | None = None,
        deadline: int | None = None,
    ) -> bool:
        """Advance until the predicate holds or the deadline/state is exhausted.

        Processes events with fire time <= deadline; if the predicate never
        holds, the clock lands on the deadline (when given) and False comes
        back. With no predicate this simply drains events up to the deadline.
        """
        while True:
            if predicate is not None and predicate():
                return True
            while self._heap and self._heap[0][2].cancelled:
                heapq.heappop(self._heap)
            if not self._heap:
                break
            if deadline is not None and self._heap[0][0] > deadline:
                break
            self._dispatch_next()
        if deadline is not None and deadline > self._now:
            self._now = deadline
        return predicate() if predicate is not None else False

    # Alias so the loop satisfies the client driver interface directly.
    wait_until = run_until

    def pending(self) -> int:
        return sum(1 for _, _, t in self._heap if not t.cancelled)


class Link:
    """Unidirectional frame pipe with a per-link one-way delay distribution.

    Delay = fixed part + uniform jitter drawn from the link's own substream.
    Delivery is FIFO: a frame never overtakes an earlier one (the pipe is a
    byte stream, not a datagram service).
    """

    def __init__(
        self,
        loop: EventLoop,
        deliver: Callable[[bytes], None],
        *,
        delay: int = 0,
        jitter: int = 0,
        rng: random.Random | None = None,
        name: str = "link",
    ):
        if delay < 0 or jitter < 0:
            raise ValueError("delay and jitter must be non-negative")
        self._loop = loop
        self._deliver = deliver
        self.delay = delay
        self.jitter = jitter
        self._rng = rng
        self.name = name
        self._last_delivery = 0
        self._closed = False
        self.frames_sent = 0

    def send(self, frame: bytes) -> None:
        if self._closed:
            raise TransportClosed(f"{self.name} is closed")
        extra = 0
        if self.jitter:
            extra = int(self._rng.random() * self.jitter) if self._rng else 0
        at = self._loop.now() + self.delay + extra
        if at < self._last_delivery:
            at = self._last_delivery
        self._last_delivery = at
        self.frames_sent += 1
        self._loop.call_at(at, self._deliver, frame)

    def close(self) -> None:
        self._closed = True
