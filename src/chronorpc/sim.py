"""Deterministic discrete-event core: virtual clock, timers, in-order links.

Everything in the simulated world shares one EventLoop. Events fire exactly
at their scheduled nanosecond instants; ties break by insertion order; the
clock never moves backward. A scheduled callback cannot be withdrawn: it
always fires, and a caller that changes its mind (the server cancelling a
pending op) makes the callback a no-op instead. All randomness derives from
a root seed through named substreams so adding one more actor never perturbs
the draws of the existing ones.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable

from .protocol import TransportClosed

__all__ = ["EventLoop", "Link", "named_rng"]


def named_rng(seed: int, *names: object) -> random.Random:
    """Independent deterministic substream identified by (seed, names).

    String seeding keeps the derivation stable across processes and
    platforms (unlike hash()-based seeding).
    """
    label = ":".join(str(n) for n in (seed, *names))
    return random.Random(label)


class EventLoop:
    """Virtual-time event loop ordered by (fire time, insertion order)."""

    def __init__(self, start: int = 0):
        self._now = start
        # (fire time, insertion number, callback, args)
        self._heap: list[tuple[int, int, Callable, tuple]] = []
        self._seq = itertools.count()

    def now(self) -> int:
        return self._now

    def call_at(self, when: int, callback: Callable, *args) -> None:
        # A request in the past fires at the current instant; time is monotone.
        when = int(when)
        if when < self._now:
            when = self._now
        heapq.heappush(self._heap, (when, next(self._seq), callback, args))

    def run_until(
        self,
        predicate: Callable[[], bool] | None = None,
        deadline: int | None = None,
    ) -> bool:
        """Advance until the predicate holds or the deadline/state is exhausted.

        Processes events with fire time <= deadline; if the predicate never
        holds, the clock lands on the deadline (when given) and False comes
        back. With no predicate this simply drains events up to the deadline.

        Events are dispatched inline, each reading the heap head once.
        """
        heap = self._heap
        heappop = heapq.heappop
        while predicate is None or not predicate():
            if not heap:
                break
            when, _, callback, args = heap[0]
            if deadline is not None and when > deadline:
                break
            heappop(heap)
            self._now = when
            callback(*args)
        else:
            return True
        if deadline is not None and deadline > self._now:
            self._now = deadline
        return predicate() if predicate is not None else False

    # Alias so the loop satisfies the client driver interface directly.
    wait_until = run_until

    def pending(self) -> int:
        return len(self._heap)


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
        at = self._loop.now() + self.delay
        if self.jitter and self._rng:
            at += int(self._rng.random() * self.jitter)
        if at < self._last_delivery:
            at = self._last_delivery
        self._last_delivery = at
        self.frames_sent += 1
        self._loop.call_at(at, self._deliver, frame)

    def close(self) -> None:
        self._closed = True
