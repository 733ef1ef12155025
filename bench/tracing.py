"""Spans around calls into chronorpc's public functions, recorded from outside.

Nothing in the package is traced by itself: `install()` replaces the layer
functions with wrappers that record one span per call. A span is
(id, parent id, name, thread id, start ns, end ns, self ns), where self is
the duration minus the time covered by the span's children. Parents are
tracked per thread, so spans from the live reader and timer threads nest
under their own roots. Spans stay in memory until the benchmark ends.

Several cores bind functions by name (`from .protocol import encode`), so a
function is replaced in every module that holds it, not only where it is
defined; otherwise the cores would keep calling the unwrapped original.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

_clock = time.perf_counter_ns
KEPT_SPANS = 100_000  # raw spans written to the trace file


class Tracer:
    """Collects spans and counters while `enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.totals: defaultdict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_ns": 0, "total_ns": 0, "main_total_ns": 0}
        )
        self.kept: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, original, on_result=None):
        """A wrapper that records a span around each call of `original`."""

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            stack = self._stack()
            # frame: [id, parent id, start, time covered by children]
            frame = [next(self._ids), stack[-1][0] if stack else 0, _clock(), 0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                self.spans.append(
                    (
                        frame[0],
                        frame[1],
                        name,
                        threading.get_ident(),
                        frame[2],
                        end,
                        duration - frame[3],
                    )
                )
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name: str, original):
        """A wrapper that only counts calls of `original`."""

        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def adder(self, name: str, size):
        """An on_result hook that adds size(result) to counter `name`."""

        def add(result) -> None:
            self.counts[name] += size(result)

        return add

    def fold(self) -> None:
        """Add the spans recorded so far to the per-name totals.

        Called between blocks, outside the timed phase, so memory stays
        bounded; the first block's first KEPT_SPANS raw spans are kept for the
        trace file.
        """
        spans, self.spans = self.spans, []
        main = threading.main_thread().ident
        for _, _, name, thread, start, end, self_ns in spans:
            entry = self.totals[name]
            entry["calls"] += 1
            entry["self_ns"] += self_ns
            entry["total_ns"] += end - start
            if thread == main:
                entry["main_total_ns"] += end - start
        if not self.kept:
            self.kept = spans[:KEPT_SPANS]


def _replace(owners, attr: str, make) -> None:
    """Replace `attr` on every owner that holds the same original object."""
    original = getattr(owners[0], attr)
    wrapped = make(original)
    for owner in owners:
        if getattr(owner, attr) is not original:
            raise RuntimeError(f"{owner!r}.{attr} is not the shared original")
        setattr(owner, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each chronorpc layer.

    Must run before any world, server or client is built: the simulated
    links capture bound `on_frame` methods when they are constructed.
    """
    from chronorpc import client, live, prediction, probing, protocol, server, sim
    from chronorpc.harness import runner

    span, counter = tracer.span, tracer.counter
    # protocol: replaced wherever the cores imported the names
    _replace(
        [protocol, server, client],
        "encode",
        lambda f: span("protocol.encode", f, tracer.adder("protocol.bytes", len)),
    )
    _replace([protocol, server, client], "decode", lambda f: span("protocol.decode", f))
    # prediction
    _replace([prediction.PredictorState], "push", lambda f: span("prediction.push", f))
    _replace(
        [prediction.PredictorState], "predict", lambda f: span("prediction.predict", f)
    )
    _replace(
        [prediction, runner],
        "evaluate_stream",
        lambda f: span(
            "prediction.evaluate_stream", f, tracer.adder("prediction.samples", len)
        ),
    )
    # sim: run_until is also bound under the alias wait_until
    _replace([sim.EventLoop], "call_at", lambda f: counter("sim.call_at", f))
    loop_run = span("sim.run_until", sim.EventLoop.run_until)
    sim.EventLoop.run_until = loop_run
    sim.EventLoop.wait_until = loop_run
    _replace([sim.Link], "send", lambda f: span("sim.link_send", f))
    # server: frames in, and the callbacks it hands to its scheduler
    _replace([server.Server], "on_frame", lambda f: span("server.on_frame", f))
    _replace([server.Server], "_on_due", lambda f: span("server.timer_callback", f))
    _replace([server.Server], "_complete", lambda f: span("server.timer_callback", f))
    _replace([server.Server], "_handle_cancel", lambda f: counter("server.cancels", f))
    # client
    _replace([client.Client], "submit", lambda f: span("client.submit", f))
    _replace([client.Client], "submit_cancel", lambda f: span("client.submit", f))
    _replace([client.Client], "on_frame", lambda f: span("client.on_frame", f))
    for name in ("coordinated_operation", "coordinated_snapshot", "atomic_commit"):
        _replace([client.Client], name, lambda f: span("client.coordinator", f))
    # probing and harness
    _replace([probing, runner], "run_probe_plan", lambda f: span("probing.plan", f))
    _replace([runner], "check_world", lambda f: span("harness.check_world", f))
    rows = tracer.adder("harness.csv_rows", lambda text: text.count("\n") - 1)
    _replace([runner.ScenarioResult], "csv_text", lambda f: span("harness.csv_text", f, rows))
    # live
    _replace([live.LiveDriver], "wait_until", lambda f: span("live.wait_until", f))
