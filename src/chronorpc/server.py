"""Managed server for time-triggered operations.

The server admits each rpc against its acceptable scheduling range, queues
accepted future ops until they fall due, runs them through a fixed number of
executor lanes (one by default, so simultaneous due times serialize in
arrival order), applies the builtin operation's effect, and replies at
completion - carrying the completion timestamp when the rpc asked for it.

Builtin operations:

* noop        - does nothing; the canonical probe target
* toast       - holds its lane for 100 ms on top of the run time; params
                "duration-ns", plain ASCII decimal digits, sets the hold in
                ns instead. Any other duration-ns adds no hold, and the op
                answers invalid-params at completion
* set-value   - writes params "key"/"value" into the candidate store
* commit      - atomically promotes the candidate store to the running store
* get-value   - reads params "key" from the running store into the reply

and one that acts on arrival and never enters the op table or the log:

* cancel-schedule - withdraws its own session's pending rpc whose
                message-id is params "target-id"; one with no target-id or
                with a scheduled-time answers invalid-params

Rpcs arrive on a session, as NETCONF's do: a message-id is unique only
within its session, and each session has its own reply sink. An op replies
through the sink of the session it arrived on, whichever session is current
when it completes.

Timing is synthetic and drawn per op in a fixed order (wake jitter, run-time
noise, spike coin) from the server's own seeded stream, so whole runs replay
exactly from (seed, scenario). The server is sans-IO: it talks to the world
through a scheduler (now/call_at), each session's frame-send callable, and
on_frame().
"""

from __future__ import annotations

import enum
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .protocol import (
    ERR_ALREADY_EXECUTED,
    ERR_CANCELLED,
    ERR_DUPLICATE_MESSAGE_ID,
    ERR_INVALID_PARAMS,
    ERR_SCHEDULE_OUT_OF_RANGE,
    ERR_UNKNOWN_KEY,
    ERR_UNKNOWN_MESSAGE_ID,
    ERR_UNKNOWN_OPERATION,
    MILLIS,
    Operation,
    ProtocolError,
    RpcMessage,
    RpcReply,
    ScheduleNotification,
    SchedulingRangeConfig,
    Verdict,
    decode,
    encode,
    validate_schedule,
)

__all__ = [
    "BUILTIN_OPS",
    "ExecutionModel",
    "OpState",
    "PendingOp",
    "ServerState",
    "Server",
]

BUILTIN_OPS = ("noop", "toast", "set-value", "get-value", "commit")

DEFAULT_TOAST_TIME = 100 * MILLIS


def _toast_hold(params: dict[str, str]) -> int | None:
    """A toast's hold in ns, or None when duration-ns is malformed."""
    raw = params.get("duration-ns")
    if raw is None:
        return DEFAULT_TOAST_TIME
    if raw.isascii() and raw.isdigit():
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    return None


@dataclass(frozen=True)
class ExecutionModel:
    """Synthetic per-op timing.

    An op that becomes runnable at t starts at t + jitter (wake jitter,
    uniform on [0, jitter)) and runs for max(0, base + Gaussian(sigma))
    nanoseconds, multiplied by spike_mult when the per-op Bernoulli(spike_p)
    spike fires. With load_recovery > 0, ops started less than that gap after
    the previous start see the base scaled up by up to load_penalty
    (linearly vanishing as the gap approaches load_recovery), which makes
    mean run time a decreasing-then-flat function of probe spacing.
    """

    base: int = 30 * MILLIS
    sigma: float = 0.0
    jitter: int = 0
    spike_p: float = 0.0
    spike_mult: float = 1.0
    load_penalty: float = 0.0
    load_recovery: int = 0

    def __post_init__(self):
        if self.base < 0:
            raise ValueError("base must be non-negative")
        if not (0.0 <= self.sigma < math.inf):
            raise ValueError("sigma must be finite and non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= self.spike_p <= 1.0:
            raise ValueError("spike_p must be in [0, 1]")
        if not (1.0 <= self.spike_mult < math.inf):
            raise ValueError("spike_mult must be finite and >= 1")
        if not (0.0 <= self.load_penalty < math.inf):
            raise ValueError("load_penalty must be finite and non-negative")
        if self.load_recovery < 0:
            raise ValueError("load_recovery must be non-negative")

    def draw_jitter(self, rng: random.Random) -> int:
        draw = rng.random()  # always consumed, keeps the stream aligned
        return int(draw * self.jitter)

    def effective_base(self, gap: int | None) -> float:
        if self.load_recovery <= 0 or gap is None or gap >= self.load_recovery:
            return float(self.base)
        shortfall = 1.0 - gap / self.load_recovery
        return self.base * (1.0 + self.load_penalty * shortfall)

    def draw_run(self, rng: random.Random, gap: int | None) -> tuple[int, bool]:
        noise = rng.gauss(0.0, self.sigma)
        spiked = rng.random() < self.spike_p
        run = max(0.0, self.effective_base(gap) + noise)
        if spiked:
            run *= self.spike_mult
        return int(round(run)), spiked


class OpState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"


# Read on every rpc. On Python 3.11 reading an Enum member off its class
# costs several times a module global, so each is bound once here.
_PENDING = OpState.PENDING
_RUNNING = OpState.RUNNING
_DONE = OpState.DONE
_CANCELLED = OpState.CANCELLED
_REJECT = Verdict.REJECT
_ACCEPT_RUN_NOW = Verdict.ACCEPT_RUN_NOW


@dataclass(slots=True)
class PendingOp:
    message_id: str
    operation: Operation
    scheduled_time: int | None
    get_time: bool
    reply_to: Callable[[bytes], None]  # its session's sink
    state: OpState = OpState.PENDING
    t_start: int | None = None
    t_end: int | None = None
    spiked: bool = False


@dataclass
class ServerState:
    """Candidate/running key-value stores manipulated by the builtins."""

    running: dict[str, str] = field(default_factory=dict)
    candidate: dict[str, str] = field(default_factory=dict)


class Server:
    """One managed server bound to a scheduler, serving one session at a time.

    `send` opens the first session, and open_session() starts each later
    one. Frames reach the latest session. Each session has its own
    message-id namespace, op table (`ops`), `rejected_ids` and reply sink;
    the store, the executor lanes, the rng, `log` and `decode_errors` are
    the device's and are shared by every session. An op whose session has
    ended is not withdrawn: it runs when due and replies on its own
    session's sink, never on a later session's.
    """

    def __init__(
        self,
        server_id: str,
        *,
        scheduler,
        send: Callable[[bytes], None],
        model: ExecutionModel | None = None,
        range_config: SchedulingRangeConfig | None = None,
        rng: random.Random | None = None,
        lanes: int = 1,
    ):
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self.server_id = server_id
        self._sched = scheduler
        self.model = model or ExecutionModel()
        self.range_config = range_config or SchedulingRangeConfig()
        self._rng = rng or random.Random(0)
        self.lanes = lanes

        self.state = ServerState()
        # ops of every session in completion order: the same objects as in
        # each session's `ops`
        self.log: list[PendingOp] = []
        self.decode_errors = 0
        self._ready: deque[PendingOp] = deque()
        self._active = 0
        self._last_start: int | None = None
        self.open_session(send)

    def open_session(self, send: Callable[[bytes], None]) -> None:
        """Start a session whose replies go to `send`; later frames arrive on it.

        Its message ids, ops and rejected ids start empty. Ops of earlier
        sessions keep running and reply on their own sinks.
        """
        self._send = send
        self.ops: dict[str, PendingOp] = {}
        self.rejected_ids: set[str] = set()
        self._seen_ids: set[str] = set()
        # Targets cancelled before their rpc arrived. The cancel answered
        # unknown-message-id, which the requester takes as a confirmed abort,
        # so the rpc must never run when it does arrive. Its entry goes once
        # the rpc is refused; _seen_ids then answers any repeat.
        self._cancelled_unseen: set[str] = set()

    # -- transport-facing -------------------------------------------------

    def on_frame(self, frame: bytes) -> None:
        try:
            msg = decode(frame)
        except ProtocolError:
            self.decode_errors += 1
            return
        if isinstance(msg, RpcMessage):
            self._handle_rpc(msg)
        # Replies/notifications are client-bound; a server ignores them.

    def _reply(self, reply: RpcReply) -> None:
        self._send(encode(reply))

    # -- admission --------------------------------------------------------

    def _handle_rpc(self, msg: RpcMessage) -> None:
        mid = msg.message_id
        if mid in self._seen_ids:
            self._reply(RpcReply.make_error(mid, ERR_DUPLICATE_MESSAGE_ID))
            return
        self._seen_ids.add(mid)
        if mid in self._cancelled_unseen:
            self._cancelled_unseen.discard(mid)
            self._reply(RpcReply.make_error(mid, ERR_CANCELLED))
            return
        operation = msg.operation
        if operation.name not in BUILTIN_OPS:
            if operation.name == "cancel-schedule":
                self._handle_cancel(msg)
                return
            self._reply(RpcReply.make_error(mid, ERR_UNKNOWN_OPERATION, operation.name))
            return

        scheduled_time = msg.scheduled_time
        op = PendingOp(mid, operation, scheduled_time, msg.get_time, self._send)
        if scheduled_time is None:
            self.ops[mid] = op
            self._enqueue_ready(op)
            return

        verdict = validate_schedule(scheduled_time, self._sched.now(), self.range_config)
        if verdict is _REJECT:
            self.rejected_ids.add(mid)
            self._send(encode(ScheduleNotification(mid, False)))
            self._reply(
                RpcReply.make_error(
                    mid,
                    ERR_SCHEDULE_OUT_OF_RANGE,
                    f"scheduled-time {scheduled_time} outside acceptable range",
                )
            )
            return
        self.ops[mid] = op
        if verdict is _ACCEPT_RUN_NOW:
            self._enqueue_ready(op)
            return
        # Accept: queue until due and acknowledge ahead of the scheduled time.
        self._send(encode(ScheduleNotification(mid, True)))
        self._sched.call_at(scheduled_time, self._on_due, op)

    def _handle_cancel(self, msg: RpcMessage) -> None:
        # Admitted by _handle_rpc, which has already used up its id.
        mid = msg.message_id
        target_id = msg.operation.params.get("target-id")
        if not target_id or msg.scheduled_time is not None:
            detail = "cancel-schedule needs target-id and no scheduled-time"
            self._reply(RpcReply.make_error(mid, ERR_INVALID_PARAMS, detail))
            return
        target = self.ops.get(target_id)
        if target is None:
            if target_id not in self._seen_ids:
                self._cancelled_unseen.add(target_id)
            self._reply(RpcReply.make_error(mid, ERR_UNKNOWN_MESSAGE_ID, target_id))
            return
        if target.state is _PENDING:
            # Its heap entry stays and fires as a no-op in _on_due.
            target.state = _CANCELLED
            self._reply(RpcReply.make_ok(mid))
            # Resolve the withdrawn rpc for its requester as well.
            self._reply(RpcReply.make_error(target_id, ERR_CANCELLED))
            return
        if target.state is _CANCELLED:
            self._reply(RpcReply.make_ok(mid))
            return
        self._reply(RpcReply.make_error(mid, ERR_ALREADY_EXECUTED, target_id))

    # -- executor ---------------------------------------------------------

    def _on_due(self, op: PendingOp) -> None:
        if op.state is _PENDING:
            self._enqueue_ready(op)

    def _enqueue_ready(self, op: PendingOp) -> None:
        self._ready.append(op)
        self._kick()

    def _kick(self) -> None:
        while self._active < self.lanes and self._ready:
            op = self._ready.popleft()
            if op.state is not _PENDING:
                continue
            self._begin(op)

    def _begin(self, op: PendingOp) -> None:
        now = self._sched.now()
        t_start = now + self.model.draw_jitter(self._rng)
        gap = None if self._last_start is None else t_start - self._last_start
        run, op.spiked = self.model.draw_run(self._rng, gap)
        run += self._extra_time(op.operation)
        op.state = _RUNNING
        op.t_start = t_start
        op.t_end = t_start + run
        self._last_start = t_start
        self._active += 1
        self._sched.call_at(op.t_end, self._complete, op)

    def _extra_time(self, operation: Operation) -> int:
        if operation.name != "toast":
            return 0
        return _toast_hold(operation.params) or 0

    def _complete(self, op: PendingOp) -> None:
        params, error_code, detail = self._apply(op.operation)
        self.log.append(op)
        op.state = _DONE
        if error_code is not None:
            op.reply_to(encode(RpcReply.make_error(op.message_id, error_code, detail)))
        else:
            execution_time = op.t_end if op.get_time else None
            op.reply_to(
                encode(RpcReply(op.message_id, "ok", None, "", execution_time, params))
            )
        self._active -= 1
        self._kick()

    # -- builtin effects --------------------------------------------------

    def _apply(
        self, operation: Operation
    ) -> tuple[dict[str, str] | None, str | None, str]:
        name = operation.name
        params = operation.params
        if name == "noop":
            return None, None, ""
        if name == "toast":
            if _toast_hold(params) is None:
                return None, ERR_INVALID_PARAMS, "toast duration-ns must be decimal digits"
            return None, None, ""
        if name == "set-value":
            if "key" not in params or "value" not in params:
                return None, ERR_INVALID_PARAMS, "set-value needs key and value"
            self.state.candidate[params["key"]] = params["value"]
            return None, None, ""
        if name == "commit":
            self.state.running = dict(self.state.candidate)
            return None, None, ""
        if name == "get-value":
            if "key" not in params:
                return None, ERR_INVALID_PARAMS, "get-value needs key"
            key = params["key"]
            if key not in self.state.running:
                return None, ERR_UNKNOWN_KEY, key
            return {"value": self.state.running[key]}, None, ""
        raise AssertionError(f"unhandled builtin {name!r}")

    # -- introspection ----------------------------------------------------

    def executed_ids(self) -> set[str]:
        """The message ids of every op that ran, in any session.

        Ids are unique only per session, so with more than one session the
        set can hold fewer ids than `log` holds ops.
        """
        return {op.message_id for op in self.log}
