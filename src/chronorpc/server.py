"""Managed server for time-triggered operations.

The server admits each rpc against its acceptable scheduling range, queues
accepted future ops until they fall due, runs them through a fixed number of
executor lanes (one by default, so simultaneous due times serialize in
arrival order), applies the builtin operation's effect, and replies at
completion - carrying the completion timestamp when the rpc asked for it.

Builtin operations:

* noop        - does nothing; the canonical probe target
* toast       - adds a configurable duration to the run time (params
                "duration-ns" overrides the server default)
* set-value   - writes params "key"/"value" into the candidate store
* commit      - atomically promotes the candidate store to the running store
* get-value   - reads params "key" from the running store into the reply

Timing is synthetic and drawn per op in a fixed order (wake jitter, run-time
noise, spike coin) from the server's own seeded stream, so whole runs replay
exactly from (seed, scenario). The server is sans-IO: it talks to the world
through a scheduler (now/call_at), a frame-send callable, and on_frame().
"""

from __future__ import annotations

import enum
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
    CancelSchedule,
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
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= self.spike_p <= 1.0:
            raise ValueError("spike_p must be in [0, 1]")
        if self.spike_mult < 1.0:
            raise ValueError("spike_mult must be >= 1")
        if self.load_penalty < 0:
            raise ValueError("load_penalty must be non-negative")
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


@dataclass
class PendingOp:
    message_id: str
    operation: Operation
    scheduled_time: int | None
    get_time: bool
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
    """One managed server bound to a scheduler and an outbound frame sink."""

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
        toast_time: int = DEFAULT_TOAST_TIME,
    ):
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self.server_id = server_id
        self._sched = scheduler
        self._send = send
        self.model = model or ExecutionModel()
        self.range_config = range_config or SchedulingRangeConfig()
        self._rng = rng or random.Random(0)
        self.lanes = lanes
        self.toast_time = toast_time

        self.state = ServerState()
        # ops in completion order: the same objects as in `ops`
        self.log: list[PendingOp] = []
        self.rejected_ids: set[str] = set()
        self.ops: dict[str, PendingOp] = {}
        self.decode_errors = 0

        self._seen_ids: set[str] = set()
        # Targets cancelled before their rpc arrived. The cancel answered
        # unknown-message-id, which the requester takes as a confirmed abort,
        # so the rpc must never run when it does arrive.
        self._cancelled_unseen: set[str] = set()
        self._ready: deque[PendingOp] = deque()
        self._active = 0
        self._last_start: int | None = None

    # -- transport-facing -------------------------------------------------

    def on_frame(self, frame: bytes) -> None:
        try:
            msg = decode(frame)
        except ProtocolError:
            self.decode_errors += 1
            return
        if isinstance(msg, RpcMessage):
            self._handle_rpc(msg)
        elif isinstance(msg, CancelSchedule):
            self._handle_cancel(msg)
        # Replies/notifications are client-bound; a server ignores them.

    def _reply(self, reply: RpcReply) -> None:
        self._send(encode(reply))

    def _notify(self, message_id: str, accepted: bool) -> None:
        self._send(encode(ScheduleNotification(message_id, accepted)))

    # -- admission --------------------------------------------------------

    def _handle_rpc(self, msg: RpcMessage) -> None:
        if msg.message_id in self._seen_ids:
            self._reply(RpcReply.make_error(msg.message_id, ERR_DUPLICATE_MESSAGE_ID))
            return
        self._seen_ids.add(msg.message_id)
        if msg.message_id in self._cancelled_unseen:
            self._reply(RpcReply.make_error(msg.message_id, ERR_CANCELLED))
            return
        if msg.operation.name not in BUILTIN_OPS:
            self._reply(
                RpcReply.make_error(
                    msg.message_id, ERR_UNKNOWN_OPERATION, msg.operation.name
                )
            )
            return

        op = PendingOp(msg.message_id, msg.operation, msg.scheduled_time, msg.get_time)
        if msg.scheduled_time is None:
            self.ops[op.message_id] = op
            self._enqueue_ready(op)
            return

        verdict = validate_schedule(
            msg.scheduled_time, self._sched.now(), self.range_config
        )
        if verdict is Verdict.REJECT:
            self.rejected_ids.add(msg.message_id)
            self._notify(msg.message_id, accepted=False)
            self._reply(
                RpcReply.make_error(
                    msg.message_id,
                    ERR_SCHEDULE_OUT_OF_RANGE,
                    f"scheduled-time {msg.scheduled_time} outside acceptable range",
                )
            )
            return
        self.ops[op.message_id] = op
        if verdict is Verdict.ACCEPT_RUN_NOW:
            self._enqueue_ready(op)
            return
        # Accept: queue until due and acknowledge ahead of the scheduled time.
        self._notify(msg.message_id, accepted=True)
        self._sched.call_at(msg.scheduled_time, self._on_due, op)

    def _handle_cancel(self, msg: CancelSchedule) -> None:
        if msg.message_id in self._seen_ids:
            self._reply(RpcReply.make_error(msg.message_id, ERR_DUPLICATE_MESSAGE_ID))
            return
        self._seen_ids.add(msg.message_id)
        target = self.ops.get(msg.target_id)
        if target is None:
            if msg.target_id not in self._seen_ids:
                self._cancelled_unseen.add(msg.target_id)
            self._reply(
                RpcReply.make_error(msg.message_id, ERR_UNKNOWN_MESSAGE_ID, msg.target_id)
            )
            return
        if target.state is OpState.PENDING:
            # Its timer stays on the heap and fires as a no-op in _on_due.
            target.state = OpState.CANCELLED
            self._reply(RpcReply.make_ok(msg.message_id))
            # Resolve the withdrawn rpc for its requester as well.
            self._reply(RpcReply.make_error(msg.target_id, ERR_CANCELLED))
            return
        if target.state is OpState.CANCELLED:
            self._reply(RpcReply.make_ok(msg.message_id))
            return
        self._reply(
            RpcReply.make_error(msg.message_id, ERR_ALREADY_EXECUTED, msg.target_id)
        )

    # -- executor ---------------------------------------------------------

    def _on_due(self, op: PendingOp) -> None:
        if op.state is OpState.PENDING:
            self._enqueue_ready(op)

    def _enqueue_ready(self, op: PendingOp) -> None:
        self._ready.append(op)
        self._kick()

    def _kick(self) -> None:
        while self._active < self.lanes and self._ready:
            op = self._ready.popleft()
            if op.state is not OpState.PENDING:
                continue
            self._begin(op)

    def _begin(self, op: PendingOp) -> None:
        now = self._sched.now()
        t_start = now + self.model.draw_jitter(self._rng)
        gap = None if self._last_start is None else t_start - self._last_start
        run, op.spiked = self.model.draw_run(self._rng, gap)
        run += self._extra_time(op.operation)
        op.state = OpState.RUNNING
        op.t_start = t_start
        op.t_end = t_start + run
        self._last_start = t_start
        self._active += 1
        self._sched.call_at(op.t_end, self._complete, op)

    def _extra_time(self, operation: Operation) -> int:
        if operation.name != "toast":
            return 0
        raw = operation.params.get("duration-ns")
        if raw is None:
            return self.toast_time
        try:
            return max(0, int(raw))
        except ValueError:
            return self.toast_time

    def _complete(self, op: PendingOp) -> None:
        params, error_code, detail = self._apply(op.operation)
        self.log.append(op)
        op.state = OpState.DONE
        if error_code is not None:
            self._reply(RpcReply.make_error(op.message_id, error_code, detail))
        else:
            self._reply(
                RpcReply.make_ok(
                    op.message_id,
                    execution_time=op.t_end if op.get_time else None,
                    params=params,
                )
            )
        self._active -= 1
        self._kick()

    # -- builtin effects --------------------------------------------------

    def _apply(
        self, operation: Operation
    ) -> tuple[dict[str, str] | None, str | None, str]:
        name = operation.name
        params = operation.params
        if name in ("noop", "toast"):
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
        return {op.message_id for op in self.log}
