"""Scheduling client for time-triggered remote operations.

The client schedules operations so that they *complete* at a desired time:
it predicts each (server, operation-type) pair's execution offset from the
completion reports of earlier scheduled rpcs, sends the rpc with
scheduled-time = desired - prediction, and feeds the reported completion
back into the predictor. On top of that single-server loop it offers
multi-server coordinators: same-instant operations, consistent snapshots,
and an all-or-nothing scheduled commit that cancels everything if any
participant fails to acknowledge in time.

The client is transport-agnostic. It talks to the world through a driver
object providing now(), call_at(when, fn, *args) and
wait_until(predicate, deadline) - the virtual-time event loop in simulation,
a real-clock waiter for live TCP use - and through one frame-send callable
per connected server. Incoming frames enter via on_frame()/on_message().
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable

from .prediction import (
    ALGORITHMS,
    DEFAULT_WINDOW,
    Prediction,
    PredictorState,
)
from .protocol import (
    ERR_ALREADY_EXECUTED,
    ERR_SCHEDULE_OUT_OF_RANGE,
    ERR_UNKNOWN_MESSAGE_ID,
    MILLIS,
    SECONDS,
    Message,
    Operation,
    ProtocolError,
    RpcMessage,
    RpcReply,
    ScheduleNotification,
    decode,
    encode,
)

__all__ = [
    "ClientError",
    "ScheduleRejected",
    "ReplyTimeout",
    "RpcFailure",
    "CommitWindowTooShort",
    "AbortFailed",
    "CancelResult",
    "ScheduleOutcome",
    "SnapshotEntry",
    "CommitOutcome",
    "PendingCall",
    "Client",
    "operation_type",
    "probe_operation",
    "DEFAULT_REPLY_TIMEOUT",
]

DEFAULT_REPLY_TIMEOUT = 10 * SECONDS
DEFAULT_RTT_BOUND = 50 * MILLIS
DEFAULT_DISPATCH_LEAD = 100 * MILLIS
MIN_COMMIT_MARGIN = 200 * MILLIS


class ClientError(Exception):
    pass


class ScheduleRejected(ClientError):
    """The server refused the scheduled time as outside its acceptable range.

    Raised by resolve() on a `schedule-out-of-range` reply; the server is
    the only judge of its range, so the rpc has always been sent.
    """

    def __init__(self, detail: str = ""):
        super().__init__(detail or "schedule rejected")


class ReplyTimeout(ClientError):
    """No reply arrived within the configured bound."""

    def __init__(self, message_id: str, deadline: int):
        super().__init__(f"no reply for {message_id} by {deadline}")
        self.message_id = message_id
        self.deadline = deadline


class RpcFailure(ClientError):
    """The server answered with an unexpected error reply."""

    def __init__(self, reply: RpcReply):
        super().__init__(f"rpc {reply.message_id} failed: {reply.error_code}")
        self.reply = reply


class CommitWindowTooShort(ClientError):
    """The commit time leaves no room for acknowledgements plus cancellation."""


class AbortFailed(ClientError):
    """A cancellation could not be confirmed before the commit time."""


class CancelResult(enum.Enum):
    CANCELLED = "cancelled"
    ALREADY_EXECUTED = "already-executed"
    UNKNOWN = "unknown"


def operation_type(operation: Operation) -> str:
    """Predictor key for an operation: its declared type, defaulting to its name.

    Probe rpcs tag the type of the operation they stand in for via the
    "rpc-type" param so their samples train the right predictor.
    """
    return operation.params.get("rpc-type", operation.name)


def probe_operation(target_type: str = "noop") -> Operation:
    """A no-op rpc whose samples train target_type's predictor."""
    if target_type == "noop":
        return Operation("noop")
    return Operation("noop", {"rpc-type": target_type})


@dataclass(frozen=True)
class SnapshotEntry:
    value: str
    execution_time: int | None


@dataclass
class CommitOutcome:
    status: str  # "committed" | "aborted"
    commit_time: int
    margin: int
    reason: str = ""
    outcomes: dict[str, object] = field(default_factory=dict)
    accept_times: dict[str, int] = field(default_factory=dict)
    cancel_times: dict[str, int] = field(default_factory=dict)

    @property
    def committed(self) -> bool:
        return self.status == "committed"


@dataclass(slots=True)
class PendingCall:
    """One rpc's client-side record, resolved by on_message().

    Once answered, the call is also the rpc's outcome: the properties below
    read the reply it holds. A call whose `ete` is set is a measured sample;
    an ok reply to a scheduled call pushes that offset to its predictor.
    """

    server_id: str
    message_id: str
    operation: Operation
    scheduled_time: int | None
    get_time: bool
    sent_at: int
    prediction: Prediction | None = None
    desired_completion: int | None = None
    reply: RpcReply | None = None
    reply_at: int | None = None
    notification: ScheduleNotification | None = None
    notification_at: int | None = None
    error: ClientError | None = None

    @property
    def resolved(self) -> bool:
        return self.reply is not None or self.error is not None

    @property
    def acknowledged(self) -> bool:
        """A notification or any reply has arrived."""
        return self.notification is not None or self.resolved

    @property
    def status(self) -> str | None:
        return None if self.reply is None else self.reply.status

    @property
    def ok(self) -> bool:
        return self.reply is not None and self.reply.ok

    @property
    def error_code(self) -> str | None:
        return None if self.reply is None else self.reply.error_code

    @property
    def execution_time(self) -> int | None:
        return None if self.reply is None else self.reply.execution_time

    @property
    def params(self) -> dict[str, str] | None:
        return None if self.reply is None else self.reply.params

    @property
    def ete(self) -> int | None:
        execution_time = self.execution_time
        if execution_time is None or self.scheduled_time is None:
            return None
        return execution_time - self.scheduled_time

    @property
    def prediction_error(self) -> int | None:
        """Absolute gap between the predicted and the measured offset."""
        ete = self.ete
        if ete is None or self.prediction is None:
            return None
        return abs(self.prediction.value - ete)

    @property
    def completion_error(self) -> int | None:
        execution_time = self.execution_time
        if execution_time is None or self.desired_completion is None:
            return None
        return execution_time - self.desired_completion


# The outcome of a scheduled rpc is its resolved call. Kept for
# bench/workloads.py, the last caller of this name; new code uses PendingCall.
ScheduleOutcome = PendingCall


class Client:
    def __init__(
        self,
        driver,
        *,
        algorithm: str = "ft-average",
        window: int = DEFAULT_WINDOW,
        reply_timeout: int = DEFAULT_REPLY_TIMEOUT,
        rtt_bound: int = DEFAULT_RTT_BOUND,
        dispatch_lead: int = DEFAULT_DISPATCH_LEAD,
        lock: threading.RLock | None = None,
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {algorithm!r}")
        self._driver = driver
        self.algorithm = algorithm
        self.window = window
        self.reply_timeout = reply_timeout
        self.rtt_bound = rtt_bound
        self.dispatch_lead = dispatch_lead
        self._lock = lock if lock is not None else threading.RLock()
        self._sends: dict[str, Callable[[bytes], None]] = {}
        self._pending: dict[str, PendingCall] = {}
        self._predictors: dict[tuple[str, str], PredictorState] = {}
        self._mid_counter = 0
        self.unmatched_messages = 0
        self.decode_errors = 0

    # -- wiring -----------------------------------------------------------

    @property
    def driver(self):
        return self._driver

    def now(self) -> int:
        return self._driver.now()

    def connect(self, server_id: str, send: Callable[[bytes], None]) -> None:
        with self._lock:
            self._sends[server_id] = send

    def _send_to(self, server_id: str) -> Callable[[bytes], None]:
        try:
            return self._sends[server_id]
        except KeyError:
            raise ValueError(f"not connected to {server_id!r}") from None

    # -- predictors -------------------------------------------------------

    def predictor(self, server_id: str, rpc_type: str = "noop") -> PredictorState:
        key = (server_id, rpc_type)
        with self._lock:
            state = self._predictors.get(key)
            if state is None:
                state = PredictorState(self.window)
                self._predictors[key] = state
            return state

    def reset_predictor(self, server_id: str, rpc_type: str) -> None:
        """Forget the pair's samples: its next use starts a fresh window."""
        with self._lock:
            self._predictors.pop((server_id, rpc_type), None)

    # -- inbound ----------------------------------------------------------

    def on_frame(self, frame: bytes) -> None:
        try:
            msg = decode(frame)
        except ProtocolError:
            self.decode_errors += 1
            return
        self.on_message(msg)

    def on_message(self, msg: Message) -> None:
        with self._lock:
            now = self._driver.now()
            if isinstance(msg, RpcReply):
                call = self._pending.pop(msg.message_id, None)
                if call is None:
                    self.unmatched_messages += 1
                    return
                call.reply = msg
                call.reply_at = now
                if (
                    msg.ok
                    and msg.execution_time is not None
                    and call.scheduled_time is not None
                ):
                    key = (call.server_id, operation_type(call.operation))
                    state = self._predictors.get(key)
                    if state is None:
                        state = self.predictor(*key)
                    state.push(msg.execution_time - call.scheduled_time)
            elif isinstance(msg, ScheduleNotification):
                call = self._pending.get(msg.message_id)
                if call is None:
                    self.unmatched_messages += 1
                    return
                call.notification = msg
                call.notification_at = now
            else:
                self.unmatched_messages += 1

    # -- submission primitives -------------------------------------------

    def _next_mid(self) -> str:
        self._mid_counter += 1
        return f"m{self._mid_counter}"

    def submit(
        self,
        server_id: str,
        operation: Operation,
        scheduled_time: int | None = None,
        *,
        get_time: bool = False,
        prediction: Prediction | None = None,
        desired_completion: int | None = None,
    ) -> PendingCall:
        """Send one rpc without waiting; the returned call resolves later."""
        send = self._send_to(server_id)
        with self._lock:
            now = self._driver.now()
            mid = self._next_mid()
            # Encoded before it is registered: a message that cannot be sent
            # leaves no call pending.
            frame = encode(RpcMessage(mid, operation, scheduled_time, get_time))
            call = PendingCall(
                server_id,
                mid,
                operation,
                scheduled_time,
                get_time,
                now,
                prediction,
                desired_completion,
            )
            self._send(send, call, frame)
        return call

    def submit_cancel(self, server_id: str, target_id: str) -> PendingCall:
        """Send a cancel-schedule rpc withdrawing the rpc target_id."""
        if not target_id:
            raise ValueError("target-id must be a non-empty string")
        operation = Operation("cancel-schedule", {"target-id": target_id})
        return self.submit(server_id, operation)

    def _send(
        self, send: Callable[[bytes], None], call: PendingCall, frame: bytes
    ) -> None:
        # Registered before the send, so a transport that delivers
        # synchronously still finds the call; a send that raises leaves
        # nothing pending.
        self._pending[call.message_id] = call
        try:
            send(frame)
        except BaseException:
            self._pending.pop(call.message_id, None)
            raise

    def wait(self, calls: Iterable[PendingCall], deadline: int) -> bool:
        return self._wait_all(calls, "resolved", deadline)

    def _wait_all(self, calls: Iterable[PendingCall], state: str, deadline: int) -> bool:
        """Wait until every call's `state` property holds (it never reverts)."""
        left = list(calls)
        reached = attrgetter(state)

        def done() -> bool:
            # Each call is popped once it reaches the state, so no event re-scans it.
            while left and reached(left[-1]):
                left.pop()
            return not left

        return self._driver.wait_until(done, deadline)

    def _reply_deadline(self, call: PendingCall) -> int:
        base = call.sent_at
        if call.scheduled_time is not None and call.scheduled_time > base:
            base = call.scheduled_time
        return base + self.reply_timeout

    def resolve(self, call: PendingCall) -> PendingCall:
        """Check a waited-on call and return it as its own outcome.

        Raises ReplyTimeout when no reply arrived, ScheduleRejected when the
        server refused the time as out of range; every other error reply is
        returned as a non-ok call for the caller to inspect.
        """
        reply = self._reply_or_timeout(call)
        if not reply.ok and reply.error_code == ERR_SCHEDULE_OUT_OF_RANGE:
            raise ScheduleRejected(reply.error_detail)
        return call

    def _reply_or_timeout(self, call: PendingCall) -> RpcReply:
        """The call's reply; without one the call times out and leaves _pending.

        A reply that arrives after the timeout then counts as unmatched.
        """
        with self._lock:
            if call.error is None and call.reply is None:
                call.error = ReplyTimeout(call.message_id, self._driver.now())
                self._pending.pop(call.message_id, None)
        if call.error is not None:
            raise call.error
        return call.reply

    def resolve_soft(self, call: PendingCall) -> PendingCall | ClientError:
        try:
            return self.resolve(call)
        except ClientError as exc:
            return exc

    # -- single-server operations ----------------------------------------

    def schedule_raw(
        self,
        server_id: str,
        operation: Operation,
        scheduled_time: int | None = None,
        *,
        get_time: bool = True,
    ) -> PendingCall:
        """Schedule at an explicit time (or immediately) and wait for the reply."""
        call = self.submit(server_id, operation, scheduled_time, get_time=get_time)
        self.wait([call], self._reply_deadline(call))
        return self.resolve(call)

    def submit_at_completion(
        self,
        server_id: str,
        operation: Operation,
        desired_completion: int,
    ) -> PendingCall:
        """Send one completion-targeted rpc without waiting for its reply."""
        key = (server_id, operation_type(operation))
        state = self._predictors.get(key)
        if state is None:
            state = self.predictor(*key)
        prediction = state.predict(self.algorithm)
        scheduled_time = desired_completion - prediction.value
        return self.submit(
            server_id,
            operation,
            scheduled_time,
            get_time=True,
            prediction=prediction,
            desired_completion=desired_completion,
        )

    def schedule_at_completion(
        self,
        server_id: str,
        operation: Operation,
        desired_completion: int,
    ) -> PendingCall:
        """Schedule so the operation is expected to finish at desired_completion.

        Sends scheduled-time = desired - predicted offset with get-time set,
        and feeds the reported completion back into the predictor. Raises
        ScheduleRejected when the server refuses the computed time as
        outside its acceptable range.
        """
        call = self.submit_at_completion(server_id, operation, desired_completion)
        self.wait([call], self._reply_deadline(call))
        return self.resolve(call)

    def cancel(self, server_id: str, target_id: str) -> CancelResult:
        """Withdraw a previously scheduled rpc by its message id."""
        call = self.submit_cancel(server_id, target_id)
        self.wait([call], self._reply_deadline(call))
        reply = self._reply_or_timeout(call)
        if reply.ok:
            return CancelResult.CANCELLED
        if reply.error_code == ERR_ALREADY_EXECUTED:
            return CancelResult.ALREADY_EXECUTED
        if reply.error_code == ERR_UNKNOWN_MESSAGE_ID:
            return CancelResult.UNKNOWN
        raise RpcFailure(reply)

    # -- coordinators -----------------------------------------------------

    def coordinated_operation(
        self,
        server_ids: Iterable[str],
        operation: Operation,
        at: int,
        *,
        align_completion: bool = False,
    ) -> dict[str, PendingCall | ClientError]:
        """Schedule the same operation on every server for the same instant.

        By default all servers *start* at `at`; with align_completion each
        call goes through submit_at_completion, so completions line up
        instead. A server named more than once gets one rpc, and the result
        map keys each server once, in first-seen order. Per-server failures
        come back in the result map rather than aborting the rest.
        """
        calls: dict[str, PendingCall] = {}
        for server_id in dict.fromkeys(server_ids):
            if align_completion:
                calls[server_id] = self.submit_at_completion(server_id, operation, at)
            else:
                calls[server_id] = self.submit(server_id, operation, at, get_time=True)
        self.wait(calls.values(), at + self.reply_timeout)
        return {sid: self.resolve_soft(call) for sid, call in calls.items()}

    def coordinated_snapshot(
        self,
        server_ids: Iterable[str],
        key: str,
        at: int,
    ) -> dict[str, SnapshotEntry | ClientError]:
        """Read the same key on every server at the same scheduled instant."""
        results = self.coordinated_operation(
            server_ids,
            Operation("get-value", {"key": key}),
            at,
        )
        snap: dict[str, SnapshotEntry | ClientError] = {}
        for server_id, item in results.items():
            if isinstance(item, ClientError):
                snap[server_id] = item
            elif not item.ok:
                snap[server_id] = RpcFailure(item.reply)
            else:
                value = (item.params or {}).get("value", "")
                snap[server_id] = SnapshotEntry(value, item.execution_time)
        return snap

    def atomic_commit(
        self,
        server_ids: Iterable[str],
        commit_time: int,
    ) -> CommitOutcome:
        """All-or-nothing commit scheduled for the same instant everywhere.

        Every participant must acknowledge acceptance before
        commit_time - margin; otherwise the client cancels every participant
        that did not already reject, and those cancellations must all be
        confirmed before the commit time (else AbortFailed). A server named
        more than once takes part once, in first-seen order.
        """
        server_ids = list(dict.fromkeys(server_ids))
        margin = max(2 * self.rtt_bound, MIN_COMMIT_MARGIN)
        now = self._driver.now()
        if commit_time - now <= self.rtt_bound + margin:
            raise CommitWindowTooShort(
                f"commit at {commit_time} leaves {commit_time - now} ns, "
                f"need more than {self.rtt_bound + margin} ns"
            )
        result = CommitOutcome("committed", commit_time, margin)
        if not server_ids:
            return result

        calls = {
            server_id: self.submit(
                server_id, Operation("commit"), commit_time, get_time=True
            )
            for server_id in server_ids
        }
        self._wait_all(calls.values(), "acknowledged", commit_time - margin)
        rejected = {
            sid
            for sid, c in calls.items()
            if (c.notification is not None and not c.notification.accepted)
            or (c.reply is not None and not c.reply.ok)
        }
        unacked = {sid for sid, c in calls.items() if not c.acknowledged}
        result.accept_times = {
            sid: c.notification_at
            for sid, c in calls.items()
            if c.notification is not None and c.notification.accepted
        }

        if not rejected and not unacked:
            self.wait(calls.values(), commit_time + self.reply_timeout)
            result.outcomes = {
                sid: self.resolve_soft(c) for sid, c in calls.items()
            }
            return result

        # Abort: withdraw everything that has not already been refused.
        reasons = []
        if rejected:
            reasons.append(f"rejected: {', '.join(sorted(rejected))}")
        if unacked:
            reasons.append(f"unacknowledged: {', '.join(sorted(unacked))}")
        result.status = "aborted"
        result.reason = "; ".join(reasons)

        cancel_calls: dict[str, PendingCall] = {}
        for server_id, call in calls.items():
            if server_id in rejected:
                continue
            cancel_calls[server_id] = self.submit_cancel(server_id, call.message_id)
        self.wait(
            list(calls.values()) + list(cancel_calls.values()), commit_time
        )

        problems = []
        for server_id, cancel_call in cancel_calls.items():
            reply = cancel_call.reply
            if reply is not None and reply.error_code == ERR_ALREADY_EXECUTED:
                problems.append(f"{server_id}: commit already executed")
                continue
            confirmed = (
                reply is not None
                and (reply.ok or reply.error_code == ERR_UNKNOWN_MESSAGE_ID)
                and cancel_call.reply_at is not None
                and cancel_call.reply_at < commit_time
            )
            if not confirmed:
                problems.append(f"{server_id}: cancel unconfirmed before commit time")
                continue
            result.cancel_times[server_id] = cancel_call.reply_at
        if problems:
            raise AbortFailed("; ".join(problems))

        result.outcomes = {sid: self.resolve_soft(c) for sid, c in calls.items()}
        return result
