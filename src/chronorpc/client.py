"""Scheduling client for time-triggered remote operations.

The client schedules operations so that they *complete* at a desired time:
it predicts each (server, operation-type) pair's execution offset from the
completion reports of earlier scheduled rpcs, sends the rpc with
scheduled-time = desired - prediction, and feeds the reported completion
back into the predictor. On top of that single-server loop it offers
multi-server coordinators: same-instant operations, consistent snapshots,
and an all-or-nothing scheduled commit that cancels everything if any
participant fails to acknowledge in time.

Every operation's outcome is its resolved PendingCall: a scheduled rpc, a
cancel and each coordinator entry all read the server's reply off the call,
and an error reply, a refused scheduled time included, is a non-ok call. A
scheduled call's `notification_at` is when the server's acceptance arrived;
a refused call has none, only its error reply.
A call without a reply holds the error that ended it: a failed send's or a
dropped link's TransportClosed or OSError, or ReplyTimeout from a wait
whose deadline came first; a wait ends every call it waits on. submit()
raises only for an unconnected server or a message that cannot be encoded.

The client is transport-agnostic. It talks to the world through a driver
object providing now(), wait_until(predicate, deadline) and the `lock`
that serializes the client with its driver's waits - the virtual-time
event loop in simulation, a real-clock waiter for live TCP use - and
through one frame-send callable per connected server. Neither the client
nor a probe plan sets a timer on the driver; the server core is the one
that schedules. The client takes that lock itself at each entry point
that touches its state, so incoming frames enter bare via on_frame() from
any thread.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable, Iterable

from .prediction import (
    ALGORITHMS,
    DEFAULT_WINDOW,
    Prediction,
    PredictorState,
    check_window,
)
from .protocol import (
    ERR_ALREADY_EXECUTED,
    ERR_UNKNOWN_MESSAGE_ID,
    MILLIS,
    SECONDS,
    Operation,
    ProtocolError,
    RpcMessage,
    RpcReply,
    ScheduleNotification,
    TransportClosed,
    decode,
    encode,
)

__all__ = [
    "ClientError",
    "ReplyTimeout",
    "CommitWindowTooShort",
    "AbortFailed",
    "ScheduleOutcome",
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


class ReplyTimeout(ClientError):
    """No reply arrived within the configured bound."""

    def __init__(self, message_id: str, deadline: int):
        super().__init__(f"no reply for {message_id} by {deadline}")
        self.message_id = message_id
        self.deadline = deadline


class CommitWindowTooShort(ClientError):
    """The commit time leaves no room for acknowledgements plus cancellation."""


class AbortFailed(ClientError):
    """A cancellation could not be confirmed before the commit time."""


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


@dataclass
class CommitOutcome:
    status: str  # "committed" | "aborted"
    commit_time: int
    margin: int
    reason: str = ""
    outcomes: dict[str, PendingCall] = field(default_factory=dict)
    accept_times: dict[str, int] = field(default_factory=dict)
    cancel_times: dict[str, int] = field(default_factory=dict)

    @property
    def committed(self) -> bool:
        return self.status == "committed"


@dataclass(slots=True)
class PendingCall:
    """One rpc's client-side record, resolved by on_frame().

    Once answered, the call is also the rpc's outcome: the properties below
    read the reply it holds. A call whose `ete` is set is a measured sample;
    an ok reply to a scheduled call pushes that offset to its predictor.
    A call resolved without a reply holds its `error` instead.
    `notification_at` is set when the server's acceptance notification
    arrives, and only then: a refusal is an error reply alone.
    """

    server_id: str
    message_id: str
    operation: Operation
    scheduled_time: int | None
    sent_at: int
    prediction: Prediction | None = None
    desired_completion: int | None = None
    reply: RpcReply | None = None
    reply_at: int | None = None
    notification_at: int | None = None
    error: Exception | None = None

    @property
    def resolved(self) -> bool:
        return self.reply is not None or self.error is not None

    @property
    def acknowledged(self) -> bool:
        """The server's acceptance or any reply has arrived, or the call failed."""
        return self.notification_at is not None or self.resolved

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
    def value(self) -> str | None:
        """The value a get-value read; None for any other reply."""
        params = self.params
        return None if params is None else params.get("value")

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
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {algorithm!r}")
        check_window(window)
        self.driver = driver
        self.algorithm = algorithm
        self.window = window
        self.reply_timeout = reply_timeout
        self.rtt_bound = rtt_bound
        self.dispatch_lead = dispatch_lead
        self._lock = driver.lock
        self._sends: dict[str, Callable[[bytes], None]] = {}
        self._pending: dict[str, PendingCall] = {}
        self._predictors: defaultdict[tuple[str, str], PredictorState] = defaultdict(
            partial(PredictorState, window)
        )
        self._mid_counter = 0
        self.unmatched_messages = 0
        self.decode_errors = 0

    # -- wiring -----------------------------------------------------------

    def now(self) -> int:
        return self.driver.now()

    def connect(self, server_id: str, send: Callable[[bytes], None]) -> None:
        with self._lock:
            self._sends[server_id] = send

    def disconnect(self, server_id: str) -> None:
        """The link to server_id is gone: its calls fail with TransportClosed.

        Every call pending on it resolves now, and so does every later one:
        the id stays connected, but its sends fail. Raises ValueError for
        an id that was never connected.
        """

        def closed(frame: bytes) -> None:
            raise TransportClosed(f"link to {server_id!r} is closed")

        with self._lock:
            self._send_to(server_id)  # refuses an id never connected
            self._sends[server_id] = closed
            for call in [c for c in self._pending.values() if c.server_id == server_id]:
                del self._pending[call.message_id]
                call.error = TransportClosed(f"link to {server_id!r} is closed")

    def _send_to(self, server_id: str) -> Callable[[bytes], None]:
        try:
            return self._sends[server_id]
        except KeyError:
            raise ValueError(f"not connected to {server_id!r}") from None

    # -- predictors -------------------------------------------------------

    def predictor(self, server_id: str, rpc_type: str = "noop") -> PredictorState:
        with self._lock:
            return self._predictors[server_id, rpc_type]

    def reset_predictor(self, server_id: str, rpc_type: str) -> None:
        """Forget the pair's samples: its next use starts a fresh window."""
        with self._lock:
            self._predictors.pop((server_id, rpc_type), None)

    # -- inbound ----------------------------------------------------------

    def on_frame(self, frame: bytes) -> None:
        try:
            msg = decode(frame)
        except ProtocolError:
            msg = None
        with self._lock:
            now = self.driver.now()
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
                    self._predictors[key].push(msg.execution_time - call.scheduled_time)
            elif isinstance(msg, ScheduleNotification):
                call = self._pending.get(msg.message_id)
                if call is None:
                    self.unmatched_messages += 1
                    return
                call.notification_at = now
            elif msg is None:
                self.decode_errors += 1
            else:
                self.unmatched_messages += 1

    # -- submission primitives -------------------------------------------

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
        """Send one rpc without waiting; the returned call resolves later,
        or at once with the transport's error when the send fails. Raises
        only for an unconnected server or a message that cannot be encoded.
        """
        with self._lock:
            send = self._send_to(server_id)
            self._mid_counter += 1
            mid = f"m{self._mid_counter}"
            # Encoded before it is registered: a message that cannot be sent
            # leaves no call pending.
            frame = encode(RpcMessage(mid, operation, scheduled_time, get_time))
            call = PendingCall(
                server_id,
                mid,
                operation,
                scheduled_time,
                self.driver.now(),
                prediction,
                desired_completion,
            )
            # Registered before the send, so a transport that delivers
            # synchronously still finds the call; a send that fails leaves
            # nothing pending.
            self._pending[mid] = call
            try:
                send(frame)
            except BaseException as exc:
                self._pending.pop(mid, None)
                if not isinstance(exc, (TransportClosed, OSError)):
                    raise
                call.error = exc
        return call

    def submit_cancel(self, server_id: str, target_id: str) -> PendingCall:
        """Send a cancel-schedule rpc withdrawing the rpc target_id."""
        if not target_id:
            raise ValueError("target-id must be a non-empty string")
        operation = Operation("cancel-schedule", {"target-id": target_id})
        return self.submit(server_id, operation)

    def wait(self, calls: Iterable[PendingCall], deadline: int) -> bool:
        """Wait until every call resolves; the wait ends each call it waited on.

        A call still unanswered at the deadline fails with ReplyTimeout and
        leaves the pending map, so a late reply to it is unmatched. Returns
        whether every call was answered or failed before the deadline.
        """
        left = self._wait_all(calls, "resolved", deadline)
        if not left:
            return True
        with self._lock:
            late = [call for call in left if not call.resolved]
            for call in late:
                call.error = ReplyTimeout(call.message_id, deadline)
                self._pending.pop(call.message_id, None)
        return not late

    def _wait_all(
        self, calls: Iterable[PendingCall], state: str, deadline: int
    ) -> list[PendingCall]:
        """Wait until every call's `state` property holds (it never reverts).

        Returns the calls not yet checked when the wait ended, empty when
        every call reached the state.
        """
        left = list(calls)
        reached = attrgetter(state)

        def done() -> bool:
            # Each call is popped once it reaches the state, so no event re-scans it.
            while left and reached(left[-1]):
                left.pop()
            return not left

        self.driver.wait_until(done, deadline)
        return left

    def _reply_deadline(self, call: PendingCall) -> int:
        base = call.sent_at
        if call.scheduled_time is not None and call.scheduled_time > base:
            base = call.scheduled_time
        return base + self.reply_timeout

    def resolve(self, call: PendingCall) -> PendingCall:
        """Return the call as its own outcome once it has resolved.

        An unresolved call is waited on until its reply deadline. Raises the
        call's error (ReplyTimeout when no reply arrived, or the
        transport's); an error reply, `schedule-out-of-range` included, is
        returned as a non-ok call for the caller to inspect.
        """
        if not call.resolved:
            self.wait((call,), self._reply_deadline(call))
        if call.error is not None:
            raise call.error
        return call

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
        return self.resolve(
            self.submit(server_id, operation, scheduled_time, get_time=get_time)
        )

    def submit_at_completion(
        self,
        server_id: str,
        operation: Operation,
        desired_completion: int,
    ) -> PendingCall:
        """Send one completion-targeted rpc without waiting for its reply."""
        with self._lock:  # a reader thread pushes to the window under it
            key = (server_id, operation_type(operation))
            prediction = self._predictors[key].predict(self.algorithm)
            return self.submit(
                server_id,
                operation,
                desired_completion - prediction.value,
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
        and feeds the reported completion back into the predictor. A
        computed time outside the server's acceptable range comes back as a
        non-ok call with error_code `schedule-out-of-range`.
        """
        return self.resolve(
            self.submit_at_completion(server_id, operation, desired_completion)
        )

    def cancel(self, server_id: str, target_id: str) -> PendingCall:
        """Withdraw a previously scheduled rpc by its message id.

        Returns the resolved cancel call: ok when the target was withdrawn,
        otherwise its error_code says why (`already-executed`,
        `unknown-message-id`, ...). Raises ReplyTimeout without a reply.
        """
        return self.resolve(self.submit_cancel(server_id, target_id))

    # -- coordinators -----------------------------------------------------

    def coordinated_operation(
        self,
        server_ids: Iterable[str],
        operation: Operation,
        at: int,
        *,
        align_completion: bool = False,
    ) -> dict[str, PendingCall]:
        """Schedule the same operation on every server for the same instant.

        By default all servers *start* at `at`; with align_completion each
        call goes through submit_at_completion, so completions line up
        instead. A server named more than once gets one rpc, and the result
        map keys each server once, in first-seen order, to its resolved call:
        an error reply, failed send or timeout never stops the rest.
        """
        calls: dict[str, PendingCall] = {}
        for server_id in dict.fromkeys(server_ids):
            if align_completion:
                calls[server_id] = self.submit_at_completion(server_id, operation, at)
            else:
                calls[server_id] = self.submit(server_id, operation, at, get_time=True)
        self.wait(calls.values(), at + self.reply_timeout)
        return calls

    def coordinated_snapshot(
        self,
        server_ids: Iterable[str],
        key: str,
        at: int,
    ) -> dict[str, PendingCall]:
        """Read the same key on every server at the same scheduled instant.

        A coordinated get-value: each ok call's `value` is what its server
        read at `at`, and a non-ok call keeps the server's error reply.
        """
        return self.coordinated_operation(
            server_ids, Operation("get-value", {"key": key}), at
        )

    def atomic_commit(
        self,
        server_ids: Iterable[str],
        commit_time: int,
    ) -> CommitOutcome:
        """All-or-nothing commit scheduled for the same instant everywhere.

        Every participant must acknowledge acceptance before
        commit_time - margin; otherwise the client cancels every participant
        that did not already reject. A cancel is confirmed only by an ok or
        `unknown-message-id` reply that arrives strictly before commit_time;
        one that lands at the instant itself, or never, leaves the abort
        unconfirmed even if the server did withdraw the commit, and any
        unconfirmed cancel raises AbortFailed. A send that fails aborts the
        same way: no further commit rpc goes out, and a cancel that cannot
        be sent is reported in AbortFailed while the others still go out.
        `outcomes` holds every commit call, unsent ones too. Every exit
        ends in a wait on the calls it sent, AbortFailed's too, and that
        wait ends them, so none is left pending. A server named more than
        once takes part once, in first-seen order; a server not connected
        raises ValueError before any rpc is sent.
        """
        server_ids = list(dict.fromkeys(server_ids))
        margin = max(2 * self.rtt_bound, MIN_COMMIT_MARGIN)
        now = self.driver.now()
        if commit_time - now <= self.rtt_bound + margin:
            raise CommitWindowTooShort(
                f"commit at {commit_time} leaves {commit_time - now} ns, "
                f"need more than {self.rtt_bound + margin} ns"
            )
        for server_id in server_ids:
            self._send_to(server_id)
        result = CommitOutcome("committed", commit_time, margin)
        calls = result.outcomes
        unsent: str | None = None
        for server_id in server_ids:
            call = calls[server_id] = self.submit(
                server_id, Operation("commit"), commit_time, get_time=True
            )
            if call.error is not None:
                # This server can never commit: abort now and send no more.
                unsent = server_id
                break
        if not unsent:
            self._wait_all(calls.values(), "acknowledged", commit_time - margin)

        refused, unacked = [], []
        for server_id, call in calls.items():
            accepted_at, reply = call.notification_at, call.reply
            if accepted_at is not None:
                result.accept_times[server_id] = accepted_at
            if reply is not None and not reply.ok:
                refused.append(server_id)
            elif accepted_at is None and reply is None and unsent is None:
                # Nothing arrived, or its link dropped. After a failed send
                # nothing was waited for, so nothing is overdue.
                unacked.append(server_id)
        reasons = [f"unsent: {unsent} ({calls[unsent].error})"] if unsent else []
        for label, group in ("rejected", refused), ("unacknowledged", unacked):
            if group:
                reasons.append(f"{label}: {', '.join(sorted(group))}")
        if not reasons:
            self.wait(calls.values(), commit_time + self.reply_timeout)
            return result

        # Abort: withdraw everything that was sent and not already refused.
        result.status = "aborted"
        result.reason = "; ".join(reasons)
        cancels: dict[str, PendingCall] = {}
        problems = []
        for server_id, call in calls.items():
            if server_id in refused or server_id == unsent:
                continue
            cancel = self.submit_cancel(server_id, call.message_id)
            if cancel.error is not None:
                problems.append(f"{server_id}: cancel unsent ({cancel.error})")
            else:
                cancels[server_id] = cancel
        self.wait([*calls.values(), *cancels.values()], commit_time)
        for server_id, cancel in cancels.items():
            confirmed = cancel.ok or cancel.error_code == ERR_UNKNOWN_MESSAGE_ID
            if cancel.error_code == ERR_ALREADY_EXECUTED:
                problems.append(f"{server_id}: commit already executed")
            elif confirmed and cancel.reply_at < commit_time:
                result.cancel_times[server_id] = cancel.reply_at
            else:
                problems.append(f"{server_id}: cancel unconfirmed before commit time")
        if problems:
            raise AbortFailed("; ".join(problems))
        return result
