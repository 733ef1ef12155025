"""Wire protocol for time-triggered remote operations.

Messages travel as newline-delimited JSON: one UTF-8 encoded JSON object per
line, each frame at most 64 KiB including the terminating newline. Timestamps
are integer nanoseconds since the Unix epoch (UTC); durations are signed
integer nanoseconds.

Frame vocabulary::

    {"type": "rpc", "message-id": str, "op": str, "params": {str: str},
     "scheduled-time": int?, "get-time": bool?}

    {"type": "rpc-reply", "message-id": str, "status": "ok" | "error",
     "error-code": str?, "error-detail": str?, "execution-time": int?,
     "params": {str: str}?}

    {"type": "notification", "message-id": str, "accepted": bool}

    {"type": "cancel-schedule", "message-id": str, "target-id": str}

``scheduled-time`` is absent for execute-immediately rpcs. ``get-time``
defaults to false and asks the server to report the operation's completion
time; a reply carries ``execution-time`` only when the rpc asked for it and
the status is "ok". Reply ``params`` is the return channel for operations
that produce values (e.g. get-value). A notification acknowledges admission
of a scheduled rpc before its scheduled time; ``target-id`` names the
message-id a cancel-schedule rpc wants withdrawn.

Canonical encoding, part of the wire contract: encode() writes the keys in
the order listed above, optional ones only when present (error-detail only
when non-empty), with compact separators ("," and ":", no spaces), strings
escaped to ASCII as json.dumps escapes them by default, integers in plain
decimal and booleans as true/false. That is byte for byte what
json.dumps(obj, separators=(",", ":")) writes for the same dict. The
per-type encoders below reproduce it without building the dict, and
tests/test_protocol.py holds them to a json.dumps reference. decode()
accepts any key order and whitespace within a frame.

The message records (Operation and the four message types) are built for
every frame, so they are slotted but not frozen: a frozen __init__ sets
each field through object.__setattr__, which costs several times as much.
They are read-only by contract - nothing assigns to a field after
construction - and, being mutable, they are not hashable. The rarely built
SchedulingRangeConfig stays frozen.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

__all__ = [
    "MAX_FRAME_BYTES",
    "MICROS",
    "MILLIS",
    "SECONDS",
    "ProtocolError",
    "MalformedFrame",
    "UnknownType",
    "MissingField",
    "TransportClosed",
    "Operation",
    "RpcMessage",
    "RpcReply",
    "ScheduleNotification",
    "CancelSchedule",
    "Message",
    "encode",
    "decode",
    "FrameSplitter",
    "Verdict",
    "SchedulingRangeConfig",
    "validate_schedule",
    "ERR_SCHEDULE_OUT_OF_RANGE",
    "ERR_UNKNOWN_OPERATION",
    "ERR_UNKNOWN_MESSAGE_ID",
    "ERR_DUPLICATE_MESSAGE_ID",
    "ERR_ALREADY_EXECUTED",
    "ERR_UNKNOWN_KEY",
    "ERR_CANCELLED",
    "ERR_INVALID_PARAMS",
]

MAX_FRAME_BYTES = 64 * 1024

# Duration helpers, all in nanoseconds.
MICROS = 1_000
MILLIS = 1_000_000
SECONDS = 1_000_000_000

# Error codes carried in rpc-reply "error-code".
ERR_SCHEDULE_OUT_OF_RANGE = "schedule-out-of-range"
ERR_UNKNOWN_OPERATION = "unknown-operation"
ERR_UNKNOWN_MESSAGE_ID = "unknown-message-id"
ERR_DUPLICATE_MESSAGE_ID = "duplicate-message-id"
ERR_ALREADY_EXECUTED = "already-executed"
ERR_UNKNOWN_KEY = "unknown-key"
ERR_CANCELLED = "cancelled"
ERR_INVALID_PARAMS = "invalid-params"


class ProtocolError(Exception):
    """Base class for frame decode failures."""


class MalformedFrame(ProtocolError):
    """Frame is not one well-formed JSON object line, or a field has the wrong shape."""

    def __init__(self, reason: str, field_name: str | None = None):
        super().__init__(reason if field_name is None else f"{reason}: {field_name!r}")
        self.field_name = field_name


class UnknownType(ProtocolError):
    """The "type" field holds an unrecognized value."""

    def __init__(self, type_value: object):
        super().__init__(f"unknown message type: {type_value!r}")
        self.type_value = type_value


class MissingField(ProtocolError):
    """A required field is absent; names the offending field."""

    def __init__(self, field_name: str):
        super().__init__(f"missing field: {field_name!r}")
        self.field_name = field_name


class TransportClosed(Exception):
    """Send or receive attempted on a closed transport."""


@dataclass(slots=True)
class Operation:
    """An operation name plus string-valued parameters."""

    name: str
    params: dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class RpcMessage:
    message_id: str
    operation: Operation
    scheduled_time: int | None = None
    get_time: bool = False


@dataclass(slots=True)
class RpcReply:
    message_id: str
    status: str  # "ok" | "error"
    error_code: str | None = None
    error_detail: str = ""
    execution_time: int | None = None
    params: dict[str, str] | None = None

    @classmethod
    def make_ok(
        cls,
        message_id: str,
        execution_time: int | None = None,
        params: dict[str, str] | None = None,
    ) -> "RpcReply":
        return cls(message_id, "ok", execution_time=execution_time, params=params)

    @classmethod
    def make_error(cls, message_id: str, code: str, detail: str = "") -> "RpcReply":
        return cls(message_id, "error", error_code=code, error_detail=detail)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(slots=True)
class ScheduleNotification:
    message_id: str
    accepted: bool


@dataclass(slots=True)
class CancelSchedule:
    message_id: str
    target_id: str


Message = RpcMessage | RpcReply | ScheduleNotification | CancelSchedule


# Per-type encoders: each writes its frame straight into one string, in the
# canonical field order, and checks what the wire contract needs on the way.
_escape = encode_basestring_ascii


def _quoted(value: object, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string, got {value!r}")
    return _escape(value)


def _json_params(params: dict[str, str]) -> str:
    entries = []
    for k, v in params.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise ValueError(f"params entries must be str -> str, got {k!r}: {v!r}")
        entries.append(f"{_escape(k)}:{_escape(v)}")
    return "{" + ",".join(entries) + "}"


def _json_value(value: object) -> str:
    # error-code and error-detail are written without a type check, as
    # json.dumps wrote them; only a non-string takes the slow path.
    if isinstance(value, str):
        return _escape(value)
    return json.dumps(value, separators=(",", ":"))


def _encode_rpc(msg: RpcMessage) -> str:
    op = msg.operation
    frame = (
        f'{{"type":"rpc","message-id":{_quoted(msg.message_id, "message-id")}'
        f',"op":{_quoted(op.name, "op")},"params":{_json_params(op.params)}'
    )
    if msg.scheduled_time is not None:
        frame += f',"scheduled-time":{int(msg.scheduled_time)}'
    if msg.get_time:
        frame += ',"get-time":true'
    return frame + "}\n"


def _encode_reply(msg: RpcReply) -> str:
    status = msg.status
    if status not in ("ok", "error"):
        raise ValueError(f"bad reply status: {status!r}")
    if status == "error":
        if not msg.error_code:
            raise ValueError("error reply needs an error-code")
        if msg.execution_time is not None:
            raise ValueError("error reply cannot carry execution-time")
    elif msg.error_code is not None:
        raise ValueError("ok reply cannot carry an error-code")
    frame = (
        f'{{"type":"rpc-reply","message-id":{_quoted(msg.message_id, "message-id")}'
        f',"status":{_escape(status)}'
    )
    if msg.error_code is not None:
        frame += f',"error-code":{_json_value(msg.error_code)}'
    if msg.error_detail:
        frame += f',"error-detail":{_json_value(msg.error_detail)}'
    if msg.execution_time is not None:
        frame += f',"execution-time":{int(msg.execution_time)}'
    if msg.params is not None:
        frame += f',"params":{_json_params(msg.params)}'
    return frame + "}\n"


def _encode_notification(msg: ScheduleNotification) -> str:
    return (
        f'{{"type":"notification","message-id":{_quoted(msg.message_id, "message-id")}'
        f',"accepted":{"true" if msg.accepted else "false"}}}\n'
    )


def _encode_cancel(msg: CancelSchedule) -> str:
    return (
        f'{{"type":"cancel-schedule","message-id":{_quoted(msg.message_id, "message-id")}'
        f',"target-id":{_quoted(msg.target_id, "target-id")}}}\n'
    )


# In isinstance order, for subclasses that miss the exact-type lookup.
_ENCODERS = {
    RpcMessage: _encode_rpc,
    RpcReply: _encode_reply,
    ScheduleNotification: _encode_notification,
    CancelSchedule: _encode_cancel,
}


def encode(msg: Message) -> bytes:
    """Serialize one message to a newline-terminated frame.

    Raises ValueError for structurally invalid messages (empty id, non-string
    params, an error reply carrying execution-time, or a frame over 64 KiB).
    """
    encoder = _ENCODERS.get(type(msg))
    if encoder is None:
        for cls, encoder in _ENCODERS.items():
            if isinstance(msg, cls):
                break
        else:
            raise ValueError(f"not a protocol message: {msg!r}")
    frame = encoder(msg).encode()
    if len(frame) > MAX_FRAME_BYTES:
        raise ValueError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    return frame


# Per-type decoders over the parsed object. JSON gives exact types, so
# `type(x) is int` also rejects booleans and `type(x) is str` needs no
# subclass case.
def _str_field(obj: dict, key: str) -> str:
    value = obj.get(key)
    if type(value) is str and value:
        return value
    if key not in obj:
        raise MissingField(key)
    raise MalformedFrame("field must be a non-empty string", key)


def _params_field(obj: dict) -> dict[str, str] | None:
    params = obj.get("params")
    if params is None:
        return None
    if type(params) is not dict:
        raise MalformedFrame("field must be an object", "params")
    for value in params.values():  # JSON object keys are always strings
        if type(value) is not str:
            raise MalformedFrame("field entries must map strings to strings", "params")
    return params


def _decode_rpc(obj: dict) -> RpcMessage:
    message_id = _str_field(obj, "message-id")
    name = _str_field(obj, "op")
    params = _params_field(obj)
    scheduled_time = obj.get("scheduled-time")
    if scheduled_time is not None and type(scheduled_time) is not int:
        raise MalformedFrame("field must be an integer", "scheduled-time")
    get_time = obj.get("get-time", False)
    if type(get_time) is not bool:
        raise MalformedFrame("field must be a boolean", "get-time")
    operation = Operation(name, {} if params is None else params)
    return RpcMessage(message_id, operation, scheduled_time, get_time)


def _decode_reply(obj: dict) -> RpcReply:
    message_id = _str_field(obj, "message-id")
    status = _str_field(obj, "status")
    error_code = None
    error_detail = ""
    if status == "error":
        error_code = _str_field(obj, "error-code")
        error_detail = obj.get("error-detail", "")
        if type(error_detail) is not str:
            raise MalformedFrame("field must be a string", "error-detail")
    elif status != "ok":
        raise MalformedFrame("status must be 'ok' or 'error'", "status")
    execution_time = obj.get("execution-time")
    if execution_time is not None:
        if type(execution_time) is not int:
            raise MalformedFrame("field must be an integer", "execution-time")
        if error_code is not None:
            raise MalformedFrame("error reply cannot carry execution-time", "execution-time")
    return RpcReply(
        message_id, status, error_code, error_detail, execution_time, _params_field(obj)
    )


def _decode_notification(obj: dict) -> ScheduleNotification:
    message_id = _str_field(obj, "message-id")
    accepted = obj.get("accepted")
    if type(accepted) is not bool:
        if "accepted" not in obj:
            raise MissingField("accepted")
        raise MalformedFrame("field must be a boolean", "accepted")
    return ScheduleNotification(message_id, accepted)


def _decode_cancel(obj: dict) -> CancelSchedule:
    return CancelSchedule(_str_field(obj, "message-id"), _str_field(obj, "target-id"))


_scan_once = json.JSONDecoder().scan_once  # the scanner json.loads runs

_DECODERS = {
    "rpc": _decode_rpc,
    "rpc-reply": _decode_reply,
    "notification": _decode_notification,
    "cancel-schedule": _decode_cancel,
}


def decode(data: bytes | bytearray | str) -> Message:
    """Parse one complete newline-terminated frame into a message.

    Raises MalformedFrame for framing/syntax/shape problems, UnknownType for
    an unrecognized "type", MissingField when a required field is absent.
    """
    if type(data) is not bytes:
        if isinstance(data, str):
            data = data.encode("utf-8")
        elif not isinstance(data, bytearray):
            data = bytes(data)
    size = len(data)
    if size > MAX_FRAME_BYTES:
        raise MalformedFrame(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    if not size or data.find(b"\n") != size - 1:
        if data.endswith(b"\n"):
            raise MalformedFrame("more than one frame supplied")
        raise MalformedFrame("frame is not newline-terminated")
    try:
        text = data.decode("utf-8")
        # What json.loads(text) returns, without its wrappers, when the frame
        # is one JSON value and then the newline. Any other frame (whitespace
        # around the value, bad syntax) goes to json.loads to accept or reject.
        try:
            obj, end = _scan_once(text, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end != len(text) - 1:
            obj = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrame(f"bad frame syntax ({exc})") from exc
    if type(obj) is not dict:
        raise MalformedFrame("frame is not a JSON object")
    type_value = obj.get("type")
    try:
        decoder = _DECODERS[type_value]
    except (KeyError, TypeError):  # TypeError: a list or object is unhashable
        if "type" not in obj:
            raise MissingField("type") from None
        raise UnknownType(type_value) from None
    return decoder(obj)


class FrameSplitter:
    """Cuts a byte stream into raw newline-terminated frames, without decoding.

    feed() returns the frames the chunk completes, in order. Each byte is
    scanned once and copied at most twice, however the stream is chunked. An
    unterminated tail of MAX_FRAME_BYTES or more can never become a valid
    frame, so it comes out as one bogus frame for the receiver to reject and
    count, and the splitter starts afresh.
    """

    def __init__(self):
        self._parts: list[bytes] = []
        self.pending_bytes = 0

    def feed(self, data: bytes) -> list[bytes]:
        frames = []
        start = 0
        cut = data.find(b"\n")
        while cut >= 0:
            frame = data[start : cut + 1]
            if self._parts:
                frame = b"".join([*self._parts, frame])
                self._parts = []
                self.pending_bytes = 0
            frames.append(frame)
            start = cut + 1
            cut = data.find(b"\n", start)
        if start < len(data):
            self._parts.append(data[start:])
            self.pending_bytes += len(data) - start
            if self.pending_bytes >= MAX_FRAME_BYTES:
                frames.append(b"".join(self._parts))
                self._parts = []
                self.pending_bytes = 0
        return frames


class Verdict(enum.Enum):
    """Admission decision for a scheduled time against the acceptable range."""

    ACCEPT = "accept"
    ACCEPT_RUN_NOW = "accept-run-now"
    REJECT = "reject"


@dataclass(frozen=True)
class SchedulingRangeConfig:
    """Acceptable scheduling range around the server's current time.

    A scheduled time up to sched_max_future ahead is queued; one up to
    sched_max_past behind is run immediately; anything else is rejected.
    """

    sched_max_future: int = 15 * SECONDS
    sched_max_past: int = 3 * SECONDS

    def __post_init__(self):
        if self.sched_max_future <= 0:
            raise ValueError("sched_max_future must be positive")
        if self.sched_max_past < 0:
            raise ValueError("sched_max_past must be non-negative")


def validate_schedule(
    scheduled_time: int, now: int, config: SchedulingRangeConfig
) -> Verdict:
    """Classify a scheduled time relative to now.

    The verdict depends only on the offset scheduled_time - now:
    [0, sched_max_future] accepts, [-sched_max_past, 0) accepts but runs
    immediately, everything else rejects.
    """
    offset = scheduled_time - now
    if 0 <= offset <= config.sched_max_future:
        return Verdict.ACCEPT
    if -config.sched_max_past <= offset < 0:
        return Verdict.ACCEPT_RUN_NOW
    return Verdict.REJECT
