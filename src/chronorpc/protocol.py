"""Wire protocol for time-triggered remote operations.

Messages travel as newline-delimited JSON: one UTF-8 encoded JSON object per
line, each frame at most 64 KiB including the terminating newline. Timestamps
are integer nanoseconds since the Unix epoch (UTC); durations are signed
integer nanoseconds. Every integer on the wire has at most 19 digits
(|x| < 10**19): encode() writes no other, and both decode paths refuse any
other as malformed, so a peer's number always fits a core's arithmetic.

Frame vocabulary::

    {"type": "rpc", "message-id": str, "op": str, "params": {str: str},
     "scheduled-time": int?, "get-time": bool?}

    {"type": "rpc-reply", "message-id": str, "status": "ok" | "error",
     "error-code": str?, "error-detail": str?, "execution-time": int?,
     "params": {str: str}?}

    {"type": "notification", "message-id": str}

``scheduled-time`` is absent for execute-immediately rpcs. ``get-time``
defaults to false and asks the server to report the operation's completion
time; a reply carries ``execution-time`` only when the rpc asked for it and
the status is "ok". Reply ``params`` is the return channel for operations
that produce values (e.g. get-value). A notification means the server
accepted a scheduled rpc and queued it, and comes before its scheduled time;
a refused rpc gets only its error reply, as in RFC 7758. Withdrawing a
scheduled rpc is itself an rpc, op "cancel-schedule", whose params
"target-id" names the message-id to withdraw.

Canonical encoding, part of the wire contract: encode() writes the keys in
the order listed above, optional ones only when present (error-detail only
when non-empty), with compact separators ("," and ":", no spaces), strings
escaped to ASCII as json.dumps escapes them by default, integers in plain
decimal and booleans as true/false. That is byte for byte what
json.dumps(obj, separators=(",", ":")) writes for the same dict. encode()
writes it without building the dict, one branch per message type, and
tests/test_protocol.py holds it to a json.dumps reference.

The codec's contract: decode() takes bytes (any other type raises
TypeError) and, whatever the bytes, returns a message record or raises a
ProtocolError; encode() takes a record of exactly one of the three message
types and returns bytes or raises ValueError, and every frame it returns
decodes. A peer's frame can therefore cost a core only a counted decode
error, never its reader thread.

decode() reads the frames the cores write straight off their bytes, one
regex per frame type, when the strings are printable ASCII without '"' or
'\\' and the integers have at most 19 digits: an rpc, whose params object
of string pairs becomes a dict with one findall; an ok reply with optional
execution-time and params; an error reply with error-code and optional
error-detail; a notification. Any other frame (an error reply carrying
params, another writer's key order, whitespace or escapes) goes through
_decode_json(), json.loads and one check per field, the one place errors
are raised; it holds an integer to the same 19 digits. Either path gives
the same message for the same frame.

The message records (Operation and the three message types) are built for
every frame, so they are slotted but not frozen: a frozen __init__ sets
each field through object.__setattr__, which costs several times as much.
They are read-only by contract - nothing assigns to a field after
construction - and, being mutable, they are not hashable. The rarely built
SchedulingRangeConfig stays frozen.
"""

from __future__ import annotations

import enum
import json
import re
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
    "FrameTooLarge",
    "Operation",
    "RpcMessage",
    "RpcReply",
    "ScheduleNotification",
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
# Every integer on the wire has at most 19 digits: |x| < _INT_LIMIT.
_INT_LIMIT = 10**19

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


class FrameTooLarge(ValueError):
    """A message whose frame would exceed MAX_FRAME_BYTES."""


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


Message = RpcMessage | RpcReply | ScheduleNotification


# encode() writes each frame straight into one string, in the canonical
# field order, and checks what the wire contract needs on the way. An id that
# is a non-empty exact str is escaped directly; anything else goes through
# _quoted, which escapes a str subclass and rejects the rest.
_escape = encode_basestring_ascii


def _quoted(value: object, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string, got {value!r}")
    return _escape(value)


def _wire_int(value: object, name: str) -> int:
    value = int(value)
    if -_INT_LIMIT < value < _INT_LIMIT:
        return value
    raise ValueError(f"{name} must have at most 19 digits")


def _json_params(params: dict[str, str]) -> str:
    if not isinstance(params, dict):
        raise ValueError(f"params must be a dict of str -> str, got {params!r}")
    if not params:
        return "{}"
    entries = []
    for k, v in params.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise ValueError(f"params entries must be str -> str, got {k!r}: {v!r}")
        entries.append(f"{_escape(k)}:{_escape(v)}")
    return "{" + ",".join(entries) + "}"


def encode(msg: Message) -> bytes:
    """Serialize one message record to a newline-terminated frame.

    Takes an RpcMessage, RpcReply or ScheduleNotification of exactly that
    type, and returns bytes or raises ValueError. Anything else, a subclass
    included, is "not a protocol message". The other ValueErrors are for
    structurally invalid messages (empty id, params that are not a dict of
    strings, a reply whose error-detail is not a string, an error reply
    whose error-code is not a string or that carries execution-time, an ok
    reply carrying an error-code or a non-empty error-detail, a
    scheduled-time or execution-time of more than 19 digits, which no
    decoder takes), and its subclass FrameTooLarge for a frame over 64 KiB.
    """
    kind = type(msg)
    if kind is RpcMessage:
        op = msg.operation
        mid = msg.message_id
        mid = _escape(mid) if type(mid) is str and mid else _quoted(mid, "message-id")
        name = op.name
        name = _escape(name) if type(name) is str and name else _quoted(name, "op")
        frame = f'{{"type":"rpc","message-id":{mid},"op":{name},"params":{_json_params(op.params)}'
        if msg.scheduled_time is not None:
            frame += f',"scheduled-time":{_wire_int(msg.scheduled_time, "scheduled-time")}'
        if msg.get_time:
            frame += ',"get-time":true'
    elif kind is RpcReply:
        # The status and error fields are checked before the message-id.
        status = msg.status
        if status not in ("ok", "error"):
            raise ValueError(f"bad reply status: {status!r}")
        if not isinstance(msg.error_detail, str):
            raise ValueError(f"error-detail must be a string, got {msg.error_detail!r}")
        if status == "error":
            if not msg.error_code:
                raise ValueError("error reply needs an error-code")
            if not isinstance(msg.error_code, str):
                raise ValueError(f"error-code must be a string, got {msg.error_code!r}")
            if msg.execution_time is not None:
                raise ValueError("error reply cannot carry execution-time")
        elif msg.error_code is not None:
            raise ValueError("ok reply cannot carry an error-code")
        elif msg.error_detail:
            raise ValueError("ok reply cannot carry an error-detail")
        mid = msg.message_id
        mid = _escape(mid) if type(mid) is str and mid else _quoted(mid, "message-id")
        frame = f'{{"type":"rpc-reply","message-id":{mid},"status":{_escape(status)}'
        if msg.error_code is not None:
            frame += f',"error-code":{_escape(msg.error_code)}'
        if msg.error_detail:
            frame += f',"error-detail":{_escape(msg.error_detail)}'
        if msg.execution_time is not None:
            frame += f',"execution-time":{_wire_int(msg.execution_time, "execution-time")}'
        if msg.params is not None:
            frame += f',"params":{_json_params(msg.params)}'
    elif kind is ScheduleNotification:
        mid = msg.message_id
        mid = _escape(mid) if type(mid) is str and mid else _quoted(mid, "message-id")
        frame = f'{{"type":"notification","message-id":{mid}'
    else:
        raise ValueError(f"not a protocol message: {msg!r}")
    frame = (frame + "}\n").encode()
    if len(frame) > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    return frame


# Field checks for _decode_json, over a frame JSON parsed: a frame from
# another writer, or one outside the canonical layouts below. JSON gives
# exact types, so `type(x) is int` also rejects booleans and `type(x) is str`
# needs no subclass case. Each type's fields are checked in the order they
# are listed, one helper per kind of field.
def _str_field(obj: dict, key: str) -> str:
    value = obj.get(key)
    if type(value) is str and value:
        return value
    if key not in obj:
        raise MissingField(key)
    raise MalformedFrame("field must be a non-empty string", key)


def _int_field(obj: dict, key: str) -> int | None:
    value = obj.get(key)
    if value is None or type(value) is int and -_INT_LIMIT < value < _INT_LIMIT:
        return value
    raise MalformedFrame("field must be an integer of at most 19 digits", key)


def _bool_field(obj: dict, key: str) -> bool:
    value = obj.get(key, False)  # the one bool field, get-time, is optional
    if type(value) is bool:
        return value
    raise MalformedFrame("field must be a boolean", key)


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


# The canonical layouts encode() writes, read without JSON. A string admits
# only printable ASCII without '"' or '\', which JSON reads as itself; it is
# non-empty except for a params value. An integer has at most 19 digits, no
# leading zero and no "-0", which JSON reads as the same int and int() never
# refuses. A frame that misses on any byte goes to JSON.
_CHAR = rb"[\x20\x21\x23-\x5b\x5d-\x7e]"
_STR = rb'"(' + _CHAR + rb'+)"'
_INT = rb"(0|-?[1-9][0-9]{0,18})"
_PAIR = rb'"' + _CHAR + rb'+":"' + _CHAR + rb'*"'
_PARAMS = rb"(\{(?:" + _PAIR + rb"(?:," + _PAIR + rb")*)?\})"
# The (key, value) pairs of a matched params object, in order; dict() keeps
# the last value of a repeated key, as json.loads does.
_pairs = re.compile((rb'"(' + _CHAR + rb'+)":"(' + _CHAR + rb'*)"').decode()).findall
_match_rpc = re.compile(
    rb'\{"type":"rpc","message-id":' + _STR + rb',"op":' + _STR
    + rb',"params":' + _PARAMS + rb'(?:,"scheduled-time":' + _INT + rb")?"
    + rb'(,"get-time":true)?\}\n'
).fullmatch
_match_reply = re.compile(
    rb'\{"type":"rpc-reply","message-id":' + _STR
    + rb',"status":(?:"ok"(?:,"execution-time":' + _INT + rb")?"
    + rb'(?:,"params":' + _PARAMS + rb")?"
    + rb'|"error","error-code":' + _STR + rb'(?:,"error-detail":' + _STR + rb")?"
    + rb")\}\n"
).fullmatch
_match_notification = re.compile(
    rb'\{"type":"notification","message-id":' + _STR + rb"\}\n"
).fullmatch


def _canonical_params(text):
    return {} if text == b"{}" else dict(_pairs(text.decode()))


def decode(data: bytes) -> Message:
    """Parse one complete newline-terminated frame into a message record.

    Takes bytes and nothing else: any other type raises TypeError. For any
    bytes it returns a record or raises a ProtocolError: MalformedFrame for
    framing/syntax/shape problems, UnknownType for an unrecognized "type",
    MissingField when a required field is absent.
    """
    if type(data) is not bytes:
        raise TypeError(f"decode takes bytes, not {type(data).__name__}")
    if len(data) <= MAX_FRAME_BYTES:
        kind = data[9:13]  # the first four bytes of the type after '{"type":"'
        if kind == b'rpc"':
            match = _match_rpc(data)
            if match is not None:
                mid, name, params, scheduled_time, get_time = match.groups()
                operation = Operation(name.decode(), _canonical_params(params))
                scheduled_time = None if scheduled_time is None else int(scheduled_time)
                return RpcMessage(mid.decode(), operation, scheduled_time, get_time is not None)
        elif kind == b"rpc-":
            match = _match_reply(data)
            if match is not None:
                mid, execution_time, params, error_code, error_detail = match.groups()
                if error_code is not None:
                    detail = "" if error_detail is None else error_detail.decode()
                    return RpcReply(mid.decode(), "error", error_code.decode(), detail)
                execution_time = None if execution_time is None else int(execution_time)
                params = None if params is None else _canonical_params(params)
                return RpcReply(mid.decode(), "ok", None, "", execution_time, params)
        elif kind == b"noti":
            match = _match_notification(data)
            if match is not None:
                return ScheduleNotification(match[1].decode())
    return _decode_json(data)


def _decode_json(data: bytes) -> Message:
    """decode()'s JSON path: json.loads, then one check per field. decode()
    takes it for every frame outside the canonical layouts; on a canonical
    frame it gives the record the regex path gives."""
    size = len(data)
    if size > MAX_FRAME_BYTES:
        raise MalformedFrame(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    if not size or data.find(b"\n") != size - 1:
        if data.endswith(b"\n"):
            raise MalformedFrame("more than one frame supplied")
        raise MalformedFrame("frame is not newline-terminated")
    # ValueError covers bad UTF-8, bad JSON and an integer longer than
    # sys.get_int_max_str_digits(); RecursionError, nesting too deep to parse.
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise MalformedFrame(f"bad frame syntax ({exc})") from exc
    if type(obj) is not dict:
        raise MalformedFrame("frame is not a JSON object")
    kind = obj.get("type")
    if kind == "rpc":
        message_id = _str_field(obj, "message-id")
        name = _str_field(obj, "op")
        params = _params_field(obj)
        operation = Operation(name, {} if params is None else params)
        scheduled_time = _int_field(obj, "scheduled-time")
        return RpcMessage(message_id, operation, scheduled_time, _bool_field(obj, "get-time"))
    if kind == "rpc-reply":
        message_id = _str_field(obj, "message-id")
        status = _str_field(obj, "status")
        if status not in ("ok", "error"):
            raise MalformedFrame("status must be 'ok' or 'error'", "status")
        error_code = None
        error_detail = ""
        if status == "error":
            error_code = _str_field(obj, "error-code")
            error_detail = obj.get("error-detail", "")
            if type(error_detail) is not str:
                raise MalformedFrame("field must be a string", "error-detail")
        execution_time = _int_field(obj, "execution-time")
        if execution_time is not None and error_code is not None:
            raise MalformedFrame("error reply cannot carry execution-time", "execution-time")
        params = _params_field(obj)
        return RpcReply(message_id, status, error_code, error_detail, execution_time, params)
    if kind == "notification":
        return ScheduleNotification(_str_field(obj, "message-id"))
    if "type" not in obj:
        raise MissingField("type")
    raise UnknownType(kind)


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


# Read on every scheduled rpc. On Python 3.11 reading an Enum member off its
# class costs several times a module global, so each is bound once here.
_ACCEPT = Verdict.ACCEPT
_ACCEPT_RUN_NOW = Verdict.ACCEPT_RUN_NOW
_REJECT = Verdict.REJECT


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
        return _ACCEPT
    if -config.sched_max_past <= offset < 0:
        return _ACCEPT_RUN_NOW
    return _REJECT
