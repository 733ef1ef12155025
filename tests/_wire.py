"""Seeded generator of structurally valid protocol messages, and a reference codec.

The generator is shared by the codec unit tests and the acceptance
round-trip check. It takes a random.Random so every caller controls its own
seed. ref_encode and ref_decode are the codec's earlier, plainly written
form, kept as the oracle for the package's per-type encoders and decoders.
"""

from __future__ import annotations

import json
import random

from chronorpc.protocol import (
    MAX_FRAME_BYTES,
    CancelSchedule,
    MalformedFrame,
    Message,
    MissingField,
    Operation,
    RpcMessage,
    RpcReply,
    ScheduleNotification,
    UnknownType,
)

_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
_UNICODE_EXTRAS = "äöüßéañチλ時計 \t\"\\/{}[]:,"
_ERROR_CODES = (
    "schedule-out-of-range",
    "unknown-operation",
    "unknown-message-id",
    "duplicate-message-id",
    "already-executed",
    "unknown-key",
    "cancelled",
    "invalid-params",
)


def _ident(rng: random.Random) -> str:
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(1, 12)))


def _text(rng: random.Random) -> str:
    pool = _ALPHABET + _UNICODE_EXTRAS
    return "".join(rng.choice(pool) for _ in range(rng.randint(0, 20)))


def _params(rng: random.Random) -> dict[str, str]:
    return {_ident(rng): _text(rng) for _ in range(rng.randint(0, 4))}


def _timestamp(rng: random.Random) -> int:
    # Deliberately includes negative and far-future instants.
    return rng.randint(-(2**62), 2**62)


def random_message(rng: random.Random) -> Message:
    kind = rng.randrange(4)
    mid = _ident(rng)
    if kind == 0:
        return RpcMessage(
            message_id=mid,
            operation=Operation(_ident(rng), _params(rng)),
            scheduled_time=_timestamp(rng) if rng.random() < 0.7 else None,
            get_time=rng.random() < 0.5,
        )
    if kind == 1:
        if rng.random() < 0.5:
            return RpcReply.make_ok(
                mid,
                execution_time=_timestamp(rng) if rng.random() < 0.6 else None,
                params=_params(rng) if rng.random() < 0.4 else None,
            )
        reply = RpcReply.make_error(
            mid,
            rng.choice(_ERROR_CODES),
            detail=_text(rng) if rng.random() < 0.5 else "",
        )
        if rng.random() < 0.3:
            reply = RpcReply(
                reply.message_id,
                reply.status,
                reply.error_code,
                reply.error_detail,
                None,
                _params(rng),
            )
        return reply
    if kind == 2:
        return ScheduleNotification(mid, accepted=rng.random() < 0.5)
    return CancelSchedule(mid, target_id=_ident(rng))


# Reference codec: the dict + json.dumps encoder and the helper-based decoder
# that the package shipped before its per-type codec. The equivalence tests
# in test_protocol.py hold the package codec to these byte for byte and
# error for error.


def _ref_check_str(value: object, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string, got {value!r}")
    return value


def _ref_check_params(params: dict[str, str], name: str) -> dict[str, str]:
    for k, v in params.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise ValueError(f"{name} entries must be str -> str, got {k!r}: {v!r}")
    return params


def ref_encode(msg: Message) -> bytes:
    obj: dict[str, object] = {}
    if isinstance(msg, RpcMessage):
        obj["type"] = "rpc"
        obj["message-id"] = _ref_check_str(msg.message_id, "message-id")
        obj["op"] = _ref_check_str(msg.operation.name, "op")
        obj["params"] = _ref_check_params(msg.operation.params, "params")
        if msg.scheduled_time is not None:
            obj["scheduled-time"] = int(msg.scheduled_time)
        if msg.get_time:
            obj["get-time"] = True
    elif isinstance(msg, RpcReply):
        if msg.status not in ("ok", "error"):
            raise ValueError(f"bad reply status: {msg.status!r}")
        if msg.status == "error" and not msg.error_code:
            raise ValueError("error reply needs an error-code")
        if msg.status == "ok" and msg.error_code is not None:
            raise ValueError("ok reply cannot carry an error-code")
        if msg.status == "error" and msg.execution_time is not None:
            raise ValueError("error reply cannot carry execution-time")
        obj["type"] = "rpc-reply"
        obj["message-id"] = _ref_check_str(msg.message_id, "message-id")
        obj["status"] = msg.status
        if msg.error_code is not None:
            obj["error-code"] = msg.error_code
        if msg.error_detail:
            obj["error-detail"] = msg.error_detail
        if msg.execution_time is not None:
            obj["execution-time"] = int(msg.execution_time)
        if msg.params is not None:
            obj["params"] = _ref_check_params(msg.params, "params")
    elif isinstance(msg, ScheduleNotification):
        obj["type"] = "notification"
        obj["message-id"] = _ref_check_str(msg.message_id, "message-id")
        obj["accepted"] = bool(msg.accepted)
    elif isinstance(msg, CancelSchedule):
        obj["type"] = "cancel-schedule"
        obj["message-id"] = _ref_check_str(msg.message_id, "message-id")
        obj["target-id"] = _ref_check_str(msg.target_id, "target-id")
    else:
        raise ValueError(f"not a protocol message: {msg!r}")

    frame = json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"
    if len(frame) > MAX_FRAME_BYTES:
        raise ValueError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    return frame


def _ref_required(obj: dict, key: str) -> object:
    if key not in obj:
        raise MissingField(key)
    return obj[key]


def _ref_str(obj: dict, key: str) -> str:
    value = _ref_required(obj, key)
    if not isinstance(value, str) or not value:
        raise MalformedFrame("field must be a non-empty string", key)
    return value


def _ref_int_opt(obj: dict, key: str) -> int | None:
    value = obj.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedFrame("field must be an integer", key)
    return value


def _ref_bool(obj: dict, key: str, default: bool | None = None) -> bool:
    if key not in obj:
        if default is None:
            raise MissingField(key)
        return default
    value = obj[key]
    if not isinstance(value, bool):
        raise MalformedFrame("field must be a boolean", key)
    return value


def _ref_params(obj: dict, key: str) -> dict[str, str]:
    value = obj.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise MalformedFrame("field must be an object", key)
    for k, v in value.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise MalformedFrame("field entries must map strings to strings", key)
    return value


def ref_decode(data: bytes | bytearray | str) -> Message:
    if isinstance(data, str):
        data = data.encode("utf-8")
    data = bytes(data)
    if len(data) > MAX_FRAME_BYTES:
        raise MalformedFrame(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    if not data.endswith(b"\n"):
        raise MalformedFrame("frame is not newline-terminated")
    line = data[:-1]
    if b"\n" in line:
        raise MalformedFrame("more than one frame supplied")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrame(f"bad frame syntax ({exc})") from exc
    if not isinstance(obj, dict):
        raise MalformedFrame("frame is not a JSON object")

    type_value = _ref_required(obj, "type")
    if type_value == "rpc":
        return RpcMessage(
            message_id=_ref_str(obj, "message-id"),
            operation=Operation(_ref_str(obj, "op"), _ref_params(obj, "params")),
            scheduled_time=_ref_int_opt(obj, "scheduled-time"),
            get_time=_ref_bool(obj, "get-time", default=False),
        )
    if type_value == "rpc-reply":
        message_id = _ref_str(obj, "message-id")
        status = _ref_str(obj, "status")
        if status not in ("ok", "error"):
            raise MalformedFrame("status must be 'ok' or 'error'", "status")
        error_code: str | None = None
        error_detail = ""
        if status == "error":
            error_code = _ref_str(obj, "error-code")
            detail = obj.get("error-detail", "")
            if not isinstance(detail, str):
                raise MalformedFrame("field must be a string", "error-detail")
            error_detail = detail
        execution_time = _ref_int_opt(obj, "execution-time")
        if status == "error" and execution_time is not None:
            raise MalformedFrame("error reply cannot carry execution-time", "execution-time")
        params = obj.get("params")
        if params is not None:
            params = _ref_params(obj, "params")
        return RpcReply(message_id, status, error_code, error_detail, execution_time, params)
    if type_value == "notification":
        return ScheduleNotification(
            message_id=_ref_str(obj, "message-id"),
            accepted=_ref_bool(obj, "accepted"),
        )
    if type_value == "cancel-schedule":
        return CancelSchedule(
            message_id=_ref_str(obj, "message-id"),
            target_id=_ref_str(obj, "target-id"),
        )
    raise UnknownType(type_value)
