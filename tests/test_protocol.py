import itertools
import json
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronorpc.protocol import (
    MAX_FRAME_BYTES,
    SECONDS,
    FrameSplitter,
    MalformedFrame,
    MissingField,
    Operation,
    ProtocolError,
    RpcMessage,
    RpcReply,
    ScheduleNotification,
    SchedulingRangeConfig,
    UnknownType,
    Verdict,
    decode,
    encode,
    validate_schedule,
)
from chronorpc.protocol import _decode_json

from _wire import random_message, ref_decode, ref_encode


class TestFrozenFrames:
    """Exact byte encodings pinned down by the wire contract."""

    def test_minimal_rpc(self):
        frame = encode(RpcMessage("m1", Operation("noop")))
        assert frame == b'{"type":"rpc","message-id":"m1","op":"noop","params":{}}\n'

    def test_ok_reply_with_execution_time(self):
        frame = encode(RpcReply.make_ok("m1", execution_time=1000))
        assert frame == (
            b'{"type":"rpc-reply","message-id":"m1","status":"ok","execution-time":1000}\n'
        )

    def test_full_rpc(self):
        frame = encode(
            RpcMessage(
                "m7",
                Operation("toast", {"duration-ns": "5"}),
                scheduled_time=123456789,
                get_time=True,
            )
        )
        assert frame == (
            b'{"type":"rpc","message-id":"m7","op":"toast",'
            b'"params":{"duration-ns":"5"},"scheduled-time":123456789,"get-time":true}\n'
        )

    def test_notification(self):
        frame = encode(ScheduleNotification("m2"))
        assert frame == b'{"type":"notification","message-id":"m2"}\n'

    def test_cancel(self):
        frame = encode(RpcMessage("m9", Operation("cancel-schedule", {"target-id": "m3"})))
        assert frame == (
            b'{"type":"rpc","message-id":"m9","op":"cancel-schedule",'
            b'"params":{"target-id":"m3"}}\n'
        )

    def test_error_reply(self):
        frame = encode(RpcReply.make_error("m4", "unknown-operation", "frobnicate"))
        assert frame == (
            b'{"type":"rpc-reply","message-id":"m4","status":"error",'
            b'"error-code":"unknown-operation","error-detail":"frobnicate"}\n'
        )


class TestRoundTrip:
    def test_seeded_messages(self):
        rng = random.Random(0xC0DEC)
        for _ in range(2000):
            msg = random_message(rng)
            assert decode(encode(msg)) == msg

    def test_negative_timestamp(self):
        msg = RpcMessage("m1", Operation("noop"), scheduled_time=-5 * SECONDS)
        assert decode(encode(msg)) == msg

    def test_reply_params_channel(self):
        msg = RpcReply.make_ok("m1", params={"value": "42"})
        assert decode(encode(msg)) == msg


class TestDecodeErrors:
    def test_only_bytes_are_decoded(self):
        frame = encode(ScheduleNotification("m1"))
        for data in (frame.decode(), bytearray(frame), memoryview(frame)):
            with pytest.raises(TypeError, match="decode takes bytes"):
                decode(data)

    def test_missing_message_id(self):
        with pytest.raises(MissingField) as exc:
            decode(b'{"type":"rpc"}\n')
        assert exc.value.field_name == "message-id"

    def test_missing_op(self):
        with pytest.raises(MissingField) as exc:
            decode(b'{"type":"rpc","message-id":"m1"}\n')
        assert exc.value.field_name == "op"

    def test_missing_type(self):
        with pytest.raises(MissingField) as exc:
            decode(b'{"message-id":"m1"}\n')
        assert exc.value.field_name == "type"

    def test_unknown_type(self):
        with pytest.raises(UnknownType) as exc:
            decode(b'{"type":"teleport","message-id":"m1"}\n')
        assert exc.value.type_value == "teleport"
        # cancel-schedule is an rpc op, not a frame type.
        with pytest.raises(UnknownType) as exc:
            decode(b'{"type":"cancel-schedule","message-id":"m9","target-id":"m3"}\n')
        assert exc.value.type_value == "cancel-schedule"

    def test_not_json(self):
        with pytest.raises(MalformedFrame):
            decode(b"this is not json\n")

    def test_no_trailing_newline(self):
        with pytest.raises(MalformedFrame):
            decode(b'{"type":"notification","message-id":"m1"}')

    def test_two_frames_at_once(self):
        one = encode(ScheduleNotification("m1"))
        with pytest.raises(MalformedFrame):
            decode(one + one)

    def test_non_object(self):
        with pytest.raises(MalformedFrame):
            decode(b"[1,2,3]\n")

    def test_bad_utf8(self):
        with pytest.raises(MalformedFrame):
            decode(b'{"type":"rpc","message-id":"\xff\xfe"}\n')

    def test_oversize_frame(self):
        blob = b'{"type":"rpc","message-id":"m1","op":"x","params":{"k":"' + b"a" * MAX_FRAME_BYTES
        with pytest.raises(MalformedFrame):
            decode(blob + b'"}}\n')

    def test_scheduled_time_must_be_int(self):
        with pytest.raises(MalformedFrame) as exc:
            decode(b'{"type":"rpc","message-id":"m1","op":"noop","scheduled-time":true}\n')
        assert exc.value.field_name == "scheduled-time"

    def test_bad_status(self):
        with pytest.raises(MalformedFrame) as exc:
            decode(b'{"type":"rpc-reply","message-id":"m1","status":"maybe"}\n')
        assert exc.value.field_name == "status"

    def test_error_reply_with_execution_time(self):
        with pytest.raises(MalformedFrame):
            decode(
                b'{"type":"rpc-reply","message-id":"m1","status":"error",'
                b'"error-code":"cancelled","execution-time":5}\n'
            )

    def test_error_reply_missing_code(self):
        with pytest.raises(MissingField) as exc:
            decode(b'{"type":"rpc-reply","message-id":"m1","status":"error"}\n')
        assert exc.value.field_name == "error-code"

    def test_notification_extra_key_decodes_by_id(self):
        # A writer that still adds "accepted" misses the canonical layout;
        # JSON reads the frame, and the notification is its message id alone.
        frame = b'{"type":"notification","message-id":"m1","accepted":true}\n'
        assert decode(frame) == ref_decode(frame) == ScheduleNotification("m1")

    def test_cancel_missing_target(self):
        # Its params are the server's to check: it answers invalid-params.
        msg = decode(b'{"type":"rpc","message-id":"m1","op":"cancel-schedule","params":{}}\n')
        assert msg == RpcMessage("m1", Operation("cancel-schedule"))


class TestEncodeValidation:
    def test_error_reply_cannot_carry_execution_time(self):
        bad = RpcReply("m1", "error", "cancelled", "", 123, None)
        with pytest.raises(ValueError):
            encode(bad)

    def test_ok_reply_cannot_carry_error_code(self):
        bad = RpcReply("m1", "ok", "cancelled", "", None, None)
        with pytest.raises(ValueError):
            encode(bad)

    def test_ok_reply_cannot_carry_error_detail(self):
        # decode() drops error-detail on an ok reply, so it would not survive
        # the round trip.
        bad = RpcReply("m1", "ok", None, "note", 5)
        with pytest.raises(ValueError, match="error-detail"):
            encode(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            RpcReply("m1", "error", 5),  # type: ignore[arg-type]
            RpcReply("m1", "error", "cancelled", 7),  # type: ignore[arg-type]
            RpcReply("m1", "ok", None, None, 5),  # type: ignore[arg-type]
        ],
    )
    def test_error_reply_fields_must_be_strings(self, bad):
        # decode() refuses a non-string error-code or error-detail, and gives
        # an absent error-detail back as "", so None would not round-trip.
        with pytest.raises(ValueError, match="must be a string"):
            encode(bad)

    def test_empty_message_id(self):
        with pytest.raises(ValueError):
            encode(RpcMessage("", Operation("noop")))

    def test_non_string_param(self):
        with pytest.raises(ValueError):
            encode(RpcMessage("m1", Operation("noop", {"k": 5})))  # type: ignore[dict-item]

    def test_oversize(self):
        with pytest.raises(ValueError):
            encode(RpcMessage("m1", Operation("noop", {"k": "v" * MAX_FRAME_BYTES})))

    @pytest.mark.parametrize(
        "msg",
        [
            RpcMessage("m1", Operation("noop", None)),  # type: ignore[arg-type]
            RpcMessage("m1", Operation("noop", [("k", "v")])),  # type: ignore[arg-type]
            RpcReply("m1", "ok", params=[]),  # type: ignore[arg-type]
            RpcReply("m1", "ok", params="value"),  # type: ignore[arg-type]
        ],
    )
    def test_params_that_are_not_a_dict(self, msg):
        with pytest.raises(ValueError, match="params must be a dict"):
            encode(msg)


class TestStreamDecoder:
    """A byte stream decodes as decode() over FrameSplitter's frames."""

    def test_concatenation_preserves_order(self):
        rng = random.Random(7)
        msgs = [random_message(rng) for _ in range(50)]
        blob = b"".join(encode(m) for m in msgs)
        assert [decode(f) for f in FrameSplitter().feed(blob)] == msgs

    def test_arbitrary_chunking(self):
        rng = random.Random(8)
        msgs = [random_message(rng) for _ in range(20)]
        blob = b"".join(encode(m) for m in msgs)
        splitter = FrameSplitter()
        got = []
        i = 0
        while i < len(blob):
            step = rng.randint(1, 7)
            got.extend(decode(f) for f in splitter.feed(blob[i : i + step]))
            i += step
        assert got == msgs
        assert splitter.pending_bytes == 0

    def test_partial_frame_pends(self):
        splitter = FrameSplitter()
        cancel = RpcMessage("m1", Operation("cancel-schedule", {"target-id": "m2"}))
        frame = encode(cancel)
        assert [decode(f) for f in splitter.feed(frame[:10])] == []
        assert splitter.pending_bytes == 10
        assert [decode(f) for f in splitter.feed(frame[10:])] == [cancel]

    def test_unterminated_overflow(self):
        splitter = FrameSplitter()
        with pytest.raises(MalformedFrame):
            [decode(f) for f in splitter.feed(b"x" * (MAX_FRAME_BYTES + 1))]


class TestFrameSplitter:
    def test_many_frames_in_one_chunk(self):
        frames = [b'{"n":%d}\n' % i for i in range(1000)]
        splitter = FrameSplitter()
        assert splitter.feed(b"".join(frames) + b'{"tail"') == frames
        assert splitter.pending_bytes == 7

    def test_byte_at_a_time(self):
        blob = b'{"a":1}\n{"bb":22}\n'
        splitter = FrameSplitter()
        got = [frame for i in range(len(blob)) for frame in splitter.feed(blob[i : i + 1])]
        assert got == [b'{"a":1}\n', b'{"bb":22}\n']
        assert splitter.pending_bytes == 0

    def test_overlong_tail_comes_out_as_one_bogus_frame(self):
        splitter = FrameSplitter()
        half = b"x" * (MAX_FRAME_BYTES // 2)
        assert splitter.feed(b'{"a":1}\n' + half) == [b'{"a":1}\n']
        [bogus] = splitter.feed(half)
        assert bogus == half + half
        assert splitter.pending_bytes == 0
        with pytest.raises(MalformedFrame):
            decode(bogus)
        # The splitter starts afresh after it.
        assert splitter.feed(b'{"b":2}\n') == [b'{"b":2}\n']

    def test_longest_valid_frame_still_fits(self):
        splitter = FrameSplitter()
        body = b"y" * (MAX_FRAME_BYTES - 1)
        assert splitter.feed(body) == []
        assert splitter.feed(b"\n") == [body + b"\n"]


# Strings the escaper has to get right: quotes, backslashes, control
# characters, DEL, non-ASCII, astral code points and lone surrogates.
_TRICKY = st.sampled_from(
    ['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "\u2028", "é", "時", "\U0001f600", "\ud800", "\udfff"]
)
_text = st.text(alphabet=st.one_of(st.characters(codec=None), _TRICKY), max_size=12)
_ident = st.text(alphabet=st.one_of(st.characters(codec=None), _TRICKY), min_size=1, max_size=8)
# Integers the wire carries (at most 19 digits), and any integer at all.
_wire_ints = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63),
    st.sampled_from([0, -1, 2**62, -(2**62), 2**62 - 1, 10**19 - 1, -(10**19) + 1]),
)
_ints = st.one_of(_wire_ints, st.sampled_from([10**19, -(10**19)]), st.integers())
_params = st.dictionaries(_text, _text, max_size=4)
_any_params = st.one_of(
    _params,
    st.dictionaries(st.one_of(_text, st.integers()), st.one_of(_text, st.integers(), st.none()), max_size=3),
)
_rpcs = st.builds(
    RpcMessage,
    st.one_of(_ident, st.just("")),
    st.builds(Operation, st.one_of(_ident, st.just("")), _any_params),
    st.one_of(st.none(), _ints),
    st.booleans(),
)
_replies = st.builds(
    RpcReply,
    _ident,
    st.sampled_from(["ok", "error", "maybe"]),
    st.one_of(st.none(), _text, st.integers()),
    st.one_of(_text, st.integers()),
    st.one_of(st.none(), _ints),
    st.one_of(st.none(), _any_params),
)


class _MessageId(str):
    pass


_messages = st.one_of(
    _rpcs,
    _replies,
    st.builds(ScheduleNotification, st.one_of(_ident, st.just(""))),
)
_valid_messages = st.one_of(
    st.builds(RpcMessage, _ident, st.builds(Operation, _ident, _params), st.one_of(st.none(), _wire_ints), st.booleans()),
    st.builds(
        RpcReply.make_ok,
        _ident,
        execution_time=st.one_of(st.none(), _wire_ints),
        params=st.one_of(st.none(), _params),
    ),
    st.builds(RpcReply.make_error, _ident, _ident, _text),
    st.builds(ScheduleNotification, _ident),
)
_OPTIONAL_FIELDS = {
    "rpc": ["scheduled-time", "get-time"],
    "rpc-reply": ["error-code", "error-detail", "execution-time", "params"],
    "notification": [],
}
# Wrong kinds for each field shape: a bool where an int goes, a float, an
# empty string, a list or object where a string goes, non-string params.
_WRONG_VALUES = [True, False, None, 0, -1, 2**62, 1.5, "", "x", "ok", "error"]
_WRONG_VALUES += [[], ["a"], {}, {"k": 1}, {"k": None}, {"k": ["v"]}, {"k": "v"}]
_WRONG = st.sampled_from(_WRONG_VALUES)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, st.floats(allow_nan=False), _text),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_text, inner, max_size=3)),
    max_leaves=4,
)


@st.composite
def _mutated_frames(draw):
    obj = json.loads(ref_encode(draw(_valid_messages)))
    fields = sorted(obj) + _OPTIONAL_FIELDS[obj["type"]]
    for change in draw(st.lists(st.sampled_from(["drop", "set", "type", "top"]), max_size=3)):
        if not isinstance(obj, dict):
            break
        if change == "drop":
            obj.pop(draw(st.sampled_from(fields)), None)
        elif change == "set":
            obj[draw(st.sampled_from(fields))] = draw(st.one_of(_WRONG, _json_values))
        elif change == "type":
            obj["type"] = draw(st.one_of(_WRONG, _json_values))
        else:
            obj = draw(st.one_of(st.lists(_json_values, max_size=3), _json_values))
    ascii_only = draw(st.booleans())
    text = json.dumps(obj, separators=(",", ":"), ensure_ascii=ascii_only)
    frame = text.encode("utf-8", "surrogatepass") + b"\n"
    damage = draw(
        st.sampled_from(["none", "none", "no-newline", "twice", "bad-utf8", "cut", "spaces", "extra"])
    )
    if damage == "no-newline":
        frame = frame[:-1]
    elif damage == "twice":
        frame += frame
    elif damage == "bad-utf8":
        at = draw(st.integers(0, len(frame)))
        frame = frame[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + frame[at:]
    elif damage == "cut":
        frame = frame[: draw(st.integers(0, len(frame) - 1))] + b"\n"
    elif damage == "spaces":
        frame = b" \t" + frame[:-1] + b" \n"
    elif damage == "extra":
        frame = frame[:-1] + draw(st.sampled_from([b"1", b" {}", b"]"])) + b"\n"
    return frame


def _outcome(fn, arg):
    """What a codec call did: its result, or its exception class and fields."""
    try:
        return "ok", fn(arg)
    except Exception as exc:  # noqa: BLE001 - any difference is the finding
        return (
            type(exc),
            getattr(exc, "field_name", None),
            getattr(exc, "type_value", None),
            str(exc) if isinstance(exc, ValueError) else None,
        )


# One canonical frame of each layout decode() reads without JSON, and a
# cancel: an rpc with params and no scheduled-time.
_RPC = b'{"type":"rpc","message-id":"m1","op":"noop","params":{},"scheduled-time":5,"get-time":true}\n'
_REPLY = b'{"type":"rpc-reply","message-id":"m1","status":"ok","execution-time":7}\n'
_ERROR = b'{"type":"rpc-reply","message-id":"m1","status":"error","error-code":"cancelled"}\n'
_NOTIFY = b'{"type":"notification","message-id":"m1"}\n'
_CANCEL = b'{"type":"rpc","message-id":"m2","op":"cancel-schedule","params":{"target-id":"m1"}}\n'
_DEEP = b"[" * 60000 + b"\n"


class TestDecodeContract:
    """For any bytes, decode() returns a record or raises a ProtocolError."""

    @settings(max_examples=300)
    @given(data=st.one_of(st.binary(max_size=64), _mutated_frames()))
    @example(data=_DEEP)
    @example(data=_REPLY.replace(b":7}", b":" + b"1" * 5000 + b"}"))
    def test_any_bytes_give_a_record_or_a_protocol_error(self, data):
        try:
            msg = decode(data)
        except ProtocolError:
            return
        assert type(msg) in (RpcMessage, RpcReply, ScheduleNotification)

    def test_nesting_too_deep_to_parse_is_malformed(self):
        with pytest.raises(MalformedFrame, match="recursion"):
            decode(_DEEP)

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int digit limit")
    def test_integer_longer_than_the_digit_limit_is_malformed(self):
        digits = b"1" * (sys.get_int_max_str_digits() + 1)
        for frame in (
            _RPC.replace(b":5,", b":" + digits + b","),
            _REPLY.replace(b":7}", b":" + digits + b"}"),
        ):
            with pytest.raises(MalformedFrame, match="digits"):
                decode(frame)


class TestReferenceEquivalence:
    """The per-type codec against the plain dict + json.dumps reference."""

    @settings(max_examples=300)
    @given(msg=_messages)
    # Reply fields of the wrong type, which both encoders refuse.
    @example(msg=RpcReply("m1", "error", 5, 7))
    @example(msg=RpcReply("m1", "ok", None, ["detail"], 3))
    @example(msg=RpcReply("m1", "ok", None, None, 5))
    # An ok reply refuses an error-detail, which decode() would drop.
    @example(msg=RpcReply("m1", "ok", None, "note", 5))
    # A str subclass is escaped as its str.
    @example(msg=RpcMessage(_MessageId("m1"), Operation("noop"), 5))
    # A time of 20 digits, which no decoder takes, is refused.
    @example(msg=RpcMessage("m1", Operation("noop"), 10**19))
    @example(msg=RpcReply.make_ok("m1", execution_time=-(10**19)))
    # A reply's status and error-code are checked before its message-id.
    @example(msg=RpcReply("", "maybe"))
    @example(msg=RpcReply("m1", "error"))
    def test_encode_matches_reference(self, msg):
        assert _outcome(encode, msg) == _outcome(ref_encode, msg)

    @settings(max_examples=300)
    @given(frame=_mutated_frames())
    # Canonical layouts with params and error replies.
    @example(frame=_RPC.replace(b"{}", b'{"key":"k","value":""}'))
    @example(frame=_RPC.replace(b"{}", b'{"k":"a","j":"","k":"b"}'))
    @example(frame=_REPLY.replace(b"}\n", b',"params":{}}\n'))
    @example(frame=_REPLY.replace(b"}\n", b',"params":{"value":"x"}}\n'))
    @example(frame=_ERROR)
    @example(frame=_ERROR.replace(b"}\n", b',"error-detail":"too late"}\n'))
    # Near misses of the canonical layouts, which only the JSON path reads.
    @example(frame=_RPC.replace(b"{}", b'{"":"v"}'))
    @example(frame=_RPC.replace(b"{}", b'{"k":"a\\"b"}'))
    @example(frame=_RPC.replace(b"{}", '{"k":"\u00e9"}'.encode()))
    @example(frame=_RPC.replace(b"{}", b'{"k":1}'))
    @example(frame=_ERROR.replace(b"}\n", b',"execution-time":7}\n'))
    @example(frame=_ERROR.replace(b"}\n", b',"params":{}}\n'))
    @example(frame=_ERROR.replace(b',"error-code":"cancelled"', b""))
    @example(frame=_NOTIFY.replace(b'"m1"', b'"m\\u0031"'))
    @example(frame=_NOTIFY.replace(b'"m1"', '"m\u00e9"'.encode()))
    @example(frame=_RPC.replace(b"true", b"false"))
    @example(frame=_RPC.replace(b":5,", b":01,"))
    @example(frame=_REPLY.replace(b":7}", b":-0}"))
    @example(frame=_RPC.replace(b":5,", b":12345678901234567890,"))
    @example(frame=_REPLY.replace(b":7}", b":" + b"1" * 5000 + b"}"))
    @example(frame=_RPC.replace(b"{}", b"{ }"))
    @example(frame=_NOTIFY[:-1] + b" \n")
    @example(frame=_CANCEL.replace(b'"m1"', b'"' + b"m" * MAX_FRAME_BYTES + b'"'))
    @example(frame=_CANCEL)
    def test_decode_matches_reference(self, frame):
        expected = _outcome(ref_decode, frame)
        assert _outcome(decode, frame) == expected
        assert _outcome(_decode_json, frame) == expected

    def test_decode_matches_reference_on_field_mutations(self):
        """Every field of every frame kind dropped or set wrong, alone and in pairs."""
        drop = object()
        singles = [drop, *_WRONG_VALUES]
        pairs = [drop, True, None, "", "x", "error", 1.5, {}]
        bases = [
            RpcMessage("m1", Operation("op", {"k": "v"}), scheduled_time=5, get_time=True),
            RpcReply.make_ok("m2", execution_time=7, params={"value": "x"}),
            RpcReply.make_error("m3", "cancelled", "why"),
            ScheduleNotification("m4"),
        ]

        def check(obj: dict, changes: dict) -> None:
            obj = dict(obj)
            for key, value in changes.items():
                if value is drop:
                    obj.pop(key, None)
                else:
                    obj[key] = value
            frame = json.dumps(obj, separators=(",", ":")).encode() + b"\n"
            assert _outcome(decode, frame) == _outcome(ref_decode, frame), frame

        for base in bases:
            good = json.loads(ref_encode(base))
            fields = sorted(set(good) | set(_OPTIONAL_FIELDS[good["type"]]))
            for key in fields:
                for value in singles:
                    check(good, {key: value})
            for first, second in itertools.permutations(fields, 2):
                for a, b in itertools.product(pairs, repeat=2):
                    check(good, {first: a, second: b})

    def test_seeded_frames_byte_identical(self):
        rng = random.Random(0xFA57)
        for _ in range(5000):
            msg = random_message(rng)
            frame = encode(msg)
            assert frame == ref_encode(msg)
            assert decode(frame) == ref_decode(frame) == msg

    def test_non_message_rejected(self):
        class TimedRpc(RpcMessage):
            pass

        for msg in ({"type": "rpc"}, TimedRpc("m1", Operation("noop"), 5)):
            with pytest.raises(ValueError, match="not a protocol message"):
                encode(msg)  # type: ignore[arg-type]

    def test_type_of_wrong_kind_is_unknown(self):
        for raw in (b'{"type":["rpc"]}\n', b'{"type":{"a":1}}\n', b'{"type":5}\n', b'{"type":null}\n'):
            with pytest.raises(UnknownType):
                decode(raw)


def ref_verdict(offset: int, future: int, past: int) -> Verdict:
    """Plain restatement of the admission rule, as the boundary oracle."""
    if 0 <= offset <= future:
        return Verdict.ACCEPT
    if -past <= offset < 0:
        return Verdict.ACCEPT_RUN_NOW
    return Verdict.REJECT


class TestValidateSchedule:
    def test_defaults(self):
        cfg = SchedulingRangeConfig()
        assert cfg.sched_max_future == 15 * SECONDS
        assert cfg.sched_max_past == 3 * SECONDS

    def test_boundary_sweep(self):
        cfg = SchedulingRangeConfig(sched_max_future=10_000, sched_max_past=300)
        now = 5_000_000
        offsets = [
            -302, -301, -300, -299, -150, -1, 0, 1, 5_000, 9_999, 10_000, 10_001, 10_002,
        ]
        for offset in offsets:
            expected = ref_verdict(offset, 10_000, 300)
            assert validate_schedule(now + offset, now, cfg) is expected, offset

    def test_exact_named_boundaries(self):
        cfg = SchedulingRangeConfig()
        now = 1_700_000_000 * SECONDS
        assert validate_schedule(now, now, cfg) is Verdict.ACCEPT
        assert (
            validate_schedule(now - cfg.sched_max_past, now, cfg)
            is Verdict.ACCEPT_RUN_NOW
        )
        assert (
            validate_schedule(now - cfg.sched_max_past - 1, now, cfg) is Verdict.REJECT
        )
        assert (
            validate_schedule(now + cfg.sched_max_future, now, cfg) is Verdict.ACCEPT
        )
        assert (
            validate_schedule(now + cfg.sched_max_future + 1, now, cfg)
            is Verdict.REJECT
        )

    def test_zero_past_still_accepts_now(self):
        cfg = SchedulingRangeConfig(sched_max_past=0)
        assert validate_schedule(100, 100, cfg) is Verdict.ACCEPT
        assert validate_schedule(99, 100, cfg) is Verdict.REJECT

    @settings(max_examples=200)
    @given(
        offset=st.integers(min_value=-(2**40), max_value=2**40),
        shift=st.integers(min_value=-(2**50), max_value=2**50),
        now=st.integers(min_value=-(2**50), max_value=2**50),
    )
    def test_shift_invariance(self, offset, shift, now):
        cfg = SchedulingRangeConfig()
        base = validate_schedule(now + offset, now, cfg)
        moved = validate_schedule(now + shift + offset, now + shift, cfg)
        assert base is moved

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulingRangeConfig(sched_max_future=0)
        with pytest.raises(ValueError):
            SchedulingRangeConfig(sched_max_past=-1)
