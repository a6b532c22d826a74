"""Property and fuzz tests for the framed wire protocol codec and the
request table.

The codec (:mod:`repro.server.protocol`) is pure — bytes in, messages
out — so these tests hammer it without a running server: round-trips for
every opcode, arbitrary read-boundary splits (the decoder must reassemble
frames fed one byte at a time exactly as fed all at once), and hostile
inputs (truncated frames, garbage bytes, oversized length declarations)
that must produce a *typed* error, never an unhandled exception.

The request-schema fuzz sends every request opcode, with fields missing,
extra and mistyped, to one loopback server per test: every answer is a
result or a typed error, and the connection goes on serving commits with
the pending table equal to the pending set.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NetClient, NetworkServer, QuantumConfig, QuantumDatabase
from repro.core.reads import ReadMode

from repro.errors import (
    FrameCorrupt,
    FrameTooLarge,
    ProtocolError,
    QuantumError,
    TenantBackpressure,
    WorldLimitExceeded,
)
from repro.server import client as client_module
from repro.server.protocol import (
    ERROR_CODES,
    FIELD_KINDS,
    HEADER,
    MAX_FRAME_BYTES,
    REQUEST_FIELDS,
    REQUEST_OPCODES,
    FrameDecoder,
    Opcode,
    decode_payload,
    encode_frame,
    error_code_for,
    error_frame,
    exception_for,
    request_fields,
    result_frame,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: JSON-safe scalar values.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=40),
)

#: Shallow JSON-safe values (scalars, lists, dicts) for message fields.
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=10,
)

#: Arbitrary protocol messages: a valid opcode plus arbitrary fields.
messages = st.builds(
    lambda op, fields: {**fields, "op": op.value},
    st.sampled_from(list(Opcode)),
    st.dictionaries(
        st.text(min_size=1, max_size=10).filter(lambda k: k != "op"),
        json_values,
        max_size=5,
    ),
)


def chunked(data: bytes, cut_points: list[int]) -> list[bytes]:
    """Split ``data`` at the given sorted positions."""
    chunks, start = [], 0
    for point in sorted(set(cut_points)):
        chunks.append(data[start:point])
        start = point
    chunks.append(data[start:])
    return [c for c in chunks if c]


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("op", list(Opcode))
    def test_every_opcode_round_trips(self, op):
        message = {"op": op.value, "id": 7, "payload": ["x", 1, None]}
        frames = FrameDecoder().feed(encode_frame(message))
        assert frames == [message]

    @given(message=messages)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_messages_round_trip(self, message):
        frames = FrameDecoder().feed(encode_frame(message))
        assert frames == [message]

    @given(batch=st.lists(messages, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_concatenated_frames_round_trip(self, batch):
        stream = b"".join(encode_frame(m) for m in batch)
        assert FrameDecoder().feed(stream) == batch


class TestReadBoundarySplits:
    """The decoder must be insensitive to how the byte stream is chunked."""

    @given(
        batch=st.lists(messages, min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_splits(self, batch, data):
        stream = b"".join(encode_frame(m) for m in batch)
        cuts = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=max(1, len(stream) - 1)),
                max_size=8,
            )
        )
        decoder = FrameDecoder()
        received = []
        for chunk in chunked(stream, cuts):
            received.extend(decoder.feed(chunk))
        assert received == batch
        assert len(decoder._buffer) == 0

    def test_one_byte_at_a_time(self):
        message = {"op": "commit", "id": 1, "text": "-A(?x) :-1 A(?x)"}
        stream = encode_frame(message)
        decoder = FrameDecoder()
        received = []
        for i in range(len(stream)):
            received.extend(decoder.feed(stream[i : i + 1]))
            if i < len(stream) - 1:
                assert received == []
                assert len(decoder._buffer) == i + 1
        assert received == [message]

    def test_half_frame_stays_buffered(self):
        stream = encode_frame({"op": "ping", "id": 3})
        decoder = FrameDecoder()
        assert decoder.feed(stream[: len(stream) // 2]) == []
        assert len(decoder._buffer) == len(stream) // 2
        assert decoder.feed(stream[len(stream) // 2 :]) == [
            {"op": "ping", "id": 3}
        ]


# ---------------------------------------------------------------------------
# Hostile input
# ---------------------------------------------------------------------------


class TestHostileInput:
    def test_oversized_declaration_rejected_before_payload(self):
        decoder = FrameDecoder(max_frame_bytes=1024)
        with pytest.raises(FrameTooLarge):
            # Only the header arrives; the decoder must not wait for 2 GiB.
            decoder.feed(HEADER.pack(1 << 31))

    def test_oversized_payload_rejected_at_encode_time(self):
        with pytest.raises(FrameTooLarge):
            encode_frame(
                {"op": "commit", "text": "x" * 200}, max_frame_bytes=64
            )

    def test_default_bound_is_one_mib(self):
        with pytest.raises(FrameTooLarge):
            FrameDecoder().feed(HEADER.pack(MAX_FRAME_BYTES + 1))
        assert FrameDecoder().feed(HEADER.pack(MAX_FRAME_BYTES)) == []

    @given(garbage=st.binary(min_size=0, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_garbage_never_escapes_typed_errors(self, garbage):
        decoder = FrameDecoder(max_frame_bytes=4096)
        try:
            decoder.feed(garbage)
        except ProtocolError:
            pass  # typed: FrameTooLarge or FrameCorrupt

    def test_non_utf8_payload_is_corrupt(self):
        payload = b"\xff\xfe\x01"
        with pytest.raises(FrameCorrupt):
            FrameDecoder().feed(HEADER.pack(len(payload)) + payload)

    def test_non_object_json_is_corrupt(self):
        payload = json.dumps([1, 2, 3]).encode()
        with pytest.raises(FrameCorrupt):
            FrameDecoder().feed(HEADER.pack(len(payload)) + payload)

    def test_unknown_opcode_is_corrupt(self):
        payload = json.dumps({"op": "dance"}).encode()
        with pytest.raises(FrameCorrupt):
            FrameDecoder().feed(HEADER.pack(len(payload)) + payload)

    def test_missing_opcode_is_corrupt(self):
        payload = json.dumps({"id": 1}).encode()
        with pytest.raises(FrameCorrupt):
            FrameDecoder().feed(HEADER.pack(len(payload)) + payload)

    def test_encode_rejects_invalid_opcode(self):
        with pytest.raises(ProtocolError):
            encode_frame({"op": "dance"})
        with pytest.raises(ProtocolError):
            encode_frame({"id": 1})

    def test_encode_rejects_unserializable_message(self):
        with pytest.raises(ProtocolError):
            encode_frame({"op": "commit", "payload": object()})

    def test_decode_payload_direct(self):
        with pytest.raises(FrameCorrupt):
            decode_payload(b"not json at all")

    def test_deep_nesting_is_corrupt(self):
        depth = 10_000
        payload = ('{"op":"ping","x":' + "[" * depth + "]" * depth + "}").encode()
        assert len(payload) < MAX_FRAME_BYTES
        with pytest.raises(FrameCorrupt, match="nests too deeply"):
            decode_payload(payload)


# ---------------------------------------------------------------------------
# Error frames
# ---------------------------------------------------------------------------


class TestErrorFrames:
    def test_subclasses_precede_bases(self):
        # The mapping is walked in order, so a subclass listed after its
        # base would be unreachable.
        types = [exc_type for exc_type, _ in ERROR_CODES]
        for i, exc_type in enumerate(types):
            for later in types[i + 1 :]:
                assert not issubclass(later, exc_type) or later is exc_type, (
                    f"{later.__name__} is shadowed by {exc_type.__name__}"
                )

    @pytest.mark.parametrize("exc_type,code", list(ERROR_CODES))
    def test_codes_round_trip_to_typed_exceptions(self, exc_type, code):
        assert error_code_for(exc_type("boom")) == code
        rebuilt = exception_for(code, "boom")
        assert isinstance(rebuilt, exc_type)
        assert str(rebuilt) == "boom"

    def test_tenant_before_session_backpressure(self):
        # A QuantumError subclass, with its own wire code ahead of its base.
        assert error_code_for(TenantBackpressure("t")) == "tenant_backpressure"

    def test_foreign_exception_maps_to_internal(self):
        assert error_code_for(ValueError("nope")) == "internal"
        assert isinstance(exception_for("internal", "nope"), QuantumError)
        assert isinstance(exception_for("draining", "bye"), QuantumError)

    def test_error_frame_from_exception_and_code(self):
        frame = error_frame(9, TenantBackpressure("over quota"))
        assert frame == {
            "op": "error",
            "id": 9,
            "code": "tenant_backpressure",
            "message": "over quota",
        }
        frame = error_frame(None, "draining", "bye")
        assert frame["code"] == "draining" and frame["id"] is None

    def test_result_frame_echoes_id(self):
        frame = result_frame(42, {"pong": True})
        assert frame == {"op": "result", "id": 42, "value": {"pong": True}}
        # Frames are themselves encodable.
        assert FrameDecoder().feed(encode_frame(frame)) == [frame]


# ---------------------------------------------------------------------------
# The request table
# ---------------------------------------------------------------------------


class TestRequestFields:
    def test_every_request_opcode_has_a_row(self):
        assert set(REQUEST_FIELDS) == REQUEST_OPCODES
        kinds = {kind for row in REQUEST_FIELDS.values() for kind, _ in row.values()}
        assert kinds == set(FIELD_KINDS)

    def test_only_declared_fields_come_back_and_null_is_absent(self):
        message = {
            "op": "read",
            "id": 3,
            "request": "Bookings",
            "terms": ["Mickey", None, None],
            "limit": None,
            "extra": [1, 2],
        }
        assert request_fields(message) == {
            "request": "Bookings",
            "terms": ["Mickey", None, None],
        }

    def test_commit_items_come_back_as_commit_fields(self):
        message = {
            "op": "commit_batch",
            "transactions": ["t1", {"text": "t2", "client": "c", "x": 1}],
        }
        assert request_fields(message) == {
            "transactions": [{"text": "t1"}, {"text": "t2", "client": "c"}]
        }

    @pytest.mark.parametrize(
        "message,named",
        [
            ({"op": "check_in"}, "check_in needs a 'transaction_id'"),
            ({"op": "ground", "transaction_ids": [1, -1]}, "ground field 'transaction_ids'"),
            ({"op": "read", "request": "A", "terms": [], "mode": "x"}, "read field 'mode'"),
            ({"op": "commit_batch", "transactions": [{}]}, "commit needs a 'text'"),
            ({"op": "hello", "tenant": 1}, "hello field 'tenant'"),
        ],
    )
    def test_refusal_names_the_opcode_and_the_field(self, message, named):
        with pytest.raises(ProtocolError, match=named):
            request_fields(message)

    def test_ids_are_integers_at_least_zero(self):
        assert request_fields({"op": "check_in", "transaction_id": 10**30})
        for bad in (-1, True, 1.0, "1"):
            with pytest.raises(ProtocolError):
                request_fields({"op": "check_in", "transaction_id": bad})

    def test_every_netclient_frame_passes_the_table(self, monkeypatch):
        sent = []
        encode = client_module.encode_frame

        def recording(message, **kwargs):
            sent.append(dict(message))
            return encode(message, **kwargs)

        monkeypatch.setattr(client_module, "encode_frame", recording)

        async def main():
            async with NetworkServer(make_qdb()) as net:
                client = await NetClient.connect(
                    "127.0.0.1", net.port, client="c", tenant="t"
                )
                result = await client.commit(booking("a", 1), client="a", partner="b")
                await client.commit_batch(
                    [booking("b", 1), {"text": booking("c", 1), "client": "c"}]
                )
                await client.read(
                    "Bookings", [None, 1, None], mode="PEEK", select=["_0"], limit=2
                )
                await client.ground([result.transaction_id])
                await client.ground_all()
                await client.check_in(result.transaction_id)
                await client.stats()
                await client.ping()
                await client.close()

        asyncio.run(asyncio.wait_for(main(), 30))
        assert {message["op"] for message in sent} == {op.value for op in REQUEST_OPCODES}
        for message in sent:
            declared = request_fields(message)
            sent_fields = {k: v for k, v in message.items() if k not in ("op", "id")}
            if message["op"] != "commit_batch":
                assert declared == sent_fields


# ---------------------------------------------------------------------------
# Request-schema fuzz over a loopback server
# ---------------------------------------------------------------------------


def make_qdb():
    qdb = QuantumDatabase(config=QuantumConfig(k=8))
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    qdb.load_rows("Available", [(f, f"s{i}") for f in (1, 2) for i in range(400)])
    return qdb


def booking(user, flight):
    return (
        f"-Available({flight}, ?s), +Bookings('{user}', {flight}, ?s)"
        f" :-1 Available({flight}, ?s)"
    )


#: Transaction texts a fuzzed commit may carry: valid, unparseable, and
#: updates that could never apply.
TEXTS = st.one_of(
    st.sampled_from(
        [
            booking("fuzz", 2),
            "-Available(2, ?s), +Bookings('a', 2) :-1 Available(2, ?s)",
            "-Available(?s), +Bookings('a', 2, ?s) :-1 Available(2, ?s)",
            "+Nope(1) :-1 Available(2, ?s)",
        ]
    ),
    st.text(max_size=30),
)
ids = st.one_of(st.integers(min_value=0, max_value=50), st.just(10**30))
terms = st.lists(
    st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["s1", "fuzz"]), st.floats()),
    max_size=4,
)
commit_objects = st.fixed_dictionaries(
    {},
    optional={
        "text": TEXTS,
        "client": st.one_of(st.text(max_size=5), json_values),
        "partner": st.one_of(st.text(max_size=5), json_values),
    },
)

#: A well-typed value of each field kind.
WELL_TYPED = {
    "text": st.one_of(st.sampled_from(["Available", "Bookings", "Nope"]), TEXTS),
    "integer >= 0": ids,
    "list of integers >= 0": st.lists(ids, max_size=3),
    "list of scalars or nulls": terms,
    "list of texts": st.lists(st.sampled_from(["_0", "_1", "zz"]), max_size=2),
    "read mode": st.sampled_from([mode.value for mode in ReadMode]),
    "list of commit items": st.lists(st.one_of(TEXTS, commit_objects), max_size=3),
}


def request_messages(op):
    """``op`` requests whose declared fields are each missing, well typed
    or mistyped, plus arbitrary extra fields."""
    declared = {
        name: st.one_of(WELL_TYPED[kind], json_values)
        for name, (kind, _) in REQUEST_FIELDS[op].items()
    }
    extra = st.dictionaries(
        st.text(min_size=1, max_size=8).filter(
            lambda key: key not in declared and key not in ("op", "id")
        ),
        json_values,
        max_size=2,
    )
    return st.builds(
        lambda fields, extra: {**extra, **fields, "op": op.value, "id": 1},
        st.fixed_dictionaries({}, optional=declared),
        extra,
    )


class LoopbackServer:
    """One server and one raw connection on a private event loop, kept
    across every example of a test."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.qdb = make_qdb()
        self.net = NetworkServer(self.qdb)
        self.reader, self.writer = self.run(self._open())

    async def _open(self):
        await self.net.start()
        return await asyncio.open_connection("127.0.0.1", self.net.port)

    def run(self, coroutine):
        return self.loop.run_until_complete(asyncio.wait_for(coroutine, 10))

    def call(self, message):
        async def exchange():
            self.writer.write(encode_frame(message))
            header = await self.reader.readexactly(HEADER.size)
            (length,) = HEADER.unpack(header)
            return json.loads(await self.reader.readexactly(length))

        return self.run(exchange())

    def close(self):
        self.writer.close()
        self.run(self.net.drain())
        self.loop.close()


@pytest.mark.parametrize("op", sorted(REQUEST_OPCODES, key=lambda op: op.value))
def test_fuzzed_requests_answer_typed_and_leave_the_connection_serving(op):
    server = LoopbackServer()

    @settings(max_examples=40, deadline=None)
    @given(message=request_messages(op))
    def check(message):
        answer = server.call(message)
        assert answer["id"] == 1
        assert answer["op"] == "result" or answer["code"] not in ("internal", "error")
        commit = server.call({"op": "commit", "id": 2, "text": booking("ok", 1)})
        assert commit["op"] == "result", commit
        stored = sorted(t.transaction_id for _, t in server.qdb.pending_store.restore())
        in_memory = sorted(
            e.transaction_id for e in server.qdb.state.pending_transactions()
        )
        assert stored == in_memory
        if len(in_memory) > 4:
            assert server.call({"op": "ground_all", "id": 3})["op"] == "result"

    try:
        check()
        assert server.net.statistics.protocol_errors == 0
    finally:
        server.close()


def test_expose_all_past_the_world_bound_answers_world_limit():
    # Two pending bookings on the 400-seat flight have 400 × 399 worlds,
    # past the 10 000 bound.  The enumeration counts a step's groundings
    # before forking any world, so the read is refused quickly and typed
    # instead of copying the database ten thousand times.
    server = LoopbackServer()
    try:
        for user in ("a", "b"):
            commit = server.call({"op": "commit", "id": 1, "text": booking(user, 1)})
            assert commit["value"]["pending"] is True, commit
        read = {"op": "read", "id": 2, "request": "Bookings", "terms": [None, None, None]}
        answer = server.call({**read, "mode": ReadMode.EXPOSE_ALL.value})
        assert answer["op"] == "error" and answer["code"] == "world_limit", answer
        assert isinstance(exception_for(answer["code"], "x"), WorldLimitExceeded)
        # The writer is still serving, and nothing was grounded.
        assert server.call({**read, "mode": ReadMode.PEEK.value})["op"] == "result"
        assert len(server.qdb.state.pending_transactions()) == 2
    finally:
        server.close()
