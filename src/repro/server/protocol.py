"""The framed wire protocol: length-prefixed JSON messages with typed opcodes.

This module is the *pure* half of the network layer — no sockets, no
asyncio, just bytes in and messages out — so the codec can be property- and
fuzz-tested exhaustively (``tests/server/test_net_protocol.py``) without a
running server.  :mod:`repro.server.net` adapts it to asyncio transports.

**Frame format.**  Every message travels as one frame::

    +----------------+----------------------------+
    | length: 4 bytes| payload: `length` bytes    |
    | big-endian u32 | UTF-8 JSON object          |
    +----------------+----------------------------+

The length prefix counts the payload only.  A frame whose declared length
exceeds the configured maximum is rejected *before* its body is buffered
(:class:`~repro.errors.FrameTooLarge`); a payload that is not a UTF-8 JSON
object carrying a known ``op`` code raises
:class:`~repro.errors.FrameCorrupt`.  Both are
:class:`~repro.errors.ProtocolError` subclasses: the server answers with a
final ``error`` frame where possible and closes the connection cleanly.

**Messages.**  Every payload is a JSON object with an ``op`` code
(:class:`Opcode`) and, for request/response pairs, a client-chosen ``id``
echoed back on the response.  Requests carry op-specific fields (the
transaction text for ``commit``, the query for ``read``, ...), declared
in :data:`REQUEST_FIELDS` and validated only by :func:`request_fields`;
responses are either ``result`` (with a ``value``) or ``error`` (with a
``code`` from :data:`ERROR_CODES` and a human-readable ``message``).
``goodbye`` is the one server-initiated message: it announces a graceful
drain before the socket closes.

JSON framing (rather than msgpack or pickle) keeps the protocol
cross-language and — critically for a multi-tenant server — makes frame
decoding side-effect free: no payload can execute code on the server.
"""

from __future__ import annotations

import enum
import json
import struct
from typing import Any, Callable, Iterator, Mapping

from repro.core.reads import ReadMode
from repro.errors import (
    FrameCorrupt,
    FrameTooLarge,
    InvalidTransactionError,
    ParseError,
    ProtocolError,
    QuantumError,
    ReproError,
    SchemaError,
    TenantBackpressure,
    WorldLimitExceeded,
)

#: Big-endian unsigned 32-bit length prefix.
HEADER = struct.Struct(">I")

#: Default ceiling on one frame's payload size (1 MiB).  Large enough for
#: a generous ``commit_batch`` or a wide read result, small enough that a
#: hostile length prefix cannot make the server allocate unbounded memory.
MAX_FRAME_BYTES = 1 << 20


class Opcode(enum.Enum):
    """Every message type the protocol knows.

    Requests (client → server): ``HELLO`` binds the connection's session
    identity (client and tenant names); ``COMMIT``/``COMMIT_BATCH`` submit
    resource transactions; ``READ`` answers queries;
    ``GROUND``/``GROUND_ALL``/``CHECK_IN`` collapse pending transactions; ``STATS`` returns the merged statistics report;
    ``PING`` is a liveness no-op.

    Responses (server → client): ``RESULT`` and ``ERROR`` answer exactly
    one request (matched by ``id``); ``GOODBYE`` is pushed once when the
    server starts a graceful drain.
    """

    HELLO = "hello"
    COMMIT = "commit"
    COMMIT_BATCH = "commit_batch"
    READ = "read"
    GROUND = "ground"
    GROUND_ALL = "ground_all"
    CHECK_IN = "check_in"
    STATS = "stats"
    PING = "ping"
    RESULT = "result"
    ERROR = "error"
    GOODBYE = "goodbye"


#: Opcodes a client may send (everything except the response types).
REQUEST_OPCODES = frozenset(
    op for op in Opcode if op not in (Opcode.RESULT, Opcode.ERROR, Opcode.GOODBYE)
)

_KNOWN_OPS = frozenset(op.value for op in Opcode)


def encode_frame(
    message: Mapping[str, Any], *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Serialize one message into a length-prefixed frame.

    Raises:
        FrameTooLarge: the encoded payload exceeds ``max_frame_bytes``
            (the sender's bound must match the receiver's, or a legitimate
            message would kill the connection on arrival).
        ProtocolError: the message is not JSON-serializable or lacks a
            valid ``op``.
    """
    op = message.get("op")
    if op not in _KNOWN_OPS:
        raise ProtocolError(f"message has no valid opcode: {op!r}")
    try:
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serializable: {exc}") from exc
    if len(payload) > max_frame_bytes:
        raise FrameTooLarge(
            f"encoded frame is {len(payload)} bytes "
            f"(maximum {max_frame_bytes})"
        )
    return HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict[str, Any]:
    """Decode one frame payload into a validated message dictionary."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameCorrupt(f"frame payload is not UTF-8 JSON: {exc}") from exc
    except RecursionError:
        raise FrameCorrupt("frame payload nests too deeply") from None
    if not isinstance(message, dict):
        raise FrameCorrupt(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    op = message.get("op")
    if op not in _KNOWN_OPS:
        raise FrameCorrupt(f"unknown opcode {op!r}")
    return message


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    Feed it whatever ``read()`` returned — single bytes, half frames,
    several frames at once — and it yields every complete message, keeping
    the unconsumed tail buffered for the next feed.  The decoder validates
    the length prefix *before* the payload arrives, so oversized
    declarations fail immediately with :class:`~repro.errors.FrameTooLarge`
    instead of after buffering the body.

    A decoder that raised is poisoned: framing is byte-positional, so
    after a corrupt frame there is no way to resynchronize with the peer —
    the connection must close (which is what the server does).
    """

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Absorb ``data`` and return every message it completed.

        Raises:
            FrameTooLarge: a frame declared a length beyond the maximum.
            FrameCorrupt: a completed payload was not a valid message.
        """
        self._buffer.extend(data)
        return list(self._drain())

    def _drain(self) -> Iterator[dict[str, Any]]:
        while True:
            if len(self._buffer) < HEADER.size:
                return
            (length,) = HEADER.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                raise FrameTooLarge(
                    f"incoming frame declares {length} bytes "
                    f"(maximum {self.max_frame_bytes})"
                )
            end = HEADER.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[HEADER.size : end])
            del self._buffer[:end]
            yield decode_payload(payload)


# ---------------------------------------------------------------------------
# Requests: each opcode's fields
# ---------------------------------------------------------------------------


def _natural(value: Any) -> bool:
    return type(value) is int and value >= 0  # a bool is no integer here


def _list_of(check: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: isinstance(value, list) and all(map(check, value))


#: What each field kind accepts.  A commit item is a text or an object
#: checked against ``commit``'s own row.
FIELD_KINDS: dict[str, Callable[[Any], bool]] = {
    "text": lambda value: isinstance(value, str),
    "integer >= 0": _natural,
    "list of integers >= 0": _list_of(_natural),
    "list of scalars or nulls": _list_of(
        lambda term: term is None or isinstance(term, (str, int, float))
    ),
    "list of texts": _list_of(lambda value: isinstance(value, str)),
    "read mode": lambda value: value in [mode.value for mode in ReadMode],
    "list of commit items": _list_of(lambda item: isinstance(item, (str, dict))),
}

#: Each request opcode's fields: name -> (kind, required).  A null field
#: counts as absent; a field not named here is ignored.
REQUEST_FIELDS: dict[Opcode, dict[str, tuple[str, bool]]] = {
    Opcode.HELLO: {"client": ("text", False), "tenant": ("text", False)},
    Opcode.COMMIT: {
        "text": ("text", True), "client": ("text", False), "partner": ("text", False)
    },
    Opcode.COMMIT_BATCH: {"transactions": ("list of commit items", True)},
    Opcode.READ: {
        "request": ("text", True),
        "terms": ("list of scalars or nulls", True),
        "mode": ("read mode", False),
        "select": ("list of texts", False),
        "limit": ("integer >= 0", False),
    },
    Opcode.GROUND: {"transaction_ids": ("list of integers >= 0", True)},
    Opcode.GROUND_ALL: {},
    Opcode.CHECK_IN: {"transaction_id": ("integer >= 0", True)},
    Opcode.STATS: {},
    Opcode.PING: {},
}

#: The rows by opcode text, as a message carries it, each with its check.
_ROWS = {
    op.value: [(field, *spec, FIELD_KINDS[spec[0]]) for field, spec in row.items()]
    for op, row in REQUEST_FIELDS.items()
}


def request_fields(message: Mapping[str, Any]) -> dict[str, Any]:
    """The declared fields of a request, checked against its opcode's row
    (absent ones left out; a ``commit_batch`` item becomes a ``commit``'s).

    Raises ``ProtocolError`` naming the opcode and the field at fault.
    """
    op = message["op"]
    fields: dict[str, Any] = {}
    for name, kind, required, check in _ROWS[op]:
        value = message.get(name)
        if value is None:
            if required:
                raise ProtocolError(f"{op} needs a {name!r} field ({kind})")
        elif not check(value):
            raise ProtocolError(f"{op} field {name!r} must be {kind}")
        elif kind == "list of commit items":
            items = [{"text": i} if isinstance(i, str) else i for i in value]
            fields[name] = [request_fields({**i, "op": "commit"}) for i in items]
        else:
            fields[name] = value
    return fields


# ---------------------------------------------------------------------------
# Error frames: typed exceptions <-> wire codes
# ---------------------------------------------------------------------------

#: Wire error codes, most specific exception first (the mapping is walked
#: in order, so subclasses must precede their bases).
ERROR_CODES: tuple[tuple[type[Exception], str], ...] = (
    (TenantBackpressure, "tenant_backpressure"),
    (ParseError, "parse_error"),
    (InvalidTransactionError, "invalid_transaction"),
    (FrameTooLarge, "frame_too_large"),
    (FrameCorrupt, "frame_corrupt"),
    (ProtocolError, "protocol_error"),
    (WorldLimitExceeded, "world_limit"),
    (QuantumError, "quantum_error"),
    (SchemaError, "schema_error"),
    (ReproError, "error"),
)

#: Code the server answers with once a drain started: the request was NOT
#: processed and will not be — reconnect elsewhere or give up.
DRAINING_CODE = "draining"

_CODE_TO_EXCEPTION: dict[str, type[Exception]] = {
    code: exc_type for exc_type, code in ERROR_CODES
}
_CODE_TO_EXCEPTION[DRAINING_CODE] = QuantumError


def error_code_for(exc: BaseException) -> str:
    """The wire code for an exception (``"internal"`` for foreign ones)."""
    for exc_type, code in ERROR_CODES:
        if isinstance(exc, exc_type):
            return code
    return "internal"


def exception_for(code: str, message: str) -> Exception:
    """Rebuild a typed exception from an error frame (client side)."""
    return _CODE_TO_EXCEPTION.get(code, QuantumError)(message)


def error_frame(request_id: Any, exc_or_code: BaseException | str, message: str | None = None) -> dict[str, Any]:
    """Build an ``error`` response message."""
    if isinstance(exc_or_code, BaseException):
        code = error_code_for(exc_or_code)
        text = message if message is not None else str(exc_or_code)
    else:
        code, text = exc_or_code, message or exc_or_code
    return {"op": Opcode.ERROR.value, "id": request_id, "code": code, "message": text}


def result_frame(request_id: Any, value: Any) -> dict[str, Any]:
    """Build a ``result`` response message."""
    return {"op": Opcode.RESULT.value, "id": request_id, "value": value}


# ---------------------------------------------------------------------------
# Value serialization: session results <-> JSON-safe payloads
# ---------------------------------------------------------------------------


def commit_value(result: Any) -> dict[str, Any]:
    """JSON-safe payload for a :class:`~repro.core.quantum_database.CommitResult`.

    Grounded side effects travel as serialized grounding records, exactly
    like :func:`grounded_value`.
    """
    return {
        "transaction_id": result.transaction_id,
        "committed": bool(result.committed),
        "pending": bool(result.pending),
        "rejection_reason": result.rejection_reason,
        "grounded": [grounded_value(record) for record in result.grounded],
        # Decision provenance: which admission search decided.
        "method": result.method,
    }


def grounded_value(record: Any) -> dict[str, Any]:
    """JSON-safe payload for one grounded transaction (id + valuation)."""
    return {
        "transaction_id": record.transaction_id,
        "valuation": dict(record.valuation),
    }
