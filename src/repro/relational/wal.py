"""A write-ahead log for the relational store.

The quantum database achieves durability of *pending* resource transactions
by serialising them into a pending-transactions table before commit (paper,
Section 4, "Recovery").  That table lives in the ordinary relational store,
so the store itself needs a recovery story: this module provides a minimal
physiological WAL — ordered records of row-level inserts and deletes tagged
with transaction ids and commit/abort markers — that recovery replays
(:func:`repro.relational.recovery.replay_into`).

A log has one byte form, a *frame stream*: each record
(:meth:`LogRecord.to_bytes`: a fixed ``struct`` head, then a marshalled
body) behind a length and a CRC-32 (:func:`encode_frame`).
:class:`WriteAheadLog` keeps its records in memory; it is the log of an
embedded store, and :meth:`~WriteAheadLog.dump` / :meth:`~WriteAheadLog.load`
carry it as that stream.  The one file-backed log is the segmented
engine, :class:`repro.storage.SegmentedWriteAheadLog`, a subclass whose
segment files hold the same frames; both read them back through
:func:`decode_frames`.  Two properties matter to the session layer built
on top (:mod:`repro.server`, see ``docs/architecture.md``):

* **Thread-safety** — every mutation of the log happens under one
  internal lock, because the segmented engine's compactor thread touches
  the log beside the thread that appends to it.
* **Checkpoints** — :meth:`WriteAheadLog.checkpoint` folds the whole log
  into one CHECKPOINT record carrying a database snapshot, bounding the
  recovery replay work for long-running servers (graceful shutdown calls
  it; see :meth:`repro.relational.database.Database.checkpoint`).
"""

from __future__ import annotations

import enum
import marshal
import struct
import threading
import zlib
from dataclasses import dataclass, field
from types import NoneType
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

from repro.errors import RecoveryError


class LogRecordType(enum.Enum):
    """Kinds of WAL records.

    ``CHECKPOINT`` is the in-memory log's fold (one record carrying a full
    snapshot, the rest of the log discarded).  The segmented durability
    engine (:mod:`repro.storage`) instead writes a *checkpoint lineage*:
    a periodic ``CHECKPOINT_BASE`` (full snapshot) chained with
    ``CHECKPOINT_DELTA`` records carrying only the rows changed since the
    previous checkpoint, so the checkpoint pause is proportional to churn,
    not store size.

    Attributes:
        is_checkpoint: True for the checkpoint family (the three kinds
            above).
        is_snapshot: True for the kinds that restore a full snapshot in
            replay (``CHECKPOINT`` and ``CHECKPOINT_BASE``, which replay
            identically).

    Open and replay test a record's kind once per record through these
    plain attributes: a member is hashed by a Python-level
    ``Enum.__hash__``, so a set membership test costs several times more.
    """

    BEGIN = "BEGIN"
    INSERT = "INSERT"
    DELETE = "DELETE"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    CHECKPOINT = "CHECKPOINT"
    CHECKPOINT_BASE = "CHECKPOINT_BASE"
    CHECKPOINT_DELTA = "CHECKPOINT_DELTA"

    def __init__(self, value: str) -> None:
        self.is_checkpoint = value.startswith("CHECKPOINT")
        self.is_snapshot = value in ("CHECKPOINT", "CHECKPOINT_BASE")


#: The binary codec's table, by kind code: the kind, the types its
#: ``(table, body)`` pair must have, and the record field the body fills.
#: Segment files carry the code, so a code is never reused or renumbered.
_CODEC = {
    1: (LogRecordType.BEGIN, NoneType, NoneType, "values"),
    2: (LogRecordType.INSERT, str, tuple, "values"),
    3: (LogRecordType.DELETE, str, tuple, "values"),
    4: (LogRecordType.COMMIT, NoneType, NoneType, "values"),
    5: (LogRecordType.ABORT, NoneType, NoneType, "values"),
    6: (LogRecordType.CHECKPOINT, NoneType, dict, "snapshot"),
    7: (LogRecordType.CHECKPOINT_BASE, NoneType, dict, "snapshot"),
    8: (LogRecordType.CHECKPOINT_DELTA, NoneType, dict, "delta"),
}
#: kind → (kind code, the record field that is its body).
_ENCODE = {
    kind: (code, body_field)
    for code, (kind, _t, _b, body_field) in _CODEC.items()
}

#: The fixed head of :meth:`LogRecord.to_bytes`: LSN, kind code and
#: transaction id, big-endian.
_HEAD = struct.Struct(">QBQ")

#: The first two bytes of ``marshal.dumps((table, body), 4)``: a small
#: tuple of two items, with or without marshal's reference flag.
_PAIR_PREFIXES = (b")\x02", b"\xa9\x02")

#: The whole body of a BEGIN, COMMIT or ABORT record: the pair
#: ``(None, None)``.  Matched as bytes, so these records skip marshal.
_EMPTY_BODIES = (b")\x02NN", b"\xa9\x02NN")

#: What :func:`_check_counts` does at each marshal type code, with or
#: without the reference flag (0x80): a positive number is the code's
#: whole size in bytes; the rest read a length or count after the code.
_SHORT_TEXT, _TEXT, _SMALL_ITEMS, _ITEMS, _DIGITS = -1, -2, -3, -4, -5
_STEP = [0] * 256  # 0: a code no record body holds
for _codes, _step in (
    ("NTF0{", 1),  # None, True, False, a dict's end mark, a dict
    ("ir", 5),  # a 32-bit int, a back-reference
    ("g", 9),  # a binary float
    ("zZ", _SHORT_TEXT),  # ASCII text, a 1-byte length
    ("aAut", _TEXT),  # text, a 4-byte length
    (")", _SMALL_ITEMS),  # a tuple of fewer than 256 items, a 1-byte count
    ("([<>", _ITEMS),  # a tuple, list, set or frozenset, a 4-byte count
    ("l", _DIGITS),  # a long int, a 4-byte signed count of 2-byte digits
):
    for _code in _codes.encode():
        _STEP[_code] = _STEP[_code | 0x80] = _step
_COUNT = struct.Struct("<i")


def _check_counts(payload: bytes, offset: int) -> None:
    """Refuse a marshalled value whose counts claim more than ``payload`` holds.

    marshal allocates a tuple, list or long int by the count it reads,
    before it reads one item, and nests containers up to 2000 deep: a
    few type codes and 4-byte counts behind a valid CRC can make it
    claim gigabytes.  This walks the value's type codes from ``offset``
    in marshal's own order — a code, its fixed-size or length-prefixed
    data, then a container's items — and raises :class:`ValueError` for
    a code no record body holds, a negative count, text or digits that
    run past the end, or item counts that add up to more than the bytes
    from ``offset`` on.  Every item of every container starts at a type
    code of its own, so the counts of a well-formed value always fit;
    one whose counts fit makes marshal allocate a small multiple of its
    own size at most, however deep its containers nest.
    """
    start = offset
    end = len(payload)
    items = 0
    while offset < end:
        step = _STEP[payload[offset]]
        if step > 0:
            offset += step
        elif step == _SMALL_ITEMS:
            items += payload[offset + 1]
            offset += 2
        elif step == _SHORT_TEXT:
            offset += 2 + payload[offset + 1]
        elif not step:
            raise ValueError(f"marshal type code {payload[offset]:#x} at {offset}")
        else:
            (count,) = _COUNT.unpack_from(payload, offset + 1)
            offset += 5
            if count < 0 and step != _DIGITS:
                raise ValueError(f"a count of {count} at {offset - 5}")
            if step == _ITEMS:
                items += count
                continue
            size = 2 * abs(count) if step == _DIGITS else count
            if size > end - offset:
                raise ValueError(
                    f"a length of {count} at {offset - 5} claims {size} "
                    f"bytes with {end - offset} bytes left"
                )
            offset += size
    if items > end - start:
        raise ValueError(
            f"counts claim {items} items in a body of {end - start} bytes"
        )


_new = tuple.__new__


class LogRecord(NamedTuple):
    """A single WAL record.

    A named tuple: immutable, compared field by field, and built on the
    open path by one ``tuple.__new__`` per decoded record.

    Attributes:
        lsn: log sequence number (monotonically increasing).
        record_type: the record kind.
        transaction_id: id of the transaction that produced the record
            (0 for CHECKPOINT records, which belong to no transaction).
        table: affected table (INSERT/DELETE records only).
        values: affected row values (INSERT/DELETE records only).
        snapshot: full extensional state (CHECKPOINT/CHECKPOINT_BASE records
            only): table name → list of row-value tuples.
        delta: net row changes since the previous checkpoint in the lineage
            (CHECKPOINT_DELTA records only): table name →
            ``{"delete": [rows gone], "insert": [rows new]}``.  Replay
            applies the deletes before the inserts.
    """

    lsn: int
    record_type: LogRecordType
    transaction_id: int
    table: str | None = None
    values: tuple[Any, ...] | None = None
    snapshot: Mapping[str, Sequence[Sequence[Any]]] | None = None
    delta: Mapping[str, Mapping[str, Sequence[Sequence[Any]]]] | None = None

    def to_bytes(self) -> bytes:
        """Encode the record as the payload of one frame.

        A fixed head — LSN, kind code, transaction id (``struct``
        ``>QBQ``, 17 bytes) — then ``marshal.dumps((table, body), 4)``,
        where ``body`` is the values tuple of an INSERT / DELETE, the
        snapshot of a CHECKPOINT / CHECKPOINT_BASE, the delta of a
        CHECKPOINT_DELTA and ``None`` for the rest.  marshal writes every
        column value type as it is: tuples stay tuples, ``True`` stays
        distinct from ``1``, floats keep ``inf``, ``nan`` and ``-0.0``,
        ints keep any size and text any code point, lone surrogates
        included.  :meth:`from_bytes` reads it back.

        Raises:
            ValueError: for a value marshal cannot write (an instance of
                a subclass of a column type, for example).
        """
        code, body_field = _ENCODE[self.record_type]
        head = _HEAD.pack(self.lsn, code, self.transaction_id)
        return head + marshal.dumps((self.table, getattr(self, body_field)), 4)

    @staticmethod
    def head_from_bytes(payload: bytes) -> tuple[int, LogRecordType]:
        """``(lsn, record_type)`` of a :meth:`to_bytes` payload.

        Reads only the fixed head, so a record is classified without
        decoding its row values or snapshot.

        Raises:
            RecoveryError: for a payload shorter than the head or an
                unknown kind code.
        """
        try:
            lsn, code, _transaction_id = _HEAD.unpack_from(payload)
            return lsn, _CODEC[code][0]
        except (struct.error, KeyError) as exc:
            raise RecoveryError(f"malformed log record: {payload[:80]!r}") from exc

    @classmethod
    def from_bytes(cls, payload: bytes) -> "LogRecord":
        """Decode a payload produced by :meth:`to_bytes`.

        Fails closed: a short head, an unknown kind code, a body that is
        not one marshalled ``(table, body)`` pair, a count in it larger
        than the bytes left (refused before marshal allocates by it), or
        a pair of the wrong types for the kind — INSERT / DELETE need a
        ``str`` table and a ``tuple`` of values, checkpoints a ``dict``
        body, the rest neither — raises :class:`RecoveryError`.  The row
        values themselves are validated where replay inserts or restores
        them.
        """
        try:
            lsn, code, transaction_id = _HEAD.unpack_from(payload)
            kind, table_type, body_type, body_field = _CODEC[code]
            if body_type is NoneType:
                if payload[_HEAD.size :] not in _EMPTY_BODIES:
                    raise ValueError("the body is not a marshalled (None, None)")
                return _new(cls, (lsn, kind, transaction_id, None, None, None, None))
            if payload[_HEAD.size : _HEAD.size + 2] not in _PAIR_PREFIXES:
                raise ValueError("the body is not a marshalled pair")
            _check_counts(payload, _HEAD.size + 2)
            table, body = marshal.loads(memoryview(payload)[_HEAD.size :])
        except (
            struct.error,
            KeyError,
            IndexError,
            ValueError,
            EOFError,
            TypeError,
        ) as exc:
            raise RecoveryError(
                f"malformed log record: {exc} in {payload[:80]!r}"
            ) from exc
        if type(table) is not table_type or type(body) is not body_type:
            raise RecoveryError(
                f"malformed log record {lsn}: a {kind.value} record cannot "
                f"carry a {type(table).__name__} table and a "
                f"{type(body).__name__} body"
            )
        if body_field == "values":
            return _new(cls, (lsn, kind, transaction_id, table, body, None, None))
        if body_field == "snapshot":
            return _new(cls, (lsn, kind, transaction_id, None, None, body, None))
        return _new(cls, (lsn, kind, transaction_id, None, None, None, body))


# -- frames -----------------------------------------------------------------

#: A frame's header: payload length and CRC-32 of the payload, big-endian.
_FRAME = struct.Struct(">II")


def encode_frame(payload: bytes) -> bytes:
    """Frame one record payload: length (4 bytes), CRC-32 (4 bytes), payload.

    The length makes a torn trailing write detectable (not enough bytes
    for the header or the payload); the CRC catches a frame whose bytes
    landed but were damaged.
    """
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class ScanResult:
    """Outcome of :func:`scan_frames`.

    Attributes:
        payloads: the record payloads of the clean prefix.
        clean_length: byte offset up to which the stream is undamaged
            (truncating a file here removes exactly the damage).
        damage: ``None`` for a fully clean stream, else a description of
            the first damaged frame.
    """

    payloads: list[bytes] = field(default_factory=list)
    clean_length: int = 0
    damage: str | None = None


def scan_frames(data: bytes) -> ScanResult:
    """Walk a frame stream frame by frame, stopping at the first damage.

    Damage is any of: a truncated header, a payload shorter than its
    declared length (both the shape of a torn trailing write), or a CRC
    mismatch (a frame whose bytes landed damaged).  Scanning stops there —
    bytes past a damaged frame cannot be trusted even if they happen to
    re-align.
    """
    result = ScanResult()
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _FRAME.size:
            result.damage = (
                f"truncated frame header at offset {offset} "
                f"({total - offset} trailing bytes)"
            )
            return result
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        if total - start < length:
            result.damage = (
                f"truncated frame payload at offset {offset} "
                f"(declared {length} bytes, {total - start} present)"
            )
            return result
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            result.damage = f"CRC mismatch in frame at offset {offset}"
            return result
        result.payloads.append(payload)
        offset = start + length
        result.clean_length = offset
    return result


def decode_frames(data: bytes) -> tuple[list[LogRecord], ScanResult]:
    """The records of a frame stream's clean prefix, and the scan.

    The one decode path of a log's byte form: a segment file at open
    (:class:`repro.storage.SegmentedWriteAheadLog`) and a
    :meth:`WriteAheadLog.dump` in :meth:`WriteAheadLog.load`.  The caller
    decides what damage past the clean prefix means (``scan.damage``).

    Raises:
        RecoveryError: for a clean frame whose payload is not a record
            (:meth:`LogRecord.from_bytes`).
    """
    scan = scan_frames(data)
    return list(map(LogRecord.from_bytes, scan.payloads)), scan


class WriteAheadLog:
    """An append-only, in-memory write-ahead log.

    The log survives "crashes" simulated by discarding the
    :class:`~repro.relational.database.Database` object while keeping the
    log (or its :meth:`dump`); :func:`repro.relational.recovery.recover_database`
    then rebuilds the store.  To survive the process, swap in the segmented
    engine (:class:`repro.storage.SegmentedWriteAheadLog`, see its
    ``adopt``).

    All methods are safe to call from multiple threads: the segmented
    engine, a subclass, runs its compactor thread beside the writer.
    """

    def __init__(self) -> None:
        self._records: list[LogRecord] = []
        self._next_lsn = 1
        self._lock = threading.Lock()
        #: Longest observed checkpoint pause in milliseconds (see
        #: :meth:`note_checkpoint_pause`); the segmented engine keeps its
        #: own in ``statistics`` instead.
        self._max_pause_ms = 0.0

    # -- append -------------------------------------------------------------

    def append(
        self,
        record_type: LogRecordType,
        transaction_id: int,
        table: str | None = None,
        values: Sequence[Any] | None = None,
        snapshot: Mapping[str, Sequence[Sequence[Any]]] | None = None,
    ) -> LogRecord:
        """Append a record and return it."""
        with self._lock:
            record = LogRecord(
                lsn=self._next_lsn,
                record_type=record_type,
                transaction_id=transaction_id,
                table=table,
                values=tuple(values) if values is not None else None,
                snapshot=snapshot,
            )
            self._next_lsn += 1
            self._records.append(record)
            return record

    def log_begin(self, transaction_id: int) -> LogRecord:
        """Record the start of a transaction."""
        return self.append(LogRecordType.BEGIN, transaction_id)

    def log_insert(
        self, transaction_id: int, table: str, values: Sequence[Any]
    ) -> LogRecord:
        """Record a row insert."""
        return self.append(LogRecordType.INSERT, transaction_id, table, values)

    def log_delete(
        self, transaction_id: int, table: str, values: Sequence[Any]
    ) -> LogRecord:
        """Record a row delete."""
        return self.append(LogRecordType.DELETE, transaction_id, table, values)

    def log_commit(self, transaction_id: int) -> LogRecord:
        """Record a transaction commit (the durability point)."""
        return self.append(LogRecordType.COMMIT, transaction_id)

    def log_abort(self, transaction_id: int) -> LogRecord:
        """Record a transaction abort."""
        return self.append(LogRecordType.ABORT, transaction_id)

    # -- read ---------------------------------------------------------------

    def records(self) -> tuple[LogRecord, ...]:
        """All records in LSN order."""
        with self._lock:
            return tuple(self._records)

    def committed_transaction_ids(self) -> frozenset[int]:
        """Ids of all transactions with a COMMIT record."""
        with self._lock:
            return frozenset(
                r.transaction_id
                for r in self._records
                if r.record_type is LogRecordType.COMMIT
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records())

    # -- persistence --------------------------------------------------------

    def dump(self) -> bytes:
        """The whole log as a frame stream, in LSN order.

        The bytes a segment file holds for the same records: one
        :func:`encode_frame` of :meth:`LogRecord.to_bytes` per record.
        :meth:`load` reads them back.
        """
        return b"".join([encode_frame(record.to_bytes()) for record in self.records()])

    @classmethod
    def load(cls, data: bytes) -> "WriteAheadLog":
        """Rebuild a log from :meth:`dump` output.

        Fails closed, as a sealed segment does: a torn or damaged frame, a
        frame that is not a record, or LSNs that do not increase raise
        :class:`RecoveryError`.  Nothing is truncated or reordered; a
        crash is modelled by cutting a dump at a frame boundary.
        """
        records, scan = decode_frames(data)
        if scan.damage is not None:
            raise RecoveryError(f"damaged log dump: {scan.damage}")
        lsns = [record.lsn for record in records]
        bad = next(((a, b) for a, b in zip(lsns, lsns[1:]) if a >= b), None)
        if bad is not None:
            raise RecoveryError(
                f"log dump LSNs do not increase: {bad[0]} before {bad[1]}"
            )
        log = cls()
        log._records = records
        log._next_lsn = (lsns[-1] if lsns else 0) + 1
        return log

    # -- checkpoints ----------------------------------------------------------

    def wants_delta_checkpoint(self) -> bool:
        """True when the log would rather take a delta checkpoint.

        The in-memory log only knows full-snapshot folds, so this is
        always False here.  :class:`repro.storage.SegmentedWriteAheadLog`
        overrides it: once a base snapshot exists (and until the configured
        base cadence is due again) it answers True, and
        :meth:`~repro.relational.database.Database.checkpoint` then calls
        :meth:`checkpoint_delta` *without* building a full snapshot — that
        skip is what makes the checkpoint pause proportional to churn.
        """
        return False

    def checkpoint_delta(self):
        """Write a delta checkpoint (segmented engine only)."""
        raise NotImplementedError(
            "delta checkpoints need the segmented durability engine "
            "(repro.storage); the in-memory WriteAheadLog only folds full "
            "snapshots"
        )

    def note_checkpoint_pause(self, pause_ms: float, *, delta: bool = False) -> None:
        """Record an observed checkpoint pause (writer-blocking time).

        :meth:`Database.checkpoint` measures the wall time of the whole
        operation — including building the snapshot, the dominant cost for
        full checkpoints — and reports it here.  The in-memory log keeps
        only the maximum; the segmented engine keeps its own maxima in its
        ``statistics``, split into base and delta pauses.
        """
        if pause_ms > self._max_pause_ms:
            self._max_pause_ms = pause_ms

    def durability_statistics(self) -> dict[str, Any]:
        """Flat ``durability.*`` counters for ``statistics_report()``."""
        return {
            "mode": "memory",
            "checkpoint_pause_ms": self._max_pause_ms,
        }

    def checkpoint(
        self, snapshot: Mapping[str, Sequence[Sequence[Any]]]
    ) -> LogRecord:
        """Fold the log into a single CHECKPOINT record carrying ``snapshot``.

        Every record logged so far is discarded — its effects are captured
        by the snapshot — so recovery replays the snapshot restore plus only
        the records appended *after* the checkpoint.  LSNs keep increasing
        across checkpoints, preserving the total order of surviving records.

        Returns:
            The CHECKPOINT record.
        """
        with self._lock:
            record = LogRecord(
                lsn=self._next_lsn,
                record_type=LogRecordType.CHECKPOINT,
                transaction_id=0,
                snapshot={name: tuple(rows) for name, rows in snapshot.items()},
            )
            self._next_lsn += 1
            self._records = [record]
            return record
