"""The segmented log's binary record codec (``LogRecord.to_bytes``).

A frame's payload is a fixed ``struct`` head (LSN, kind code, transaction
id) followed by ``marshal.dumps((table, body), 4)``.  These tests hold it
to three promises:

* every record kind round-trips with every column value type kept exactly
  (``True`` is not ``1``, ``-0.0`` is not ``0.0``, tuples stay tuples),
  through the codec and through a reopened engine;
* decoding fails closed: any payload that is not a record — random bytes
  behind a *valid* CRC, in a sealed segment or at the tail — makes an
  open raise :class:`RecoveryError` and nothing else, and a head that
  does not decode counts as a compaction failure;
* the bytes on disk do not drift: a committed image of one frame per
  record kind (``record_codec_golden.bin``) still decodes to the same
  records on every supported Python;
* the in-memory log's dump is the same frame stream: ``load(dump())``
  gives back every record exactly, a dump is byte for byte what a segment
  file holds for the same records, and a truncated, damaged or reordered
  dump is refused.

Re-record the image only for a deliberate format change (and bump the
manifest's format version with it)::

    PYTHONPATH=src:. python tests/storage/test_record_codec.py --record
"""

from __future__ import annotations

import enum
import json
import math
import os
import struct
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RecoveryError
from repro.relational.database import Database
from repro.relational.datatypes import DataType
from repro.relational.schema import Column
from repro.relational.wal import (
    LogRecord,
    LogRecordType,
    WriteAheadLog,
    encode_frame,
    scan_frames,
)
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog, recover
from repro.storage.manifest import MANIFEST_NAME
from tests.storage.test_segmented_wal import engine_with_mixed_segment

GOLDEN = Path(__file__).with_name("record_codec_golden.bin")

#: One value of every column type, with the edges a text codec gets wrong.
VALUES = (
    0,
    -7,
    2**70,
    -(2**100),
    1.5,
    -0.0,
    math.inf,
    -math.inf,
    'quote " backslash \\ tab \t newline \n',
    "astral \U0001f600 and a lone surrogate \ud800",
    "",
    True,
    False,
    1,
    None,
)

#: One record per kind, in LSN order: the golden image's contents.
RECORDS = (
    LogRecord(1, LogRecordType.BEGIN, 7),
    LogRecord(2, LogRecordType.INSERT, 7, "Seats", VALUES),
    LogRecord(3, LogRecordType.DELETE, 7, "Seats", (103, "12A")),
    LogRecord(4, LogRecordType.COMMIT, 7),
    LogRecord(5, LogRecordType.ABORT, 8),
    LogRecord(
        6,
        LogRecordType.CHECKPOINT,
        0,
        snapshot={"Seats": ((103, "12A"), (103, "12B")), "Notes": ()},
    ),
    LogRecord(
        7, LogRecordType.CHECKPOINT_BASE, 0, snapshot={"Seats": ((1, True, -0.0),)}
    ),
    LogRecord(
        8,
        LogRecordType.CHECKPOINT_DELTA,
        0,
        delta={"Seats": {"delete": [(103, "12A")], "insert": [(104, "\ud800")]}},
    ),
)


def typed(value):
    """``value`` with every scalar tagged by its exact type and repr.

    Equality alone cannot tell ``True`` from ``1``, ``-0.0`` from
    ``0.0`` or a tuple from a list; this can.
    """
    if isinstance(value, dict):
        return ("dict", tuple((key, typed(item)) for key, item in value.items()))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(typed(item) for item in value))
    return (type(value).__name__, repr(value))


def record_image(record: LogRecord):
    return (
        record.lsn,
        record.record_type,
        record.transaction_id,
        typed(record.table),
        typed(record.values),
        typed(record.snapshot),
        typed(record.delta),
    )


class TestRoundTrip:
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.record_type.value)
    def test_every_kind_round_trips_exactly(self, record):
        payload = record.to_bytes()
        decoded = LogRecord.from_bytes(payload)
        assert decoded == record
        assert record_image(decoded) == record_image(record)
        assert LogRecord.head_from_bytes(payload) == (record.lsn, record.record_type)

    def test_every_kind_is_covered(self):
        assert {record.record_type for record in RECORDS} == set(LogRecordType)

    def test_values_survive_a_reopened_engine(self, tmp_path):
        directory = str(tmp_path / "segments")
        engine = SegmentedWriteAheadLog(directory)
        engine.append(LogRecordType.BEGIN, 1)
        engine.append(LogRecordType.INSERT, 1, "Values", VALUES)
        engine.append(LogRecordType.COMMIT, 1)
        engine.checkpoint({"Values": [VALUES]})
        engine.append(LogRecordType.BEGIN, 2)
        engine.append(LogRecordType.DELETE, 2, "Values", VALUES)
        engine.append(LogRecordType.COMMIT, 2)
        engine.checkpoint_delta()
        written = engine.records()
        engine.close()
        reopened = SegmentedWriteAheadLog(directory)
        assert [record_image(r) for r in reopened.records()] == [
            record_image(r) for r in written
        ]
        assert reopened.records()[-1].delta == {"Values": {"delete": [VALUES]}}
        reopened.close()

    def test_a_subclass_value_is_stored_and_logged_as_its_base_type(self, tmp_path):
        # marshal writes exact types only; the store hands the log nothing
        # else, and a restart recovers the values the live store holds.
        class Seat(str):
            pass

        class Color(str, enum.Enum):
            RED = "red"

        class Row(enum.IntEnum):
            FIRST = 1

        def schema() -> Database:
            database = Database()
            database.create_table(
                "Seats",
                [Column("row", DataType.INTEGER), Column("seat"), Column("color")],
                key=["row", "seat"],
            )
            return database

        directory = str(tmp_path / "segments")
        database = schema()
        engine = SegmentedWriteAheadLog(directory)
        engine.adopt(database.wal)
        database.wal = engine
        database.insert("Seats", (Row.FIRST, Seat("12A"), Color.RED))
        expected = typed([(1, "12A", "red")])
        assert typed(database.table("Seats").snapshot()) == expected
        engine.close()
        recovered = recover(directory, schema)
        assert typed(recovered.table("Seats").snapshot()) == expected
        recovered.wal.close()

    def test_a_value_the_codec_cannot_write_leaves_no_trace(self, tmp_path):
        class Seat(str):
            pass

        directory = str(tmp_path / "segments")
        engine = SegmentedWriteAheadLog(directory)
        engine.append(LogRecordType.BEGIN, 1)
        with pytest.raises(ValueError):
            engine.append(LogRecordType.INSERT, 1, "Seats", (Seat("12A"),))
        engine.append(LogRecordType.ABORT, 1)
        assert [r.lsn for r in engine.records()] == [1, 2]
        engine.close()
        reopened = SegmentedWriteAheadLog(directory)
        assert [r.record_type for r in reopened.records()] == [
            LogRecordType.BEGIN,
            LogRecordType.ABORT,
        ]
        reopened.close()


#: Every column value type, with the edges a text codec gets wrong.
SCALARS = st.one_of(
    st.sampled_from(VALUES + (math.nan, 0.0, 2**64, -(2**63), "\udfff")),
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.floats(),
    st.text(st.characters(exclude_categories=()), max_size=12),
)
ROWS = st.lists(SCALARS, max_size=5).map(tuple)
TABLES = st.text(min_size=1, max_size=8)
SNAPSHOTS = st.dictionaries(TABLES, st.lists(ROWS, max_size=4), max_size=3)
CHANGES = st.lists(ROWS, max_size=3)
DELTAS = st.dictionaries(
    TABLES,
    st.fixed_dictionaries({}, optional={"delete": CHANGES, "insert": CHANGES}),
    max_size=3,
)
TXNS = st.integers(min_value=0, max_value=2**64 - 1)


def bodies(kind: LogRecordType):
    """``(table, values, snapshot, delta)`` of a record of ``kind``."""
    if kind in (LogRecordType.INSERT, LogRecordType.DELETE):
        return st.tuples(TABLES, ROWS, st.none(), st.none())
    if kind.is_snapshot:
        return st.tuples(st.none(), st.none(), SNAPSHOTS, st.none())
    if kind is LogRecordType.CHECKPOINT_DELTA:
        return st.tuples(st.none(), st.none(), st.none(), DELTAS)
    return st.just((None, None, None, None))


RECORD_PARTS = st.sampled_from(LogRecordType).flatmap(
    lambda kind: st.tuples(st.just(kind), TXNS, bodies(kind))
)


def log_of(records) -> WriteAheadLog:
    """An in-memory log holding exactly ``records``."""
    log = WriteAheadLog()
    for record in records:
        log._records.append(record)
    log._next_lsn = records[-1].lsn + 1 if records else 1
    return log


class TestDump:
    @settings(max_examples=150, deadline=None)
    @given(
        parts=st.lists(RECORD_PARTS, max_size=10),
        gaps=st.lists(st.integers(min_value=1, max_value=2**40), min_size=10),
    )
    def test_load_of_dump_is_every_record_exactly(self, parts, gaps):
        records = []
        lsn = 0
        for (kind, txn, body), gap in zip(parts, gaps):
            lsn += gap
            records.append(LogRecord(lsn, kind, txn, *body))
        log = log_of(records)
        loaded = WriteAheadLog.load(log.dump())
        assert [record_image(r) for r in loaded.records()] == [
            record_image(r) for r in records
        ]
        assert loaded.log_begin(1).lsn == lsn + 1

    def test_every_kind_and_large_containers_survive_a_dump(self):
        wide = tuple(range(300))  # marshal's 4-byte-count tuple form
        records = (
            *RECORDS,
            LogRecord(9, LogRecordType.INSERT, 9, "Wide", wide),
            LogRecord(
                10, LogRecordType.CHECKPOINT, 0, snapshot={"Wide": (wide,) * 300}
            ),
        )
        loaded = WriteAheadLog.load(log_of(records).dump())
        assert [record_image(r) for r in loaded.records()] == [
            record_image(r) for r in records
        ]

    def test_a_damaged_dump_is_refused(self):
        dump = log_of(RECORDS).dump()
        boundaries = {0}
        offset = 0
        for payload in scan_frames(dump).payloads:
            offset += len(encode_frame(payload))
            boundaries.add(offset)
        for cut in range(len(dump)):
            if cut not in boundaries:
                with pytest.raises(RecoveryError):
                    WriteAheadLog.load(dump[:cut])
        for bit in range(8 * len(dump)):
            flipped = bytearray(dump)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(RecoveryError):
                WriteAheadLog.load(bytes(flipped))

    def test_a_dump_whose_lsns_do_not_increase_is_refused(self):
        frames = [encode_frame(record.to_bytes()) for record in RECORDS]
        swapped = frames[:2] + [frames[3], frames[2]] + frames[4:]
        with pytest.raises(RecoveryError, match="do not increase"):
            WriteAheadLog.load(b"".join(swapped))
        with pytest.raises(RecoveryError, match="do not increase"):
            WriteAheadLog.load(b"".join(frames[:3] + frames[2:]))

    def test_a_dump_is_the_frames_a_segment_holds(self, tmp_path):
        database = Database()
        database.create_table(
            "Values", [Column(f"c{i}") for i in range(len(VALUES))], key=["c0", "c4"]
        )
        database.insert("Values", VALUES)
        with database.begin() as txn:
            txn.insert("Values", (1, *VALUES[1:]))
            txn.delete("Values", VALUES)
        aborted = database.begin()
        aborted.insert("Values", (2, *VALUES[1:]))
        aborted.abort()
        database.checkpoint()
        database.insert("Values", (3, *VALUES[1:]))
        live = database.wal
        directory = str(tmp_path / "segments")
        engine = SegmentedWriteAheadLog(
            directory,
            DurabilityConfig(directory=directory, segment_max_records=10_000),
        )
        engine.adopt(live)
        written = b"".join(
            (tmp_path / "segments" / entry.name).read_bytes()
            for entry in engine._manifest.segments
        )
        assert live.dump() == written
        assert engine.dump() == written
        engine.close()


class TestGolden:
    def test_golden_image_decodes_to_the_records(self):
        scan = scan_frames(GOLDEN.read_bytes())
        assert scan.damage is None
        decoded = [LogRecord.from_bytes(payload) for payload in scan.payloads]
        assert [record_image(r) for r in decoded] == [
            record_image(r) for r in RECORDS
        ]
        assert [LogRecord.head_from_bytes(p) for p in scan.payloads] == [
            (r.lsn, r.record_type) for r in RECORDS
        ]

    def test_golden_image_opens_as_a_segment(self, tmp_path):
        directory = tmp_path / "segments"
        engine = SegmentedWriteAheadLog(str(directory))
        tail = engine._manifest.tail.name
        engine.close()
        (directory / tail).write_bytes(GOLDEN.read_bytes())
        reopened = SegmentedWriteAheadLog(str(directory))
        # The newest checkpoint (the delta) heads the surviving lineage
        # together with the base before it.
        assert [r.lsn for r in reopened.records()] == [7, 8]
        reopened.close()


#: Payloads that are not records, each with the reason it is refused.
_HEAD = struct.Struct(">QBQ")
MALFORMED = {
    "empty": b"",
    "short head": b"\x00" * 16,
    "kind code 0": _HEAD.pack(1, 0, 1) + b")\x02NN",
    "kind code 9": _HEAD.pack(1, 9, 1) + b")\x02NN",
    "no body": _HEAD.pack(1, 1, 1),
    "body not a pair": _HEAD.pack(1, 1, 1) + b"N",
    "truncated body": _HEAD.pack(1, 2, 1) + b")\x02\xda\x05Se",
    "bad marshal code": _HEAD.pack(1, 1, 1) + b")\x02\x00\x00",
    "insert without table": _HEAD.pack(1, 2, 1) + b")\x02N)\x00",
    "insert with a list": _HEAD.pack(1, 2, 1) + b")\x02\xda\x01T[\x00\x00\x00\x00",
    "begin with a body": _HEAD.pack(1, 1, 1) + b")\x02N)\x00",
    "base with a list": _HEAD.pack(1, 7, 0) + b")\x02N[\x00\x00\x00\x00",
    "delta with a table": _HEAD.pack(1, 8, 0) + b")\x02\xda\x01T{0",
}

_INSERT = _HEAD.pack(1, 2, 1) + b")\x02\xda\x05Seats"
_COUNT = struct.Struct("<i").pack
#: Bodies behind a valid CRC whose counts claim far more than the frame
#: holds: marshal allocates by such a count before it reads one item.
HUGE_COUNTS = {
    "16 GiB values tuple": _INSERT + b"(" + _COUNT(2**31 - 1),
    "128 MiB values tuple": _INSERT + b"(" + _COUNT(2**24),
    "a list in a row": _INSERT + b")\x01[" + _COUNT(2**24),
    "a frozenset in a row": _INSERT + b")\x01>" + _COUNT(2**24),
    "a long int": _INSERT + b")\x01l" + _COUNT(2**31 - 1),
    "a negative long int": _INSERT + b")\x01l" + _COUNT(-(2**31 - 1)),
    "a snapshot's rows": _HEAD.pack(1, 7, 0) + b")\x02N{\xda\x05Seats(" + _COUNT(2**24),
    "a delta's deletes": _HEAD.pack(1, 8, 0)
    + b")\x02N{\xda\x05Seats{\xda\x06delete[" + _COUNT(2**24),
    # Each count fits the bytes left on its own; together they claim
    # 1 000 x 4 096 slots, 32 MiB, which marshal would allocate level
    # by level before the padding runs out.
    "nested tuples": _INSERT + (b"(" + _COUNT(4096)) * 1000 + b"N" * 4096,
    # 1 500 levels of 255-slot tuples: 3 MiB from a 3 KiB body.
    "nested small tuples": _INSERT + b")\xff" * 1500 + b"N" * 255,
}


class TestFailClosed:
    @pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_payload_raises_recovery_error(self, payload):
        with pytest.raises(RecoveryError):
            LogRecord.from_bytes(payload)

    def test_a_huge_outer_count_is_refused_before_marshal_reads_it(self):
        # marshal zero-fills every slot a large tuple claims before it
        # reads one item: 2**22 slots would be 32 MiB.
        payload = _HEAD.pack(1, 2, 1) + b"(" + struct.pack("<i", 2**22)
        tracemalloc.start()
        try:
            with pytest.raises(RecoveryError):
                LogRecord.from_bytes(payload)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("payload", HUGE_COUNTS.values(), ids=HUGE_COUNTS.keys())
    def test_a_huge_nested_count_is_refused_before_marshal_allocates(self, payload):
        tracemalloc.start()
        try:
            with pytest.raises(RecoveryError, match="claim"):
                LogRecord.from_bytes(payload)
            with pytest.raises(RecoveryError, match="claim"):
                WriteAheadLog.load(encode_frame(payload))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_head_only_decode_refuses_unknown_kinds(self):
        with pytest.raises(RecoveryError):
            LogRecord.head_from_bytes(_HEAD.pack(1, 200, 1))
        with pytest.raises(RecoveryError):
            LogRecord.head_from_bytes(b"\x00" * 3)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(payload=st.binary(max_size=96), sealed=st.booleans())
    def test_random_payload_behind_a_valid_crc_fails_the_open(self, payload, sealed):
        with tempfile.TemporaryDirectory() as root:
            directory = os.path.join(root, "segments")
            config = DurabilityConfig(directory=directory, segment_max_records=4)
            engine = SegmentedWriteAheadLog(directory, config)
            for txn in (1, 2):
                engine.append(LogRecordType.BEGIN, txn)
                engine.append(LogRecordType.INSERT, txn, "Seats", (txn, "12A"))
                engine.append(LogRecordType.COMMIT, txn)
            segments = engine._manifest.segments
            target = segments[0] if sealed else segments[-1]
            assert target.sealed is sealed
            engine.close()
            with open(os.path.join(directory, target.name), "ab") as handle:
                handle.write(encode_frame(payload))
            with pytest.raises(RecoveryError):
                SegmentedWriteAheadLog(directory, config)

    def test_an_undecodable_head_is_a_compaction_failure(self, tmp_path):
        _database, engine, mixed = engine_with_mixed_segment(tmp_path)
        path = tmp_path / "segments" / mixed
        payloads = scan_frames(path.read_bytes()).payloads
        broken = bytearray(payloads[0])
        broken[8] = 0xFF  # the kind code
        payloads[0] = bytes(broken)
        path.write_bytes(b"".join(encode_frame(p) for p in payloads))
        with pytest.raises(RecoveryError):
            engine.compact_now()
        stats = engine.durability_statistics()
        assert stats["compaction_errors"] == 1
        assert mixed in stats["last_compaction_error"]
        engine.close()


class TestManifestFormat:
    def test_a_version_1_directory_is_refused(self, tmp_path):
        directory = tmp_path / "segments"
        SegmentedWriteAheadLog(str(directory)).close()
        manifest = directory / MANIFEST_NAME
        payload = json.loads(manifest.read_text())
        assert payload["version"] == 2
        payload["version"] = 1
        manifest.write_text(json.dumps(payload))
        with pytest.raises(RecoveryError, match="version 1"):
            SegmentedWriteAheadLog(str(directory))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    GOLDEN.write_bytes(b"".join(encode_frame(r.to_bytes()) for r in RECORDS))
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes, {len(RECORDS)} frames)")
