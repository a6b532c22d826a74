"""Append-only log segments with CRC-framed records.

A segment file is a sequence of frames::

    +----------------+----------------+------------------+
    | length (4B BE) | CRC32 (4B BE)  | payload (length) |
    +----------------+----------------+------------------+

where the payload is one UTF-8 JSON line produced by
:meth:`repro.relational.wal.LogRecord.to_json`.  The CRC covers the
payload only; the length prefix makes a torn trailing write detectable
(not enough bytes for the header or payload) and the CRC catches a frame
whose bytes landed but were damaged.  :func:`scan_frames` walks a
segment's bytes and reports the first point of damage together with the
length of the clean prefix, so recovery can truncate a torn tail while
treating damage inside a *sealed* segment as corruption.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field

from repro.relational.wal import CHECKPOINT_TYPES, LogRecordType

SEGMENT_SUFFIX = ".walseg"

_HEADER = struct.Struct(">II")


def segment_file_name(index: int, generation: int = 0) -> str:
    """Canonical file name of segment ``index`` at ``generation``.

    Compaction bumps the generation: the rewritten file gets a new name,
    so the swap is a manifest update plus a delete, never an in-place
    overwrite of bytes recovery might still need.
    """
    return f"segment-{index:08d}.g{generation}{SEGMENT_SUFFIX}"


@dataclass
class LogSegment:
    """One segment's manifest entry plus its in-memory summary.

    Attributes:
        index: position in the log's segment chain (monotonic, never
            reused).
        generation: compaction generation (0 = as written by the logger).
        name: file name inside the engine directory.
        sealed: True once the segment stopped accepting appends.
        records: record count (maintained for the live tail; authoritative
            after sealing).
        size: byte size of the framed records.
        compacted_at_lsn: the checkpoint LSN this segment was last
            compacted against (sealed segments only); the compactor skips
            segments already compacted at the current checkpoint.
        raw_first_lsn: LSN of the segment's first raw (non-checkpoint)
            record, 0 if it holds none.
        raw_last_lsn: LSN of its last raw record, 0 if it holds none.
        checkpoints: ``(lsn, record_type)`` of each checkpoint-family
            record in it, in order.

    The last three are the segment's *summary*: enough for the compactor
    to decide from memory whether a segment is kept whole, dropped whole
    or must be read and rewritten (records in a segment are in LSN order,
    and the drop rule treats every raw record alike).  The summary is not
    part of the manifest file: the writer keeps the tail's up to date as
    it appends, compaction sets it for the files it writes, and the open
    scan rebuilds it from the records it decodes anyway.
    """

    index: int
    generation: int = 0
    name: str = ""
    sealed: bool = False
    records: int = 0
    size: int = 0
    compacted_at_lsn: int = 0
    raw_first_lsn: int = field(default=0, compare=False, repr=False)
    raw_last_lsn: int = field(default=0, compare=False, repr=False)
    checkpoints: list[tuple[int, LogRecordType]] = field(
        default_factory=list, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.name:
            self.name = segment_file_name(self.index, self.generation)

    def note(self, lsn: int, record_type: LogRecordType) -> None:
        """Add one record, appended after every record already noted."""
        if record_type in CHECKPOINT_TYPES:
            self.checkpoints.append((lsn, record_type))
        else:
            if not self.raw_first_lsn:
                self.raw_first_lsn = lsn
            self.raw_last_lsn = lsn

    def to_payload(self) -> dict:
        return {
            "index": self.index,
            "generation": self.generation,
            "name": self.name,
            "sealed": self.sealed,
            "records": self.records,
            "size": self.size,
            "compacted_at_lsn": self.compacted_at_lsn,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LogSegment":
        return cls(
            index=payload["index"],
            generation=payload["generation"],
            name=payload["name"],
            sealed=payload["sealed"],
            records=payload["records"],
            size=payload["size"],
            compacted_at_lsn=payload.get("compacted_at_lsn", 0),
        )


def encode_frame(payload: bytes) -> bytes:
    """Frame one record payload (length + CRC32 header)."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class ScanResult:
    """Outcome of :func:`scan_frames`.

    Attributes:
        payloads: the decoded record payloads of the clean prefix.
        clean_length: byte offset up to which the segment is undamaged
            (truncating the file here removes exactly the damage).
        damage: ``None`` for a fully clean segment, else a description of
            the first damaged frame.
    """

    payloads: list[bytes] = field(default_factory=list)
    clean_length: int = 0
    damage: str | None = None


def scan_frames(data: bytes) -> ScanResult:
    """Walk a segment's bytes frame by frame, stopping at the first damage.

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
        if total - offset < _HEADER.size:
            result.damage = (
                f"truncated frame header at offset {offset} "
                f"({total - offset} trailing bytes)"
            )
            return result
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
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


class SegmentWriter:
    """Appends framed records to one live (unsealed) segment file.

    The writer only ever appends; sealing is a property of the manifest
    entry, enforced by the engine (which stops writing and opens the next
    segment).  ``records`` / ``size`` mirror the manifest entry so seal
    thresholds are checked without stat calls.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self.fsync = fsync
        self._file = open(self.path, "ab")
        self.size = self._file.tell()
        self.records = 0  # caller seeds this from its recovery scan
        #: Byte offset covered by the last ``os.fsync`` — bytes past this
        #: watermark are flushed to the OS at best and may be lost in a
        #: machine crash.  With ``fsync=True`` every flush advances it to
        #: ``size``.
        self.synced_size = self.size

    def append(self, payload: bytes) -> None:
        frame = encode_frame(payload)
        self._file.write(frame)
        self.size += len(frame)
        self.records += 1

    def flush(self) -> None:
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
            self.synced_size = self.size

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            if self.fsync:
                # flush() alone leaves the final records in the page cache;
                # a close must honor the same durability promise as every
                # flush before it.
                os.fsync(self._file.fileno())
                self.synced_size = self.size
            self._file.close()
