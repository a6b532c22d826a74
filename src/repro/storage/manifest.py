"""The manifest: the segmented log's single source of structural truth.

The manifest file records the live segment chain (in replay order), the
checkpoint lineage positions (latest base snapshot and latest checkpoint
of any kind) and the compaction watermark.  Every update is written to a
temporary file, flushed, and atomically renamed over the old manifest
(``os.replace``), so a crash at any instant leaves either the old or the
new manifest — never a half-written one; with ``fsync`` the directory is
synced after the rename, so the new manifest also survives an OS crash.  A leftover ``MANIFEST.tmp`` is
simply discarded at the next open: the rename that would have made it
authoritative never happened.

Segment *files* not named by the manifest are orphans — a compactor
killed between writing its rewritten file and the manifest swap (the new
file is the orphan), or killed between the swap and deleting the old
file (the old file is the orphan).  The engine deletes them at open.
A base synthesized off the writer by a compaction pass follows the
same discipline: its single-record segment is written first and spliced
into the *front* of the chain by one manifest save — a crash before that
save leaves the file as a cleanable orphan and the old lineage
authoritative.  The chain is therefore ordered for replay (synthesized
bases first), not strictly by segment index.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.errors import RecoveryError
from repro.storage.segment import LogSegment

MANIFEST_NAME = "MANIFEST"
MANIFEST_TMP_NAME = "MANIFEST.tmp"

#: Version 2: segment frames carry :meth:`LogRecord.to_bytes
#: <repro.relational.wal.LogRecord.to_bytes>` payloads.  Version 1 framed
#: a text encoding of each record; such a directory is refused, not
#: converted.
_FORMAT_VERSION = 2


@dataclass
class Manifest:
    """In-memory image of the manifest file.

    Attributes:
        segments: the live segment chain, oldest first; the last entry is
            the unsealed tail.
        checkpoint_lsn: LSN of the newest checkpoint record of any kind
            (0 before the first checkpoint).  Records at or below this
            LSN are superseded by the checkpoint lineage — the
            compactor's drop rule.
        base_lsn: LSN of the newest full-snapshot checkpoint
            (``CHECKPOINT_BASE``); lineage records below it are stale.
        compacted_through_lsn: compaction watermark — every sealed
            segment has been compacted against at least this checkpoint
            LSN.
        next_segment_index: index the next created segment will take
            (indexes are never reused, even across compactions).
    """

    segments: list[LogSegment] = field(default_factory=list)
    checkpoint_lsn: int = 0
    base_lsn: int = 0
    compacted_through_lsn: int = 0
    next_segment_index: int = 1

    def segment_names(self) -> set[str]:
        """File names of every live segment."""
        return {segment.name for segment in self.segments}

    @property
    def tail(self) -> LogSegment:
        """The unsealed tail segment (the chain is never empty once open)."""
        return self.segments[-1]

    def to_payload(self) -> dict:
        return {
            "version": _FORMAT_VERSION,
            "segments": [segment.to_payload() for segment in self.segments],
            "checkpoint_lsn": self.checkpoint_lsn,
            "base_lsn": self.base_lsn,
            "compacted_through_lsn": self.compacted_through_lsn,
            "next_segment_index": self.next_segment_index,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Manifest":
        try:
            if payload["version"] != _FORMAT_VERSION:
                raise RecoveryError(
                    f"unsupported manifest version {payload['version']!r}: "
                    f"this engine reads version {_FORMAT_VERSION} "
                    "(binary record frames) only"
                )
            return cls(
                segments=[
                    LogSegment.from_payload(entry)
                    for entry in payload["segments"]
                ],
                checkpoint_lsn=payload["checkpoint_lsn"],
                base_lsn=payload["base_lsn"],
                compacted_through_lsn=payload["compacted_through_lsn"],
                next_segment_index=payload["next_segment_index"],
            )
        except (KeyError, TypeError) as exc:
            raise RecoveryError(f"malformed manifest: {exc}") from exc

    def save(self, directory: str | os.PathLike, *, fsync: bool = True) -> None:
        """Atomically persist the manifest into ``directory``.

        Write-temp / flush / rename: a crash before the ``os.replace``
        leaves the old manifest authoritative (plus a harmless ``.tmp``);
        a crash after it leaves the new one.  There is no in-between.

        With ``fsync`` the directory is synced after the rename too: until
        then an OS crash can undo the rename, and recovery would trust
        the old manifest and delete the newer tail segment, with the
        acknowledged commits in it, as an orphan.  The same sync makes
        every segment file created or swapped in since the last save
        durable in the directory.
        """
        directory = os.fspath(directory)
        tmp_path = os.path.join(directory, MANIFEST_TMP_NAME)
        final_path = os.path.join(directory, MANIFEST_NAME)
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(self.to_payload(), handle, indent=1)
            handle.write("\n")
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, final_path)
        if fsync:
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    @classmethod
    def load(cls, directory: str | os.PathLike) -> "Manifest | None":
        """Read the manifest from ``directory`` (None if there is none)."""
        path = os.path.join(os.fspath(directory), MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            return None
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise RecoveryError(f"unreadable manifest at {path}: {exc}") from exc
        return cls.from_payload(payload)
