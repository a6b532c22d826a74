"""The manifest: the compactor's record of the segment chain.

The manifest file lists the segment chain in replay order as of its last
save, the index the next segment will take (``next_segment_index``) and
the compaction watermark.  Only compaction passes (at most one save per
pass), open and close write it; a seal or a checkpoint does not.  It is
the source of truth for what compaction changed: which generation of a
segment is live, which segments were dropped, and where synthesized
bases sit in the replay order.  The compaction quarantine is not in it:
it lives in memory, so a restart gives a quarantined segment fresh
attempts.

Every update is written to a temporary file, flushed, and atomically
renamed over the old manifest (``os.replace``), so a crash at any
instant leaves either the old or the new manifest — never a half-written
one; with ``fsync`` the directory is synced after the rename, so the new
manifest also survives an OS crash.  A leftover ``MANIFEST.tmp`` is
simply discarded at the next open: the rename that would have made it
authoritative never happened.

Open decides every segment file the manifest does not list by its name,
``segment_file_name(index, generation)``:

* **Writer successor** — generation 0 and ``index`` at or above the
  saved ``next_segment_index``: a segment the writer created by a seal
  after the last save.  Successors are replayed in index order after the
  listed chain.  Every segment of that chain but the last one is sealed,
  so damage in it is fatal; damage in the last one is a torn tail and is
  truncated.
* **Orphan** — anything else, removed at open.  Compaction writes only
  generations 1 and up: a rewrite of a segment, or a synthesized base
  (born at generation 1 under a fresh index), that a crash kept from its
  manifest save is an orphan and the old chain stays authoritative.  So
  is a superseded file a crash kept from its unlink after the save:
  its index lies below the saved ``next_segment_index``.

The chain is ordered for replay (synthesized bases first), not strictly
by segment index.  The checkpoint lineage is not in the manifest: open
reads it off the record heads it decodes anyway.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field, replace

from repro.errors import RecoveryError
from repro.storage.segment import LogSegment, sync_directory

MANIFEST_NAME = "MANIFEST"
MANIFEST_TMP_NAME = "MANIFEST.tmp"

#: Version 3: seals and checkpoints do not save the manifest, unlisted
#: generation-0 files at or past ``next_segment_index`` are writer successors,
#: and a synthesized base is born at generation 1.  Version 2 saved on
#: every seal and wrote synthesized bases at generation 0, so its
#: unlisted files are all orphans; version 1 framed a text encoding of
#: each record.  Both are refused, not converted.
_FORMAT_VERSION = 3


@dataclass
class Manifest:
    """In-memory image of the manifest file.

    Attributes:
        segments: the live segment chain, oldest first; the last entry is
            the unsealed tail.
        checkpoint_lsn: LSN of the newest checkpoint record of any kind
            (0 before the first checkpoint).  Records at or below this
            LSN are superseded by the checkpoint lineage — the
            compactor's drop rule.  In memory only: open sets it from the
            record heads.
        base_lsn: LSN of the newest full-snapshot checkpoint
            (``CHECKPOINT_BASE``); lineage records below it are stale.
            In memory only, like ``checkpoint_lsn``.
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

    def copy(self) -> "Manifest":
        """A detached image, to save off the engine's lock."""
        return replace(self, segments=list(map(copy.copy, self.segments)))

    def to_payload(self) -> dict:
        return {
            "version": _FORMAT_VERSION,
            "segments": [segment.to_payload() for segment in self.segments],
            "compacted_through_lsn": self.compacted_through_lsn,
            "next_segment_index": self.next_segment_index,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Manifest":
        try:
            if payload["version"] != _FORMAT_VERSION:
                raise RecoveryError(
                    f"unsupported manifest version {payload['version']!r}: "
                    f"this engine reads version {_FORMAT_VERSION} only"
                )
            return cls(
                segments=[
                    LogSegment.from_payload(entry)
                    for entry in payload["segments"]
                ],
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
        the old manifest, and so miss what the compaction pass changed.
        The same sync makes every file the pass wrote durable in the
        directory.
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
            sync_directory(directory)

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
