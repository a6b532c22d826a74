"""The segmented write-ahead log: the log-structured durability engine.

:class:`SegmentedWriteAheadLog` is a drop-in
:class:`~repro.relational.wal.WriteAheadLog`: transactions, recovery and
the server stack talk to it through the same interface (``append``,
``records``, ``checkpoint``), so a store becomes durable by swapping its
in-memory log for the engine (``adopt``), and a server by one
:class:`~repro.storage.config.DurabilityConfig`.  It is the only
file-backed log.  What it adds underneath:

* **Segments, not one file.**  Records are CRC-framed into an append-only
  tail segment; when the tail reaches ``segment_max_bytes`` /
  ``segment_max_records`` it is sealed and a fresh tail opened: append
  and fsync, nothing more.  A manifest (atomic rename updates) records
  what compaction changed in the chain; only compaction passes, open and
  close write it.

* **Checkpoint lineage, not a monolithic fold.**  The first checkpoint
  is a ``CHECKPOINT_BASE`` carrying a full snapshot; every later one is a
  ``CHECKPOINT_DELTA`` carrying only the *net* row changes since the
  previous checkpoint, tracked incrementally as transactions commit — so
  the checkpoint pause is proportional to churn, not store size (see
  :meth:`~repro.relational.database.Database.checkpoint`).

* **Compaction, not truncation.**  Sealed segments full of records
  superseded by the checkpoint lineage are rewritten (or deleted) by the
  background compactor without ever blocking the writer; it decides from
  in-memory segment summaries and reads only the segments it rewrites,
  and one manifest swap per pass makes the pass atomic.  The same passes
  synthesize later bases from the previous base and the sealed delta
  chain.

In-memory, ``_records`` always equals *checkpoint lineage + live tail*,
which is exactly the replay order
:func:`repro.relational.recovery.replay_into` expects — in-process
recovery (`recover_database`) works on a segmented log unchanged.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Mapping, Sequence

from repro.errors import DurabilityError, RecoveryError
from repro.relational.wal import (
    LogRecord,
    LogRecordType,
    WriteAheadLog,
    decode_frames,
    encode_frame,
    scan_frames,
)
from repro.storage.config import DurabilityConfig
from repro.storage.manifest import MANIFEST_TMP_NAME, Manifest
from repro.storage.segment import (
    SEGMENT_SUFFIX,
    LogSegment,
    SegmentWriter,
    parse_segment_file_name,
    segment_file_name,
    sync_directory,
)


@dataclass
class DurabilityStatistics:
    """Counters of the segmented engine (``durability.*`` in reports).

    Attributes:
        segments_sealed: tail segments sealed since open.
        compactions: sealed-segment rewrites/deletions performed.
        bytes_reclaimed: on-disk bytes dropped by compaction.
        flushes: flushes of the tail segment: one per seal, and one per
            commit, abort or checkpoint record that did not seal the tail
            (the seal made it durable).
        fsyncs: ``os.fsync`` calls on the tail (``fsync=True`` only), a
            seal's included.
        checkpoints_base: full-snapshot checkpoints written.
        checkpoints_delta: delta checkpoints written.
        checkpoint_pause_ms: longest observed checkpoint pause (any kind).
        base_pause_ms: longest full-snapshot checkpoint pause.
        delta_pause_ms: longest delta checkpoint pause — the number the
            recovery benchmark gates against ``base_pause_ms``.
        torn_tail_truncations: torn trailing records truncated at open.
        bases_synthesized: base checkpoints folded off the writer by
            compaction passes.
        base_synthesis_ms: longest off-writer base fold observed (never a
            writer pause — reported to show the background cost).
        compaction_errors: failed compaction passes (corrupt sealed
            segments, fold failures); see ``last_compaction_error``.
        last_compaction_error: description of the most recent compaction
            failure, or ``None``.
        compaction_bytes_read: bytes of sealed segments the compactor read
            (only segments it rewrites: the rest it decides from their
            summaries).
        manifest_saves_writer: manifest saves by the writer side: open
            and close only (seals and checkpoints save nothing).
        manifest_saves_compactor: manifest saves by compaction passes (at
            most one per pass, none for a pass that changed no segment).
    """

    segments_sealed: int = 0
    compactions: int = 0
    bytes_reclaimed: int = 0
    flushes: int = 0
    fsyncs: int = 0
    checkpoints_base: int = 0
    checkpoints_delta: int = 0
    checkpoint_pause_ms: float = 0.0
    base_pause_ms: float = 0.0
    delta_pause_ms: float = 0.0
    torn_tail_truncations: int = 0
    bases_synthesized: int = 0
    base_synthesis_ms: float = 0.0
    compaction_errors: int = 0
    last_compaction_error: str | None = None
    compaction_bytes_read: int = 0
    manifest_saves_writer: int = 0
    manifest_saves_compactor: int = 0


#: Compaction attempts on one segment before it is quarantined.  A sealed
#: segment that keeps failing (CRC damage, undecodable records) would
#: otherwise pin the background compactor in a hot retry loop.
_COMPACTION_ATTEMPT_LIMIT = 3


class SegmentedWriteAheadLog(WriteAheadLog):
    """A write-ahead log over sealed segments with a checkpoint lineage.

    Opening an existing directory *is* the recovery scan: the manifest is
    read, the segments sealed after its last save are found by name, sealed
    segments are verified (CRC damage there is fatal), a torn tail record
    is truncated with a warning, orphan files from interrupted compactions
    are removed, and the in-memory state (records, checkpoint lineage,
    next LSN, dirty set for the next delta checkpoint) is rebuilt.  Use
    :func:`repro.storage.recover` to also replay the records into a fresh
    :class:`~repro.relational.database.Database`.

    Args:
        directory: segment/manifest directory (created if missing).
        config: engine configuration; defaults to a segmented
            :class:`DurabilityConfig` on ``directory``.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        config: DurabilityConfig | None = None,
    ) -> None:
        super().__init__()
        if config is None:
            config = DurabilityConfig(directory=os.fspath(directory))
        self.config = config
        self.directory = os.fspath(directory)
        self.statistics = DurabilityStatistics()
        #: Per-transaction effect buffers: txn id → [(table, values,
        #: is_delete)], folded into the dirty set at COMMIT, dropped at
        #: ABORT.  Guarded by the inherited ``_lock``.
        self._txn_effects: dict[int, list[tuple[str, tuple, bool]]] = {}
        #: Net row changes since the previous checkpoint:
        #: table → {values-tuple: True for "row gone", False for "row new"}.
        self._dirty: dict[str, dict[tuple, bool]] = {}
        self._lineage_length = 0
        self._has_base = False
        self._deltas_since_base = 0
        self._closed = False
        self._compactor = None
        #: Serializes compaction passes (background thread vs. an explicit
        #: ``compact_now()``); the writer never takes it.
        self._compaction_lock = threading.Lock()
        #: Compaction failure bookkeeping: attempts per segment file, and
        #: the quarantine of segments that keep failing.
        self._compaction_attempts: dict[str, int] = {}
        self._compaction_quarantine: set[str] = set()
        #: Off-writer base synthesis: armed by ``checkpoint_delta`` once
        #: the chain reaches ``base_interval``, executed by the next
        #: compaction pass.  ``_synthesis_cutoff`` is the LSN of the
        #: newest delta sealed at arming time — the fold's horizon.
        self._synthesis_due = False
        self._synthesis_cutoff = 0
        os.makedirs(self.directory, exist_ok=True)
        self._open_or_recover()

    # -- open / recovery scan ----------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _open_or_recover(self) -> None:
        tmp = self._path(MANIFEST_TMP_NAME)
        if os.path.exists(tmp):
            # An interrupted manifest update: os.replace never ran, so the
            # old manifest is still authoritative and the tmp is garbage.
            os.remove(tmp)
        manifest = Manifest.load(self.directory)
        if manifest is None:
            # Fresh directory.  Stray segment files can only come from a
            # crash between creating the first segment and the first
            # manifest save — before any record was written.
            for name in self._segment_files_on_disk():
                os.remove(self._path(name))
            self._manifest = Manifest()
            self._create_tail_locked()
            self._save_manifest_locked()
            return
        self._manifest = manifest
        saved_next = manifest.next_segment_index
        orphans: list[str] = []
        successors: list[LogSegment] = []
        for name in self._segment_files_on_disk() - manifest.segment_names():
            # A name this engine never writes parses as generation -1.
            index, generation = parse_segment_file_name(name) or (0, -1)
            # Indexes are never reused, not even an orphan's.
            manifest.next_segment_index = max(
                manifest.next_segment_index, index + 1
            )
            if generation == 0 and index >= saved_next:
                # Created by a seal after the last manifest save.
                successors.append(LogSegment(index=index, name=name))
            else:
                # Orphans: a compactor killed mid-rewrite (new generation
                # written, manifest never swapped) or mid-cleanup (swapped,
                # old file not yet deleted).
                orphans.append(name)
        manifest.segments += sorted(successors, key=attrgetter("index"))
        for entry in manifest.segments[:-1]:
            entry.sealed = True
        all_records: list[LogRecord] = []
        for entry in manifest.segments:
            all_records.extend(self._scan_segment(entry))
        for name in orphans:
            os.remove(self._path(name))
        self._install_records(all_records, buffer_open_transactions=False)
        if not manifest.segments or manifest.segments[-1].sealed:
            self._create_tail_locked()
        else:
            tail = manifest.segments[-1]
            self._tail = SegmentWriter(self._path(tail.name), fsync=self.config.fsync)
            self._tail.records = tail.records
        self._save_manifest_locked()

    def _save_manifest_locked(self) -> None:
        """Persist the manifest (open and close; caller holds ``_lock``)."""
        self._manifest.save(self.directory, fsync=self.config.fsync)
        self.statistics.manifest_saves_writer += 1

    def _save_manifest_image(self, image: Manifest) -> None:
        """Persist a compaction pass's manifest image.

        The caller holds ``_compaction_lock`` but not ``_lock``: the image
        was copied under ``_lock``, and its two fsyncs do not stall the
        writer.
        """
        image.save(self.directory, fsync=self.config.fsync)
        self.statistics.manifest_saves_compactor += 1

    def _segment_files_on_disk(self) -> set[str]:
        return {
            name
            for name in os.listdir(self.directory)
            if name.endswith(SEGMENT_SUFFIX)
        }

    def _scan_segment(self, entry: LogSegment) -> list[LogRecord]:
        """Read and verify one segment, truncating a torn tail record.

        Also builds the segment's in-memory summary from the records.
        """
        path = self._path(entry.name)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            raise RecoveryError(
                f"segment {entry.name!r} is listed in the manifest but "
                "missing on disk"
            ) from None
        records, scan = decode_frames(data)
        if scan.damage is not None:
            if entry.sealed:
                raise RecoveryError(
                    f"sealed segment {entry.name!r} is corrupt: {scan.damage}"
                )
            # The unsealed tail: damage past the clean prefix is a torn
            # trailing write from the crash — drop it, keep everything
            # before it, and say so.
            with open(path, "r+b") as handle:
                handle.truncate(scan.clean_length)
            warnings.warn(
                f"truncated torn tail record in {entry.name!r}: {scan.damage} "
                f"(kept {scan.clean_length} clean bytes)",
                RuntimeWarning,
                stacklevel=2,
            )
            self.statistics.torn_tail_truncations += 1
        for record in records:
            entry.note(record.lsn, record.record_type)
        entry.records = len(records)
        entry.size = scan.clean_length
        return records

    def _install_records(
        self, records: list[LogRecord], *, buffer_open_transactions: bool
    ) -> None:
        """Rebuild in-memory state from a full scan (or adopted log).

        Selects the *surviving* checkpoint lineage — the newest snapshot
        checkpoint plus every delta after it up to the newest checkpoint
        of any kind — and keeps only raw records past that point as the
        live tail; everything older is superseded (compaction may or may
        not have dropped it on disk yet).  The lineage's positions
        (``checkpoint_lsn``, ``base_lsn``) are read off it here, not from
        the manifest file.  The dirty set for the next delta checkpoint is
        refolded from the tail's committed records.
        """
        records = sorted(records, key=attrgetter("lsn"))
        checkpoint_idx = None
        for i, record in enumerate(records):
            if record.record_type.is_checkpoint:
                checkpoint_idx = i
        lineage: list[LogRecord] = []
        checkpoint_lsn = 0
        if checkpoint_idx is not None:
            base_idx = None
            for i in range(checkpoint_idx, -1, -1):
                if records[i].record_type.is_snapshot:
                    base_idx = i
                    break
            if base_idx is None:
                raise RecoveryError(
                    "CHECKPOINT_DELTA without a surviving base snapshot"
                )
            lineage = [records[base_idx]] + [
                r
                for r in records[base_idx + 1 : checkpoint_idx + 1]
                if r.record_type is LogRecordType.CHECKPOINT_DELTA
                # A synthesized base reuses the LSN of the newest delta it
                # folded; until compaction drops that delta's old record,
                # both coexist on disk — the delta is superseded.
                and r.lsn > records[base_idx].lsn
            ]
            checkpoint_lsn = records[checkpoint_idx].lsn
        tail = [
            r
            for r in records
            if r.lsn > checkpoint_lsn and not r.record_type.is_checkpoint
        ]
        self._records = lineage + tail
        self._lineage_length = len(lineage)
        self._manifest.checkpoint_lsn = checkpoint_lsn
        self._manifest.base_lsn = lineage[0].lsn if lineage else 0
        self._next_lsn = (records[-1].lsn if records else 0) + 1
        self._has_base = bool(lineage)
        self._deltas_since_base = max(0, len(lineage) - 1)
        self._dirty = {}
        self._txn_effects = {}
        committed = {
            r.transaction_id
            for r in tail
            if r.record_type is LogRecordType.COMMIT
        }
        finished = committed | {
            r.transaction_id
            for r in tail
            if r.record_type is LogRecordType.ABORT
        }
        for record in tail:
            if record.record_type is LogRecordType.INSERT:
                is_delete = False
            elif record.record_type is LogRecordType.DELETE:
                is_delete = True
            else:
                continue
            assert record.table is not None and record.values is not None
            if record.transaction_id in committed:
                self._fold_effect(record.table, record.values, is_delete)
            elif (
                buffer_open_transactions
                and record.transaction_id not in finished
            ):
                self._txn_effects.setdefault(record.transaction_id, []).append(
                    (record.table, record.values, is_delete)
                )

    def adopt(self, source: WriteAheadLog) -> None:
        """Take over an in-memory log's records (server start-up path).

        The engine must be freshly opened on an empty directory; every
        record of ``source`` is made durable in the segmented format and
        the in-memory state (lineage, tail, dirty set, effect buffers of
        still-open transactions) is rebuilt from it, so the database can
        simply swap ``db.wal`` to this engine and keep going.
        """
        records = source.records()
        with self._lock:
            if self._records or self._next_lsn != 1:
                raise DurabilityError(
                    "can only adopt into a freshly created empty engine; "
                    "this directory already holds records — recover from it "
                    "with repro.storage.recover() instead"
                )
            sealed = False
            for record in records:
                sealed = self._write_record_locked(record)
            if records and not sealed:
                self._flush_tail_locked()
            self._install_records(list(records), buffer_open_transactions=True)

    # -- the dirty-set algebra ----------------------------------------------

    def _fold_effect(self, table: str, values: tuple, is_delete: bool) -> None:
        """Fold one committed row effect into the net dirty set.

        Tables enforce keys with set semantics, so within one table a row
        (identified by its full value tuple, exactly how WAL DELETE
        records identify rows) alternates between present and absent:
        an insert cancels a pending delete of the same values (the row is
        back to its checkpointed state) and vice versa.
        """
        bucket = self._dirty.setdefault(table, {})
        prior = bucket.get(values)
        if prior is None:
            bucket[values] = is_delete
        elif prior != is_delete:
            del bucket[values]
            if not bucket:
                del self._dirty[table]
        # prior == is_delete cannot happen for key-enforced tables (the
        # runtime refuses double inserts / deletes of absent rows).

    def _delta_payload(self) -> dict[str, dict[str, list[tuple]]]:
        """The current dirty set as a CHECKPOINT_DELTA payload."""
        payload: dict[str, dict[str, list[tuple]]] = {}
        for table, bucket in self._dirty.items():
            deletes = sorted(
                (values for values, gone in bucket.items() if gone), key=repr
            )
            inserts = sorted(
                (values for values, gone in bucket.items() if not gone), key=repr
            )
            changes: dict[str, list[tuple]] = {}
            if deletes:
                changes["delete"] = deletes
            if inserts:
                changes["insert"] = inserts
            if changes:
                payload[table] = changes
        return payload

    # -- append path ---------------------------------------------------------

    def _write_record_locked(self, record: LogRecord) -> bool:
        """Frame ``record`` into the tail, sealing it when thresholds hit.

        Returns True when it sealed: the seal flushed (and synced) the
        record, so a record that must be durable needs no flush of its own.
        """
        self._tail.append(record.to_bytes())
        self._manifest.tail.note(record.lsn, record.record_type)
        if (
            self._tail.size >= self.config.segment_max_bytes
            or self._tail.records >= self.config.segment_max_records
        ):
            self._seal_tail_locked()
            return True
        return False

    def append(
        self,
        record_type: LogRecordType,
        transaction_id: int,
        table: str | None = None,
        values: Sequence[Any] | None = None,
        snapshot: Mapping[str, Sequence[Sequence[Any]]] | None = None,
    ) -> LogRecord:
        """Append a record (framed into the tail segment) and return it.

        A COMMIT/ABORT append flushes the tail (and syncs it with
        ``fsync=True``) before it returns, so a committed record is
        durable by the time the append returns.
        """
        with self._lock:
            if self._closed:
                raise DurabilityError(
                    "cannot append to a closed segmented engine"
                )
            record = LogRecord(
                lsn=self._next_lsn,
                record_type=record_type,
                transaction_id=transaction_id,
                table=table,
                values=tuple(values) if values is not None else None,
                snapshot=snapshot,
            )
            # Framed first: a value the codec cannot write leaves no trace.
            sealed = self._write_record_locked(record)
            self._next_lsn += 1
            self._records.append(record)
            if record_type is LogRecordType.INSERT:
                assert table is not None and record.values is not None
                self._txn_effects.setdefault(transaction_id, []).append(
                    (table, record.values, False)
                )
            elif record_type is LogRecordType.DELETE:
                assert table is not None and record.values is not None
                self._txn_effects.setdefault(transaction_id, []).append(
                    (table, record.values, True)
                )
            elif record_type is LogRecordType.COMMIT:
                for effect in self._txn_effects.pop(transaction_id, ()):
                    self._fold_effect(*effect)
                if not sealed:
                    self._flush_tail_locked()
            elif record_type is LogRecordType.ABORT:
                self._txn_effects.pop(transaction_id, None)
                if not sealed:
                    self._flush_tail_locked()
        return record

    def _flush_tail_locked(self) -> None:
        """Flush the tail (and ``os.fsync`` it with ``fsync=True``)."""
        self._tail.flush()
        self.statistics.flushes += 1
        if self.config.fsync:
            self.statistics.fsyncs += 1

    def flush(self) -> None:
        """Force the tail segment's durability point (called at shutdown)."""
        with self._lock:
            if not self._closed:
                self._flush_tail_locked()

    # -- sealing -------------------------------------------------------------

    def _create_tail_locked(self) -> None:
        index = self._manifest.next_segment_index
        self._manifest.next_segment_index += 1
        entry = LogSegment(index=index, name=segment_file_name(index))
        self._tail = SegmentWriter(self._path(entry.name), fsync=self.config.fsync)
        self._manifest.segments.append(entry)

    def _seal_tail_locked(self) -> None:
        """Seal the live segment and open a fresh tail.

        Flush (and sync) the outgoing tail, create the successor file, and
        with ``fsync`` sync the directory; the manifest is not saved.  The
        order is what makes it crash-safe: the outgoing tail is durable
        before a successor exists, and the successor's name is durable
        before a commit in it is acknowledged.  Open finds the successor by
        its name (generation 0, index at or past the saved
        ``next_segment_index``), and every segment before the last one it
        finds counts as sealed.  A crash before the directory sync may
        leave an empty successor, or none; both open to the same records.
        """
        self._flush_tail_locked()
        entry = self._manifest.tail
        entry.sealed = True
        entry.records = self._tail.records
        entry.size = self._tail.size
        self._tail.close()
        self._create_tail_locked()
        if self.config.fsync:
            sync_directory(self.directory)
        self.statistics.segments_sealed += 1
        self._trigger_compaction()

    # -- checkpoints ----------------------------------------------------------

    def wants_delta_checkpoint(self) -> bool:
        """True once a base exists: every later checkpoint is a delta.

        Compaction passes synthesize the later bases off the writer, so
        the writer never builds another full snapshot.
        """
        with self._lock:
            return self._has_base

    def checkpoint(
        self, snapshot: Mapping[str, Sequence[Sequence[Any]]]
    ) -> LogRecord:
        """Write a CHECKPOINT_BASE record starting a fresh lineage.

        Unlike the in-memory fold, nothing is discarded on disk
        here: the base record is appended to the tail and the in-memory
        lineage pointers advance (open reads them off the record heads, so
        the manifest is not saved); dropping the superseded records on
        disk is the background compactor's job.
        """
        with self._lock:
            if self._closed:
                raise DurabilityError(
                    "cannot checkpoint a closed segmented engine"
                )
            record = LogRecord(
                lsn=self._next_lsn,
                record_type=LogRecordType.CHECKPOINT_BASE,
                transaction_id=0,
                snapshot={name: tuple(rows) for name, rows in snapshot.items()},
            )
            self._next_lsn += 1
            if not self._write_record_locked(record):
                self._flush_tail_locked()
            self._records = [record]
            self._lineage_length = 1
            self._dirty = {}
            self._has_base = True
            self._deltas_since_base = 0
            self._synthesis_due = False
            self._manifest.checkpoint_lsn = record.lsn
            self._manifest.base_lsn = record.lsn
            self.statistics.checkpoints_base += 1
        self._trigger_compaction()
        return record

    def checkpoint_delta(self) -> LogRecord:
        """Write a CHECKPOINT_DELTA record folding the dirty set.

        The payload is exactly the net row changes committed since the
        previous checkpoint — already tracked incrementally at commit
        time, so no snapshot of the store is built and the pause is
        proportional to churn.  Like :meth:`checkpoint` it appends and
        flushes the one record and saves no manifest.

        Raises:
            DurabilityError: if no base snapshot exists yet (a delta
                without a base would have nothing to chain to).
        """
        with self._lock:
            if self._closed:
                raise DurabilityError(
                    "cannot checkpoint a closed segmented engine"
                )
            if not self._has_base:
                raise DurabilityError(
                    "cannot take a delta checkpoint before the first base "
                    "snapshot; call checkpoint() with a full snapshot first"
                )
            record = LogRecord(
                lsn=self._next_lsn,
                record_type=LogRecordType.CHECKPOINT_DELTA,
                transaction_id=0,
                delta=self._delta_payload(),
            )
            self._next_lsn += 1
            if not self._write_record_locked(record):
                self._flush_tail_locked()
            self._records = self._records[: self._lineage_length] + [record]
            self._lineage_length += 1
            self._dirty = {}
            self._deltas_since_base += 1
            self._manifest.checkpoint_lsn = record.lsn
            if (
                not self._synthesis_due
                and self._deltas_since_base >= self.config.base_interval
            ):
                # Arm the off-writer base fold: seal the tail so the whole
                # delta chain lives in sealed (durable) segments the
                # compactor can read, and fix the fold's horizon at this
                # delta.  The fold itself never runs here.
                self._synthesis_cutoff = record.lsn
                self._synthesis_due = True
                if self._tail.records > 0:
                    self._seal_tail_locked()
            self.statistics.checkpoints_delta += 1
        self._trigger_compaction()
        return record

    def note_checkpoint_pause(self, pause_ms: float, *, delta: bool = False) -> None:
        # The engine keeps its maxima in ``statistics``, not in the
        # in-memory log's ``_max_pause_ms``.
        stats = self.statistics
        stats.checkpoint_pause_ms = max(stats.checkpoint_pause_ms, pause_ms)
        if delta:
            stats.delta_pause_ms = max(stats.delta_pause_ms, pause_ms)
        else:
            stats.base_pause_ms = max(stats.base_pause_ms, pause_ms)

    # -- compaction ------------------------------------------------------------

    def _trigger_compaction(self) -> None:
        compactor = self._compactor
        if compactor is not None:
            compactor.trigger()

    def start_compactor(self):
        """Start (or return) the background compactor thread."""
        from repro.storage.compactor import Compactor

        if self._compactor is None:
            self._compactor = Compactor(self)
        return self._compactor

    def stop_compactor(self) -> None:
        """Stop the background compactor, if running (idempotent)."""
        compactor, self._compactor = self._compactor, None
        if compactor is not None:
            compactor.close()

    @staticmethod
    def _keep_in_compaction(
        lsn: int,
        record_type: LogRecordType | None,
        base_lsn: int,
        checkpoint_lsn: int,
    ) -> bool:
        """Drop rule: superseded by the lineage as of the given pointers.

        ``record_type`` is the record's kind; ``None`` stands for any raw
        (non-checkpoint) record, which the rule treats alike.
        Checkpoint-family records survive from the current base onwards
        (older lineages are fully superseded); raw records survive only
        past the newest checkpoint.  The pointers are read once under the
        lock — if a newer checkpoint lands mid-pass we merely keep a few
        extra records, never drop a needed one (the lineage only moves
        forward).
        """
        if record_type is not None and record_type.is_checkpoint:
            if record_type is LogRecordType.CHECKPOINT_DELTA:
                # A synthesized base reuses its newest folded delta's LSN;
                # that delta is superseded the moment the base lands, so
                # deltas survive only strictly past the base.
                return lsn > base_lsn
            return lsn >= base_lsn
        return lsn > checkpoint_lsn

    def _summary_verdict(
        self, entry: LogSegment, base_lsn: int, checkpoint_lsn: int
    ) -> bool | None:
        """The drop rule over a segment's summary, without reading it.

        True: every record is kept.  False: none is.  None: the segment is
        mixed and must be read.  Raw records are in LSN order and the rule
        keeps a suffix of them, so their first and last LSN decide.
        """
        samples = list(entry.checkpoints)
        if entry.raw_last_lsn:
            samples += [(entry.raw_first_lsn, None), (entry.raw_last_lsn, None)]
        kept = [
            self._keep_in_compaction(lsn, record_type, base_lsn, checkpoint_lsn)
            for lsn, record_type in samples
        ]
        if not any(kept):
            return False
        if all(kept):
            return True
        return None

    def _note_compaction_failure(self, name: str, exc: BaseException) -> None:
        """Count a failed pass on ``name``; quarantine after the limit.

        A sealed segment that keeps failing — typically CRC damage found
        by the compaction read — must not pin the background compactor in
        a hot retry loop: after ``_COMPACTION_ATTEMPT_LIMIT`` attempts the
        segment becomes ineligible and the rest of the chain keeps
        compacting.  The counters surface through
        :meth:`durability_statistics`.
        """
        with self._lock:
            stats = self.statistics
            stats.compaction_errors += 1
            stats.last_compaction_error = f"{name}: {exc}"
            attempts = self._compaction_attempts.get(name, 0) + 1
            self._compaction_attempts[name] = attempts
            if attempts >= _COMPACTION_ATTEMPT_LIMIT:
                self._compaction_quarantine.add(name)

    def compact_once(self) -> bool:
        """Run one compaction pass; True if work was done.

        A due base synthesis runs first, as a pass of its own — it
        supersedes the delta chain the pass would otherwise be compacting
        around.  Otherwise the pass takes every sealed segment not yet
        compacted at the current checkpoint and decides from its summary:
        a segment the drop rule empties is unlinked unread, one it keeps
        whole is neither read nor written (only its ``compacted_at_lsn``
        hint advances), and only a mixed one is read and its kept frames
        copied into a *new generation* (new name), off the writer lock.
        All decisions are installed under one ``_lock`` acquisition, which
        also copies the manifest; that copy is saved once — not at all if
        no segment changed — off the writer's lock, and the superseded
        files are unlinked only after that save: a crash before it leaves
        the rewrites as orphans, a crash after it leaves the superseded
        files as orphans, and the open-time cleanup removes either.
        """
        with self._compaction_lock:
            try:
                if self._synthesize_base():
                    return True
            except Exception as exc:
                with self._lock:
                    # Disarm rather than retry in a loop; the next delta
                    # checkpoint re-arms the fold with a fresh horizon.
                    self._synthesis_due = False
                    self.statistics.compaction_errors += 1
                    self.statistics.last_compaction_error = (
                        f"base synthesis: {exc}"
                    )
                raise
            with self._lock:
                if self._closed:
                    return False
                checkpoint_lsn = self._manifest.checkpoint_lsn
                base_lsn = self._manifest.base_lsn
                candidates = [
                    entry
                    for entry in self._manifest.segments[:-1]
                    if entry.sealed
                    and entry.compacted_at_lsn < checkpoint_lsn
                    and entry.name not in self._compaction_quarantine
                ]
            if not candidates:
                return False
            dropped: list[LogSegment] = []
            rewrites: list[tuple[LogSegment, LogSegment]] = []
            for entry in candidates:
                verdict = self._summary_verdict(entry, base_lsn, checkpoint_lsn)
                if verdict is False:
                    dropped.append(entry)
                elif verdict is None:
                    # A failure here installs nothing: the generations
                    # already written are orphans, and the next pass
                    # writes them again under the same names.
                    rewritten = self._rewrite_mixed(entry, base_lsn, checkpoint_lsn)
                    rewrites.append((entry, rewritten))
            superseded = [entry.name for entry in dropped] + [
                entry.name for entry, _rewritten in rewrites
            ]
            with self._lock:
                for entry in candidates:
                    entry.compacted_at_lsn = checkpoint_lsn
                segments = self._manifest.segments
                for entry in dropped:
                    segments.remove(entry)
                    self.statistics.bytes_reclaimed += entry.size
                for entry, rewritten in rewrites:
                    segments[segments.index(entry)] = rewritten
                    self.statistics.bytes_reclaimed += entry.size - rewritten.size
                self.statistics.compactions += len(superseded)
                self._manifest.compacted_through_lsn = min(
                    (
                        entry.compacted_at_lsn
                        for entry in self._manifest.segments[:-1]
                        if entry.sealed
                    ),
                    default=checkpoint_lsn,
                )
                image = self._manifest.copy() if superseded else None
            if image is not None:
                self._save_manifest_image(image)
            for name in superseded:
                os.remove(self._path(name))
            return True

    def _rewrite_mixed(
        self, entry: LogSegment, base_lsn: int, checkpoint_lsn: int
    ) -> LogSegment:
        """Copy a mixed segment's kept frames into its next generation.

        Returns the new file's manifest entry, summary included, not yet
        installed.  A read or decode failure counts against the segment
        (see :meth:`_note_compaction_failure`).
        """
        try:
            with open(self._path(entry.name), "rb") as handle:
                data = handle.read()
            self.statistics.compaction_bytes_read += len(data)
            scan = scan_frames(data)
            if scan.damage is not None:
                raise RecoveryError(
                    f"sealed segment {entry.name!r} is corrupt: {scan.damage}"
                )
            heads = list(map(LogRecord.head_from_bytes, scan.payloads))
        except Exception as exc:
            self._note_compaction_failure(entry.name, exc)
            raise
        rewritten = LogSegment(
            index=entry.index,
            generation=entry.generation + 1,
            sealed=True,
            compacted_at_lsn=checkpoint_lsn,
        )
        with open(self._path(rewritten.name), "wb") as handle:
            for (lsn, record_type), payload in zip(heads, scan.payloads):
                if self._keep_in_compaction(
                    lsn, record_type, base_lsn, checkpoint_lsn
                ):
                    # The frame as read, byte for byte: the CRC check
                    # above covered it, and nothing is re-encoded.
                    frame = encode_frame(payload)
                    handle.write(frame)
                    rewritten.size += len(frame)
                    rewritten.records += 1
                    rewritten.note(lsn, record_type)
            handle.flush()
            if self.config.fsync:
                os.fsync(handle.fileno())
        return rewritten

    @staticmethod
    def _fold_lineage(
        base: LogRecord, deltas: Sequence[LogRecord]
    ) -> dict[str, tuple]:
        """Apply a delta chain to a base snapshot (synthesized-base fold).

        Same net-change semantics as recovery replay applying the chain
        to a restored snapshot: deletes remove rows by their full value
        tuple, inserts append.  An impossible step means the chain is
        damaged and the fold must not produce a base from it.
        """
        assert base.snapshot is not None
        tables: dict[str, dict[tuple, None]] = {
            name: dict.fromkeys(tuple(row) for row in rows)
            for name, rows in base.snapshot.items()
        }
        for record in deltas:
            for name, changes in (record.delta or {}).items():
                bucket = tables.setdefault(name, {})
                for row in changes.get("delete", ()):
                    key = tuple(row)
                    if key not in bucket:
                        raise RecoveryError(
                            f"delta {record.lsn} deletes a row absent from "
                            f"the folded base of table {name!r}"
                        )
                    del bucket[key]
                for row in changes.get("insert", ()):
                    key = tuple(row)
                    if key in bucket:
                        raise RecoveryError(
                            f"delta {record.lsn} re-inserts a row already "
                            f"present in the folded base of table {name!r}"
                        )
                    bucket[key] = None
        return {name: tuple(bucket) for name, bucket in tables.items()}

    def _synthesize_base(self) -> bool:
        """Fold base + sealed delta chain into a fresh synthesized base.

        Runs on the compactor, never the writer: the fold works off the
        writer lock on an immutable copy of the lineage, the new base is
        written into its own sealed segment file, and only the install —
        splicing that segment into the front of the manifest chain and
        advancing the lineage pointers — takes the lock, exactly like a
        segment rewrite; the manifest save after it does not.  The
        synthesized record *reuses the LSN of the newest delta it folded*,
        preserving the log's total order; the superseded delta is filtered
        at install/recovery and dropped by compaction.  The file is born
        at generation 1 under a fresh index, so a crash before the
        manifest save leaves it as a cleanable orphan (never a writer
        successor) and the old lineage authoritative.
        """
        with self._lock:
            if self._closed or not self._synthesis_due:
                return False
            cutoff = self._synthesis_cutoff
            lineage = list(self._records[: self._lineage_length])
            checkpoint_lsn = self._manifest.checkpoint_lsn
        if not lineage or not lineage[0].record_type.is_snapshot:
            with self._lock:
                self._synthesis_due = False
            return False
        deltas = [
            r
            for r in lineage[1:]
            if r.record_type is LogRecordType.CHECKPOINT_DELTA
            and r.lsn <= cutoff
        ]
        if not deltas:
            with self._lock:
                self._synthesis_due = False
            return False
        started = time.perf_counter()
        snapshot = self._fold_lineage(lineage[0], deltas)
        base = LogRecord(
            lsn=deltas[-1].lsn,
            record_type=LogRecordType.CHECKPOINT_BASE,
            transaction_id=0,
            snapshot=snapshot,
        )
        frame = encode_frame(base.to_bytes())
        with self._lock:
            if self._closed:
                return False
            index = self._manifest.next_segment_index
            self._manifest.next_segment_index += 1
        name = segment_file_name(index, generation=1)
        path = self._path(name)
        with open(path, "wb") as handle:
            handle.write(frame)
            handle.flush()
            if self.config.fsync:
                os.fsync(handle.fileno())
        with self._lock:
            if (
                self._closed
                or not self._records
                or self._lineage_length < 1
                or self._records[0].lsn != lineage[0].lsn
            ):
                # The lineage was replaced under us (an explicit
                # writer-side base); the freshly written file was never
                # referenced by the manifest — drop it.
                os.remove(path)
                self._synthesis_due = False
                return False
            entry = LogSegment(
                index=index,
                generation=1,
                sealed=True,
                records=1,
                size=len(frame),
                compacted_at_lsn=checkpoint_lsn,
            )
            entry.note(base.lsn, base.record_type)
            self._manifest.segments.insert(0, entry)
            self._manifest.base_lsn = base.lsn
            remaining = [
                r
                for r in self._records[1 : self._lineage_length]
                if r.lsn > base.lsn
            ]
            live_tail = self._records[self._lineage_length :]
            self._records = [base] + remaining + live_tail
            self._lineage_length = 1 + len(remaining)
            self._deltas_since_base = len(remaining)
            self._synthesis_due = False
            image = self._manifest.copy()
        self._save_manifest_image(image)
        self.statistics.bases_synthesized += 1
        self.statistics.base_synthesis_ms = max(
            self.statistics.base_synthesis_ms,
            (time.perf_counter() - started) * 1000.0,
        )
        self._trigger_compaction()
        return True

    def compact_now(self) -> int:
        """Synchronously compact until no sealed segment is eligible."""
        passes = 0
        while self.compact_once():
            passes += 1
        return passes

    # -- reporting / lifecycle ------------------------------------------------

    def durability_statistics(self) -> dict[str, Any]:
        """Flat ``durability.*`` counters for ``statistics_report()``: every
        :class:`DurabilityStatistics` field, plus the mode and four live
        values: segment counts and the manifest's LSN marks."""
        with self._lock:
            return {
                "mode": "segmented",
                "segments_live": len(self._manifest.segments),
                **vars(self.statistics),
                "segments_quarantined": len(self._compaction_quarantine),
                "checkpoint_lsn": self._manifest.checkpoint_lsn,
                "compacted_through_lsn": self._manifest.compacted_through_lsn,
            }

    def close(self) -> None:
        """Stop the compactor, sync and close the tail, save the manifest
        (idempotent).  ``_compaction_lock`` keeps an explicit pass's save
        from racing this one."""
        self.stop_compactor()
        with self._compaction_lock, self._lock:
            if self._closed:
                return
            self._closed = True
            tail = self._manifest.tail
            tail.records = self._tail.records
            tail.size = self._tail.size
            self._tail.close()
            self._save_manifest_locked()
