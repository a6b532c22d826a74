"""The segmented write-ahead log: the log-structured durability engine.

:class:`SegmentedWriteAheadLog` is a drop-in
:class:`~repro.relational.wal.WriteAheadLog`: transactions, recovery and
the server stack talk to it through the same interface (``append``,
``records``, ``flush``, ``checkpoint``), so the switch between legacy and
segmented durability is one :class:`~repro.storage.config.DurabilityConfig`
knob.  What changes underneath:

* **Segments, not one file.**  Records are CRC-framed into an append-only
  tail segment; when the tail reaches ``segment_max_bytes`` /
  ``segment_max_records`` it is sealed and a fresh tail opened.  A
  manifest (atomic rename updates) records the chain.

* **Checkpoint lineage, not a monolithic fold.**  A periodic
  ``CHECKPOINT_BASE`` carries a full snapshot; between bases,
  ``CHECKPOINT_DELTA`` records carry only the *net* row changes since the
  previous checkpoint, tracked incrementally as transactions commit — so
  the checkpoint pause is proportional to churn, not store size (see
  :meth:`~repro.relational.database.Database.checkpoint`).

* **Compaction, not truncation.**  Sealed segments full of records
  superseded by the checkpoint lineage are rewritten (or deleted) by the
  background compactor without ever blocking the writer; the manifest
  swap makes each rewrite atomic.

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
from typing import Any, Mapping, Sequence

from repro.errors import DurabilityError, RecoveryError
from repro.relational.wal import (
    CHECKPOINT_TYPES,
    SNAPSHOT_CHECKPOINT_TYPES,
    LogRecord,
    LogRecordType,
    WalSink,
    WriteAheadLog,
)
from repro.storage.config import DurabilityConfig
from repro.storage.manifest import MANIFEST_TMP_NAME, Manifest
from repro.storage.segment import (
    SEGMENT_SUFFIX,
    LogSegment,
    SegmentWriter,
    encode_frame,
    scan_frames,
    segment_file_name,
)


@dataclass
class DurabilityStatistics:
    """Counters of the segmented engine (``durability.*`` in reports).

    Attributes:
        segments_sealed: tail segments sealed since open.
        compactions: sealed-segment rewrites/deletions performed.
        bytes_reclaimed: on-disk bytes dropped by compaction.
        flushes: group-commit flushes of the tail segment.
        fsyncs: ``os.fsync`` calls on the tail (``fsync=True`` only).
        checkpoints_base: full-snapshot checkpoints written.
        checkpoints_delta: delta checkpoints written.
        checkpoint_pause_ms: longest observed checkpoint pause (any kind).
        base_pause_ms: longest full-snapshot checkpoint pause.
        delta_pause_ms: longest delta checkpoint pause — the number the
            recovery benchmark gates against the legacy full-snapshot
            pause.
        torn_tail_truncations: torn trailing records truncated at open.
        sync_windows: deferred group fsyncs issued by the window thread
            (``fsync_window_s > 0``); each one covers every commit that
            flushed since the previous sync.
        bases_synthesized: base checkpoints folded off the writer by the
            compactor (``incremental_bases=True``).
        base_synthesis_ms: longest off-writer base fold observed (never a
            writer pause — reported to show the background cost).
        compaction_errors: failed compaction passes (corrupt sealed
            segments, fold failures); see ``last_compaction_error``.
        last_compaction_error: description of the most recent compaction
            failure, or ``None``.
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
    sync_windows: int = 0
    bases_synthesized: int = 0
    base_synthesis_ms: float = 0.0
    compaction_errors: int = 0
    last_compaction_error: str | None = None


#: Compaction attempts on one segment before it is quarantined.  A sealed
#: segment that keeps failing (CRC damage, undecodable records) would
#: otherwise pin the background compactor in a hot retry loop.
_COMPACTION_ATTEMPT_LIMIT = 3


class _GroupSyncWindow:
    """Coordinates deferred commit fsyncs into timed group syncs.

    Commit flushes ``request()`` a ticket under the writer lock and then
    ``await_ticket()`` it *outside* the lock; a timer thread issues one
    ``os.fsync`` on the tail once ``window_s`` has elapsed since the first
    uncovered request, covering every ticket issued so far.  Paths that
    sync the tail themselves (seals, checkpoints, explicit ``flush()``,
    ``close()``) call ``complete_all()`` — every pending ticket points
    into the tail they just synced, because sealing is itself such a path.
    """

    def __init__(self, engine: "SegmentedWriteAheadLog", window_s: float) -> None:
        self._engine = engine
        self._window_s = window_s
        self._cond = threading.Condition()
        self._requested = 0
        self._completed = 0
        self._window_opened: float | None = None
        self._error: BaseException | None = None
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run,
            name="repro-wal-group-sync",
            daemon=True,
        )
        self._thread.start()

    def request(self) -> int:
        """Register a flush awaiting its covering sync; returns its ticket."""
        with self._cond:
            self._requested += 1
            if self._window_opened is None:
                self._window_opened = time.monotonic()
            self._cond.notify_all()
            return self._requested

    def pending(self) -> bool:
        with self._cond:
            return self._completed < self._requested

    def complete_all(self) -> None:
        """Mark every ticket covered (the caller just synced the tail)."""
        with self._cond:
            self._completed = self._requested
            self._window_opened = None
            self._cond.notify_all()

    def fail(self, exc: BaseException) -> None:
        with self._cond:
            self._error = exc
            self._cond.notify_all()

    def await_ticket(self, ticket: int) -> None:
        """Block until the sync covering ``ticket`` has landed."""
        with self._cond:
            while self._completed < ticket:
                if self._error is not None:
                    raise DurabilityError(
                        "group fsync failed; commits in the window are not "
                        "durable"
                    ) from self._error
                if self._stopped:
                    raise DurabilityError(
                        "segmented engine closed while a commit awaited its "
                        "group fsync"
                    )
                self._cond.wait()

    def stop(self) -> None:
        """Stop the timer thread (idempotent; release any stuck waiter)."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            self._cond.notify_all()
        self._thread.join()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._stopped and (
                    self._completed >= self._requested or self._error is not None
                ):
                    self._cond.wait()
                if self._stopped:
                    return
                assert self._window_opened is not None
                deadline = self._window_opened + self._window_s
                while not self._stopped:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                if self._stopped:
                    return
            self._engine._sync_tail_for_window()


class SegmentedWriteAheadLog(WriteAheadLog):
    """A write-ahead log over sealed segments with a checkpoint lineage.

    Opening an existing directory *is* the recovery scan: the manifest is
    read, sealed segments are verified (CRC damage there is fatal), a
    torn tail record is truncated with a warning, orphan files from
    interrupted compactions are removed, and the in-memory state (records,
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
            config = DurabilityConfig(mode="segmented", directory=os.fspath(directory))
        if not config.segmented:
            raise DurabilityError(
                "SegmentedWriteAheadLog needs DurabilityConfig(mode='segmented')"
            )
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
        #: Off-writer base synthesis (``incremental_bases``): armed by
        #: ``checkpoint_delta`` once the chain reaches ``base_interval``,
        #: executed by the compactor.  ``_synthesis_cutoff`` is the LSN of
        #: the newest delta sealed at arming time — the fold's horizon.
        self._synthesis_due = False
        self._synthesis_cutoff = 0
        #: Group-fsync window (``fsync_window_s > 0``): commit flushes
        #: defer their sync to the window's timer thread and block on a
        #: ticket outside the writer lock.
        self._sync_window: _GroupSyncWindow | None = None
        if config.fsync and config.fsync_window_s > 0:
            self._sync_window = _GroupSyncWindow(self, config.fsync_window_s)
        os.makedirs(self.directory, exist_ok=True)
        self._open_or_recover()

    @property
    def _tail_fsync(self) -> bool:
        # With a group window the engine drives tail syncs itself; the
        # writer must not sync on every flush.
        return self.config.fsync and self._sync_window is None

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
            self._manifest.save(self.directory, fsync=self.config.fsync)
            return
        self._manifest = manifest
        all_records: list[LogRecord] = []
        for entry in manifest.segments:
            all_records.extend(self._scan_segment(entry))
        for name in self._segment_files_on_disk() - manifest.segment_names():
            # Orphans: a compactor killed mid-rewrite (new file written,
            # manifest never swapped) or mid-cleanup (swapped, old file
            # not yet deleted).  Either way the manifest never names them.
            os.remove(self._path(name))
        self._install_records(all_records, buffer_open_transactions=False)
        if not manifest.segments or manifest.segments[-1].sealed:
            self._create_tail_locked()
        else:
            tail = manifest.segments[-1]
            self._tail = SegmentWriter(self._path(tail.name), fsync=self._tail_fsync)
            self._tail.records = tail.records
        self._manifest.save(self.directory, fsync=self.config.fsync)

    def _segment_files_on_disk(self) -> set[str]:
        return {
            name
            for name in os.listdir(self.directory)
            if name.endswith(SEGMENT_SUFFIX)
        }

    def _scan_segment(self, entry: LogSegment) -> list[LogRecord]:
        """Read and verify one segment, truncating a torn tail record."""
        path = self._path(entry.name)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            raise RecoveryError(
                f"segment {entry.name!r} is listed in the manifest but "
                "missing on disk"
            ) from None
        scan = scan_frames(data)
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
        records = [
            LogRecord.from_json(payload.decode("utf-8"))
            for payload in scan.payloads
        ]
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
        not have dropped it on disk yet).  The dirty set for the next
        delta checkpoint is refolded from the tail's committed records.
        """
        records = sorted(records, key=lambda r: r.lsn)
        checkpoint_idx = None
        for i, record in enumerate(records):
            if record.record_type in CHECKPOINT_TYPES:
                checkpoint_idx = i
        lineage: list[LogRecord] = []
        checkpoint_lsn = 0
        if checkpoint_idx is not None:
            base_idx = None
            for i in range(checkpoint_idx, -1, -1):
                if records[i].record_type in SNAPSHOT_CHECKPOINT_TYPES:
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
            if r.lsn > checkpoint_lsn and r.record_type not in CHECKPOINT_TYPES
        ]
        self._records = lineage + tail
        self._lineage_length = len(lineage)
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
            for record in records:
                self._write_record_locked(record)
            if records:
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

    def _write_record_locked(self, record: LogRecord) -> None:
        """Frame ``record`` into the tail, sealing it when thresholds hit."""
        self._tail.append(record.to_json().encode("utf-8"))
        if (
            self._tail.size >= self.config.segment_max_bytes
            or self._tail.records >= self.config.segment_max_records
        ):
            self._seal_tail_locked()

    def append(
        self,
        record_type: LogRecordType,
        transaction_id: int,
        table: str | None = None,
        values: Sequence[Any] | None = None,
        snapshot: Mapping[str, Sequence[Sequence[Any]]] | None = None,
    ) -> LogRecord:
        """Append a record (framed into the tail segment) and return it.

        With a group-fsync window, a COMMIT/ABORT append flushes the tail
        and then blocks — outside the writer lock, so concurrent commits
        stack into the same window — until the deferred sync covering it
        lands; the record is therefore durable by the time the append
        returns, exactly as with per-commit syncs.
        """
        ticket: int | None = None
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
            self._next_lsn += 1
            self._records.append(record)
            self._write_record_locked(record)
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
                ticket = self._flush_tail_locked(defer_sync=True)
            elif record_type is LogRecordType.ABORT:
                self._txn_effects.pop(transaction_id, None)
                ticket = self._flush_tail_locked(defer_sync=True)
        if ticket is not None:
            assert self._sync_window is not None
            self._sync_window.await_ticket(ticket)
        return record

    def _flush_tail_locked(self, *, defer_sync: bool = False) -> int | None:
        """Flush the tail; returns a sync ticket when the sync is deferred.

        With a group-fsync window, commit flushes (``defer_sync=True``)
        hand their ``os.fsync`` to the window thread and return a ticket
        the caller must await *outside* the writer lock.  Every other
        flush — checkpoints, seals, explicit :meth:`flush`, ``adopt`` —
        syncs eagerly, so manifest pointer advances never reference
        unsynced records.
        """
        self._tail.flush()
        self.statistics.flushes += 1
        window = self._sync_window
        if window is None:
            if self.config.fsync:
                self.statistics.fsyncs += 1
            return None
        if defer_sync:
            return window.request()
        self._tail.sync()
        self.statistics.fsyncs += 1
        window.complete_all()
        return None

    def _sync_tail_for_window(self) -> None:
        """Issue one group sync covering every pending ticket (timer thread)."""
        window = self._sync_window
        assert window is not None
        with self._lock:
            if self._closed or not window.pending():
                # close() (or an eager sync path) already covered the
                # outstanding tickets.
                return
            try:
                self._tail.sync()
            except OSError as exc:  # pragma: no cover - disk failure path
                window.fail(exc)
                return
            self.statistics.fsyncs += 1
            self.statistics.sync_windows += 1
            window.complete_all()

    def flush(self) -> None:
        """Force the tail segment's durability point.

        In windowed mode this syncs immediately and releases every pending
        commit waiter — an explicit flush is a durability point (the
        server calls it at shutdown).
        """
        with self._lock:
            if not self._closed:
                self._flush_tail_locked()

    # -- sealing -------------------------------------------------------------

    def _create_tail_locked(self) -> None:
        index = self._manifest.next_segment_index
        self._manifest.next_segment_index += 1
        entry = LogSegment(index=index, name=segment_file_name(index))
        self._tail = SegmentWriter(self._path(entry.name), fsync=self._tail_fsync)
        self._manifest.segments.append(entry)

    def _seal_tail_locked(self) -> None:
        """Seal the live segment and open a fresh tail.

        Order matters for crash-safety: the outgoing tail is flushed (its
        records must be durable before anything references them as
        sealed), the new segment file is created, and only then the
        manifest is atomically updated.  A crash between the steps leaves
        either the old manifest (new file is a cleanable orphan) or the
        new one — both recoverable.
        """
        self._tail.flush()
        window = self._sync_window
        if window is not None:
            # A sealed segment must be durable before the manifest marks
            # it sealed, and every pending commit ticket points into this
            # tail — sync it now and release the waiters.
            self._tail.sync()
            self.statistics.fsyncs += 1
            window.complete_all()
        entry = self._manifest.tail
        entry.sealed = True
        entry.records = self._tail.records
        entry.size = self._tail.size
        self._tail.close()
        self._create_tail_locked()
        self._manifest.save(self.directory, fsync=self.config.fsync)
        self.statistics.segments_sealed += 1
        self._trigger_compaction()

    # -- checkpoints ----------------------------------------------------------

    def wants_delta_checkpoint(self) -> bool:
        """True between base checkpoints (see ``DurabilityConfig.base_interval``).

        With ``incremental_bases`` every checkpoint after the first base
        is a delta — the compactor synthesizes the bases off the writer,
        so the writer never builds another full snapshot.
        """
        with self._lock:
            if not self._has_base:
                return False
            if self.config.incremental_bases:
                return True
            return self._deltas_since_base < self.config.base_interval

    def checkpoint(
        self, snapshot: Mapping[str, Sequence[Sequence[Any]]]
    ) -> LogRecord:
        """Write a CHECKPOINT_BASE record starting a fresh lineage.

        Unlike the monolithic fold, nothing is rewritten or truncated
        here: the base record is appended to the tail and the manifest's
        lineage pointers advance; dropping the superseded records on disk
        is the background compactor's job.
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
            self._write_record_locked(record)
            self._flush_tail_locked()
            self._records = [record]
            self._lineage_length = 1
            self._dirty = {}
            self._has_base = True
            self._deltas_since_base = 0
            self._synthesis_due = False
            self._manifest.checkpoint_lsn = record.lsn
            self._manifest.base_lsn = record.lsn
            self._manifest.save(self.directory, fsync=self.config.fsync)
            self.statistics.checkpoints_base += 1
        self._trigger_compaction()
        return record

    def checkpoint_delta(self) -> LogRecord:
        """Write a CHECKPOINT_DELTA record folding the dirty set.

        The payload is exactly the net row changes committed since the
        previous checkpoint — already tracked incrementally at commit
        time, so no snapshot of the store is built and the pause is
        proportional to churn.

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
            self._write_record_locked(record)
            self._flush_tail_locked()
            self._records = self._records[: self._lineage_length] + [record]
            self._lineage_length += 1
            self._dirty = {}
            self._deltas_since_base += 1
            self._manifest.checkpoint_lsn = record.lsn
            if (
                self.config.incremental_bases
                and not self._synthesis_due
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
                else:
                    self._manifest.save(self.directory, fsync=self.config.fsync)
            else:
                self._manifest.save(self.directory, fsync=self.config.fsync)
            self.statistics.checkpoints_delta += 1
        self._trigger_compaction()
        return record

    def note_checkpoint_pause(self, pause_ms: float, *, delta: bool = False) -> None:
        super().note_checkpoint_pause(pause_ms, delta=delta)
        stats = self.statistics
        stats.checkpoint_pause_ms = max(stats.checkpoint_pause_ms, pause_ms)
        if delta:
            stats.delta_pause_ms = max(stats.delta_pause_ms, pause_ms)
        else:
            stats.base_pause_ms = max(stats.base_pause_ms, pause_ms)

    def truncate(self) -> None:
        """Discard all records and start over with a fresh segment chain."""
        with self._lock:
            self._records = []
            self._lineage_length = 0
            self._dirty = {}
            self._txn_effects = {}
            self._has_base = False
            self._deltas_since_base = 0
            self._synthesis_due = False
            self._compaction_attempts = {}
            self._compaction_quarantine = set()
            if self._sync_window is not None:
                # The records any pending ticket covered are being
                # discarded — release the waiters rather than sync bytes
                # about to be deleted.
                self._sync_window.complete_all()
            self._tail.close()
            for entry in self._manifest.segments:
                os.remove(self._path(entry.name))
            self._manifest.segments = []
            self._manifest.checkpoint_lsn = 0
            self._manifest.base_lsn = 0
            self._manifest.compacted_through_lsn = 0
            self._create_tail_locked()
            self._manifest.save(self.directory, fsync=self.config.fsync)

    def attach_sink(self, sink: WalSink) -> None:
        raise DurabilityError(
            "the segmented engine IS the stable storage; WalSinks only "
            "attach to the monolithic WriteAheadLog"
        )

    # -- compaction ------------------------------------------------------------

    def _trigger_compaction(self) -> None:
        compactor = self._compactor
        if compactor is not None:
            compactor.trigger()

    def start_compactor(self):
        """Start (or return) the background compactor thread."""
        from repro.storage.compactor import Compactor

        if self._compactor is None:
            self._compactor = Compactor(
                self, interval_s=self.config.compaction_interval_s
            )
        return self._compactor

    def stop_compactor(self) -> None:
        """Stop the background compactor, if running (idempotent)."""
        compactor, self._compactor = self._compactor, None
        if compactor is not None:
            compactor.close()

    def _keep_in_compaction(
        self, record: LogRecord, base_lsn: int, checkpoint_lsn: int
    ) -> bool:
        """Drop rule: superseded by the lineage as of the given pointers.

        Checkpoint-family records survive from the current base onwards
        (older lineages are fully superseded); raw records survive only
        past the newest checkpoint.  The pointers are read once under the
        lock — if a newer checkpoint lands mid-rewrite we merely keep a
        few extra records, never drop a needed one (the lineage only
        moves forward).
        """
        if record.record_type in CHECKPOINT_TYPES:
            if record.record_type is LogRecordType.CHECKPOINT_DELTA:
                # A synthesized base reuses its newest folded delta's LSN;
                # that delta is superseded the moment the base lands, so
                # deltas survive only strictly past the base.
                return record.lsn > base_lsn
            return record.lsn >= base_lsn
        return record.lsn > checkpoint_lsn

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
        """Compact (or re-certify) one sealed segment; True if work was done.

        A due base synthesis (``incremental_bases``) runs first — it
        supersedes the delta chain the pass would otherwise be compacting
        around.  The expensive part — reading the sealed file and writing
        its replacement — happens without the writer lock; only the
        manifest swap is under it.  The rewritten file is a *new
        generation* (new name): a crash before the swap leaves it as an
        orphan, a crash after the swap leaves the superseded original as
        an orphan, and the open-time cleanup removes either.
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
                candidate = next(
                    (
                        entry
                        for entry in self._manifest.segments[:-1]
                        if entry.sealed
                        and entry.compacted_at_lsn < checkpoint_lsn
                        and entry.name not in self._compaction_quarantine
                    ),
                    None,
                )
                if candidate is None:
                    return False
                old_name = candidate.name
                old_generation = candidate.generation
            try:
                return self._compact_candidate(
                    candidate, old_name, old_generation, base_lsn, checkpoint_lsn
                )
            except Exception as exc:
                self._note_compaction_failure(old_name, exc)
                raise

    def _compact_candidate(
        self,
        candidate: LogSegment,
        old_name: str,
        old_generation: int,
        base_lsn: int,
        checkpoint_lsn: int,
    ) -> bool:
        old_path = self._path(old_name)
        with open(old_path, "rb") as handle:
            data = handle.read()
        scan = scan_frames(data)
        if scan.damage is not None:
            raise RecoveryError(
                f"sealed segment {old_name!r} is corrupt: {scan.damage}"
            )
        records = [
            LogRecord.from_json(payload.decode("utf-8"))
            for payload in scan.payloads
        ]
        kept = [
            record
            for record in records
            if self._keep_in_compaction(record, base_lsn, checkpoint_lsn)
        ]
        new_name = None
        new_size = 0
        if kept and len(kept) < len(records):
            new_name = segment_file_name(candidate.index, old_generation + 1)
            with open(self._path(new_name), "wb") as handle:
                for record in kept:
                    frame = encode_frame(record.to_json().encode("utf-8"))
                    handle.write(frame)
                    new_size += len(frame)
                handle.flush()
                if self.config.fsync:
                    os.fsync(handle.fileno())
        with self._lock:
            candidate.compacted_at_lsn = checkpoint_lsn
            if not kept:
                self._manifest.segments.remove(candidate)
                self.statistics.compactions += 1
                self.statistics.bytes_reclaimed += len(data)
            elif new_name is not None:
                candidate.name = new_name
                candidate.generation = old_generation + 1
                candidate.records = len(kept)
                candidate.size = new_size
                self.statistics.compactions += 1
                self.statistics.bytes_reclaimed += len(data) - new_size
            sealed = [
                entry
                for entry in self._manifest.segments[:-1]
                if entry.sealed
            ]
            self._manifest.compacted_through_lsn = min(
                (entry.compacted_at_lsn for entry in sealed),
                default=checkpoint_lsn,
            )
            self._manifest.save(self.directory, fsync=self.config.fsync)
        if not kept or new_name is not None:
            os.remove(old_path)
        return True

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
        segment rewrite.  The synthesized record *reuses the LSN of the
        newest delta it folded*, preserving the log's total order; the
        superseded delta is filtered at install/recovery and dropped by
        compaction.  A crash before the manifest save leaves the new file
        as a cleanable orphan and the old lineage authoritative.
        """
        with self._lock:
            if self._closed or not self._synthesis_due:
                return False
            cutoff = self._synthesis_cutoff
            lineage = list(self._records[: self._lineage_length])
            checkpoint_lsn = self._manifest.checkpoint_lsn
        if not lineage or lineage[0].record_type not in SNAPSHOT_CHECKPOINT_TYPES:
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
        frame = encode_frame(base.to_json().encode("utf-8"))
        with self._lock:
            if self._closed:
                return False
            index = self._manifest.next_segment_index
            self._manifest.next_segment_index += 1
        name = segment_file_name(index)
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
                # The lineage was replaced under us (truncate() or an
                # explicit writer-side base); the freshly written file was
                # never referenced by the manifest — drop it.
                os.remove(path)
                self._synthesis_due = False
                return False
            entry = LogSegment(
                index=index,
                name=name,
                sealed=True,
                records=1,
                size=len(frame),
                compacted_at_lsn=checkpoint_lsn,
            )
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
            self._manifest.save(self.directory, fsync=self.config.fsync)
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
        """Flat ``durability.*`` counters for ``statistics_report()``."""
        stats = self.statistics
        with self._lock:
            return {
                "mode": "segmented",
                "segments_live": len(self._manifest.segments),
                "segments_sealed": stats.segments_sealed,
                "compactions": stats.compactions,
                "bytes_reclaimed": stats.bytes_reclaimed,
                "flushes": stats.flushes,
                "fsyncs": stats.fsyncs,
                "checkpoints_base": stats.checkpoints_base,
                "checkpoints_delta": stats.checkpoints_delta,
                "checkpoint_pause_ms": stats.checkpoint_pause_ms,
                "base_pause_ms": stats.base_pause_ms,
                "delta_pause_ms": stats.delta_pause_ms,
                "torn_tail_truncations": stats.torn_tail_truncations,
                "sync_windows": stats.sync_windows,
                "bases_synthesized": stats.bases_synthesized,
                "base_synthesis_ms": stats.base_synthesis_ms,
                "compaction_errors": stats.compaction_errors,
                "last_compaction_error": stats.last_compaction_error,
                "segments_quarantined": len(self._compaction_quarantine),
                "checkpoint_lsn": self._manifest.checkpoint_lsn,
                "compacted_through_lsn": self._manifest.compacted_through_lsn,
            }

    def close(self) -> None:
        """Stop the compactor, sync and close the tail (idempotent).

        With a group-fsync window the close is itself a durability point:
        one final sync covers every commit still waiting on its window
        before the tail file closes and the timer thread stops.
        """
        self.stop_compactor()
        window = self._sync_window
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if window is not None:
                self._tail.sync()
                self.statistics.fsyncs += 1
                window.complete_all()
            tail = self._manifest.tail
            tail.records = self._tail.records
            tail.size = self._tail.size
            self._tail.close()
            self._manifest.save(self.directory, fsync=self.config.fsync)
        if window is not None:
            window.stop()
