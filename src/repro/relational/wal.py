"""A write-ahead log for the relational store.

The quantum database achieves durability of *pending* resource transactions
by serialising them into a pending-transactions table before commit (paper,
Section 4, "Recovery").  That table lives in the ordinary relational store,
so the store itself needs a recovery story: this module provides a minimal
physiological WAL — ordered records of row-level inserts and deletes tagged
with transaction ids and commit/abort markers — that recovery replays
(:func:`repro.relational.recovery.replay_into`).

:class:`WriteAheadLog` keeps its records in memory; it is the log of an
embedded store, and :meth:`~WriteAheadLog.dump` / :meth:`~WriteAheadLog.load`
carry it through JSON lines.  The one file-backed log is the segmented
engine, :class:`repro.storage.SegmentedWriteAheadLog`, a subclass that
frames the same records into sealed segments.  Two properties matter to
the session layer built on top (:mod:`repro.server`, see
``docs/architecture.md``):

* **Thread-safety** — every mutation of the log happens under one
  internal lock, because the segmented engine's compactor thread touches
  the log beside the thread that appends to it.
* **Checkpoints** — :meth:`WriteAheadLog.checkpoint` folds the whole log
  into one CHECKPOINT record carrying a database snapshot, bounding the
  recovery replay work for long-running servers (graceful shutdown calls
  it; see :meth:`repro.relational.database.Database.checkpoint`).  Logs
  written as JSON lines by older versions, CHECKPOINT records included,
  still recover through :meth:`WriteAheadLog.load` and
  :func:`~repro.relational.recovery.recover_database`.
"""

from __future__ import annotations

import enum
import json
import re
import threading
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

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
    """

    BEGIN = "BEGIN"
    INSERT = "INSERT"
    DELETE = "DELETE"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    CHECKPOINT = "CHECKPOINT"
    CHECKPOINT_BASE = "CHECKPOINT_BASE"
    CHECKPOINT_DELTA = "CHECKPOINT_DELTA"


#: Record types that restore a full snapshot during replay.  The in-memory
#: fold and the segmented engine's base checkpoints replay identically.
SNAPSHOT_CHECKPOINT_TYPES = frozenset(
    (LogRecordType.CHECKPOINT, LogRecordType.CHECKPOINT_BASE)
)

#: Every checkpoint-family record type (snapshot carriers plus deltas).
CHECKPOINT_TYPES = frozenset(
    (*SNAPSHOT_CHECKPOINT_TYPES, LogRecordType.CHECKPOINT_DELTA)
)


#: The head of every :meth:`LogRecord.to_json` line: its LSN and kind.
_JSON_HEAD = re.compile(rb'\{"lsn": (\d+), "type": "([A-Z_]+)"')


@dataclass(frozen=True)
class LogRecord:
    """A single WAL record.

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

    def to_json(self) -> str:
        """Serialise the record to a JSON line (for durability tests)."""
        payload: dict[str, Any] = {
            "lsn": self.lsn,
            "type": self.record_type.value,
            "txn": self.transaction_id,
            "table": self.table,
            "values": list(self.values) if self.values is not None else None,
        }
        if self.snapshot is not None:
            payload["snapshot"] = {
                name: [list(row) for row in rows]
                for name, rows in self.snapshot.items()
            }
        if self.delta is not None:
            payload["delta"] = {
                name: {
                    op: [list(row) for row in rows]
                    for op, rows in ops.items()
                }
                for name, ops in self.delta.items()
            }
        return json.dumps(payload)

    @classmethod
    def head_from_json(cls, payload: bytes) -> tuple[int, LogRecordType]:
        """``(lsn, record_type)`` of a UTF-8 :meth:`to_json` line.

        Reads only the line's first two keys, which :meth:`to_json`
        always writes first, so a record is classified without decoding
        its row values or snapshot.
        """
        head = _JSON_HEAD.match(payload)
        try:
            return int(head[1]), LogRecordType(head[2].decode("ascii"))
        except (TypeError, ValueError) as exc:  # no head, or an unknown kind
            raise RecoveryError(f"malformed log record: {payload[:80]!r}") from exc

    @classmethod
    def from_json(cls, line: str) -> "LogRecord":
        """Parse a record previously produced by :meth:`to_json`."""
        try:
            data = json.loads(line)
            snapshot = data.get("snapshot")
            delta = data.get("delta")
            return cls(
                lsn=data["lsn"],
                record_type=LogRecordType(data["type"]),
                transaction_id=data["txn"],
                table=data["table"],
                values=tuple(data["values"]) if data["values"] is not None else None,
                snapshot={
                    name: [tuple(row) for row in rows]
                    for name, rows in snapshot.items()
                }
                if snapshot is not None
                else None,
                delta={
                    name: {
                        op: [tuple(row) for row in rows]
                        for op, rows in ops.items()
                    }
                    for name, ops in delta.items()
                }
                if delta is not None
                else None,
            )
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise RecoveryError(f"malformed log record: {line!r}") from exc


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
        #: :meth:`note_checkpoint_pause`).
        self.max_checkpoint_pause_ms = 0.0

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

    def dump(self) -> str:
        """Serialise the whole log as JSON lines."""
        return "\n".join(record.to_json() for record in self.records())

    @classmethod
    def load(cls, text: str) -> "WriteAheadLog":
        """Rebuild a log from :meth:`dump` output (or an old JSON-lines log)."""
        log = cls()
        records = [
            LogRecord.from_json(line) for line in text.splitlines() if line.strip()
        ]
        records.sort(key=lambda r: r.lsn)
        log._records = records
        log._next_lsn = (records[-1].lsn if records else 0) + 1
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
        only the maximum; the segmented engine additionally splits base
        from delta pauses for the recovery benchmark's pause-bound gate.
        """
        if pause_ms > self.max_checkpoint_pause_ms:
            self.max_checkpoint_pause_ms = pause_ms

    def durability_statistics(self) -> dict[str, Any]:
        """Flat ``durability.*`` counters for ``statistics_report()``."""
        return {
            "mode": "memory",
            "checkpoint_pause_ms": self.max_checkpoint_pause_ms,
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
