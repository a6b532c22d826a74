"""Crash recovery for the relational store.

Recovery in the reproduction follows the classic redo-only discipline over
the write-ahead log: starting from an (empty or snapshot) database with the
schemas already declared, replay the insert/delete records of every
*committed* transaction in LSN order; records of transactions without a
COMMIT marker are ignored (their effects were never made durable).

The quantum database builds its own recovery on top of this (see
:mod:`repro.core.recovery`): after the extensional state is restored, the
pending-transactions table is read back and the in-memory quantum state —
composed bodies, partitions and solution cache — is reconstructed.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import MissingRowError, RecoveryError
from repro.relational.database import Database
from repro.relational.wal import (
    CHECKPOINT_TYPES,
    SNAPSHOT_CHECKPOINT_TYPES,
    LogRecord,
    LogRecordType,
    WriteAheadLog,
)


def recover_database(
    schema_factory: Callable[[], Database], wal: WriteAheadLog
) -> Database:
    """Rebuild a database from a schema factory and a surviving WAL.

    Args:
        schema_factory: callable returning a fresh :class:`Database` with all
            schemas (tables, keys, indexes) declared but no data.  Schemas
            are metadata that real systems keep in the catalog; keeping the
            factory explicit avoids serialising schemas into the log.
        wal: the write-ahead log that survived the crash.

    Returns:
        A database containing exactly the effects of committed transactions.

    Raises:
        RecoveryError: if replay encounters an impossible operation (which
            indicates log corruption).
    """
    database = schema_factory()
    replay_into(database, wal)
    # The recovered database continues appending to the same log so that a
    # subsequent crash still recovers correctly.
    database.wal = wal
    return database


def replay_into(database: Database, wal: WriteAheadLog) -> None:
    """Replay committed WAL records into ``database`` (redo pass).

    A CHECKPOINT or CHECKPOINT_BASE record restores the snapshot it
    carries (replacing all table contents accumulated so far) and replay
    continues with the records that follow it; a CHECKPOINT_DELTA record
    applies only the per-table net row changes accumulated since the
    previous checkpoint in the lineage (deletes before inserts, matching
    how the dirty set was folded).  :meth:`WriteAheadLog.checkpoint`
    guarantees at most one snapshot record, at the front of the log, so
    recovery work is bounded by the snapshot size plus the
    post-checkpoint tail; the segmented engine extends the same
    invariant to a base → delta-chain → tail ordering.
    """
    committed = wal.committed_transaction_ids()
    for record in wal.records():
        if record.record_type in CHECKPOINT_TYPES:
            apply_checkpoint_record(database, record)
            continue
        if record.transaction_id not in committed:
            continue
        if record.record_type is LogRecordType.INSERT:
            _redo_insert(database, record.table, record.values)
        elif record.record_type is LogRecordType.DELETE:
            _redo_delete(database, record.table, record.values)


def apply_checkpoint_record(database: Database, record: LogRecord) -> None:
    """Apply one checkpoint-lineage record to ``database``.

    Called by :func:`replay_into` for every checkpoint-family record, on
    the in-memory log and on the segmented engine alike (whose records
    hold the lineage it selected from the manifest, then the tail).
    """
    if record.record_type in SNAPSHOT_CHECKPOINT_TYPES:
        if record.snapshot is None:
            raise RecoveryError(
                f"{record.record_type.value} log record missing its snapshot"
            )
        database.restore(record.snapshot)
        return
    if record.record_type is not LogRecordType.CHECKPOINT_DELTA:
        raise RecoveryError(
            f"{record.record_type.value} is not a checkpoint-lineage record"
        )
    if record.delta is None:
        raise RecoveryError("CHECKPOINT_DELTA log record missing its delta")
    for table_name, changes in record.delta.items():
        for values in changes.get("delete", ()):
            _redo_delete(database, table_name, values)
        for values in changes.get("insert", ()):
            _redo_insert(database, table_name, values)


def _redo_insert(database: Database, table_name: str | None, values) -> None:
    if table_name is None or values is None:
        raise RecoveryError("INSERT log record missing table or values")
    database.table(table_name).insert(values)


def _redo_delete(database: Database, table_name: str | None, values) -> None:
    if table_name is None or values is None:
        raise RecoveryError("DELETE log record missing table or values")
    try:
        database.table(table_name).delete(values)
    except MissingRowError as exc:
        raise RecoveryError(
            f"log replay deleted a non-existent row from {table_name!r}"
        ) from exc
