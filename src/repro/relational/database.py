"""The Database facade: catalog, reads, DML, transactions, snapshots."""

from __future__ import annotations

import itertools
import time
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import SchemaError, TransactionError, UnknownTableError
from repro.relational.dml import Delete, Insert, Statement
from repro.relational.row import Row
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.transaction import (
    OperationUnit,
    StoreStatistics,
    Transaction,
)
from repro.relational.wal import WriteAheadLog


class Database:
    """An in-memory relational database.

    This is the extensional store underneath a quantum database: a catalog
    of key-enforced tables, a one-table read (:meth:`execute`), single-row
    DML, WAL-backed transactions, and whole-database
    snapshots (used both by recovery tests and by the possible-worlds
    enumeration utilities).
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self.wal = WriteAheadLog()
        self._txn_ids = itertools.count(1)
        self._active_transactions: set[int] = set()
        #: Commits, aborts and WAL records of this database's transactions.
        self.statistics = StoreStatistics()
        #: The one store transaction of the writer operation in progress
        #: (see :class:`~repro.relational.transaction.OperationUnit`).
        self.unit = OperationUnit(self)

    # -- catalog ------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Column | str],
        key: Sequence[str] | None = None,
        *,
        indexes: Sequence[Sequence[str]] = (),
    ) -> Table:
        """Create a table and optional secondary indexes.

        Raises:
            SchemaError: if a table with that name already exists.
        """
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        table = Table(TableSchema(name, columns, key))
        for index_columns in indexes:
            table.create_index(index_columns)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name.

        Raises:
            UnknownTableError: if the table does not exist.
        """
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """True if the table exists."""
        return name in self._tables

    def table_names(self) -> tuple[str, ...]:
        """Names of all tables, in creation order."""
        return tuple(self._tables)

    # -- reads --------------------------------------------------------------

    def execute(
        self,
        table: str,
        mask: int,
        values: Sequence[Any],
        columns: Sequence[tuple[str, int]],
        same: Sequence[tuple[int, int]] = (),
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Answer a one-table read: one :meth:`Table.probe` and its filters.

        The rows of ``table`` equal to ``values`` at the positions set in
        ``mask`` (:meth:`Table.probe`) and equal to each other at both
        positions of every pair in ``same``, in probe order, at most
        ``limit`` of them (all when ``None``).  Each answer is a fresh
        dict mapping every ``(name, position)`` of ``columns`` to the
        row's value there.  This is the one call a read makes into the
        store (see :func:`repro.core.reads.store_read`).

        Raises:
            UnknownTableError: if the table does not exist.
        """
        rows = self.table(table).probe(mask, values)
        if same:
            rows = (
                row
                for row in rows
                if all(row.values[a] == row.values[b] for a, b in same)
            )
        return [
            {name: row.values[position] for name, position in columns}
            for row in itertools.islice(rows, limit)
        ]

    # -- autocommit DML -----------------------------------------------------

    def insert(self, table: str, values: Sequence[Any] | Mapping[str, Any]) -> Row:
        """Insert a row in its own (autocommit) transaction."""
        with self.begin() as txn:
            return txn.insert(table, values)

    def delete(self, table: str, values: Sequence[Any] | Mapping[str, Any]) -> Row:
        """Delete a row in its own (autocommit) transaction."""
        with self.begin() as txn:
            return txn.delete(table, values)

    def apply(self, statements: Statement | Iterable[Statement]) -> list[Row]:
        """Apply one or many statements atomically."""
        if isinstance(statements, (Insert, Delete)):
            statements = [statements]
        affected: list[Row] = []
        with self.begin() as txn:
            for statement in statements:
                affected.append(txn.apply(statement))
        return affected

    # -- transactions -------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a new transaction."""
        transaction_id = next(self._txn_ids)
        self._active_transactions.add(transaction_id)
        return Transaction(self, transaction_id, self.wal)

    def _transaction_finished(self, transaction_id: int) -> None:
        """Bookkeeping callback from :meth:`Transaction.commit` / ``abort``."""
        self._active_transactions.discard(transaction_id)

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict[str, list[tuple[Any, ...]]]:
        """Return the full extensional state as plain value tuples."""
        return {name: table.snapshot() for name, table in self._tables.items()}

    def checkpoint(self) -> None:
        """Checkpoint the WAL, bounding recovery replay work.

        With the in-memory log (and for the segmented engine's first base
        checkpoint) this folds the log into one record holding a full
        snapshot — an O(store) pause.  When the log asks for a
        delta checkpoint instead (:meth:`WriteAheadLog.wants_delta_checkpoint`,
        true for :class:`repro.storage.SegmentedWriteAheadLog` once it has
        a base), no snapshot is built at all: the log folds only its
        internally tracked dirty set, so the pause is proportional to the
        churn since the previous checkpoint, not to store size.  Either way
        the observed pause is reported to the log for the durability
        statistics and the recovery benchmark's pause gate.

        The session layer calls this during graceful shutdown (see
        :meth:`repro.server.QuantumServer.shutdown`); long-running servers
        may also call it periodically.

        Raises:
            TransactionError: if any transaction is still active — tables
                hold uncommitted effects immediately (undo lives in memory),
                so a snapshot taken now would bake those effects in while
                discarding the log records that mark them uncommitted.
        """
        if self._active_transactions:
            raise TransactionError(
                "cannot checkpoint while transactions are active: "
                f"{sorted(self._active_transactions)}"
            )
        started = time.perf_counter()
        delta = self.wal.wants_delta_checkpoint()
        if delta:
            self.wal.checkpoint_delta()
        else:
            self.wal.checkpoint(self.snapshot())
        pause_ms = (time.perf_counter() - started) * 1000.0
        self.wal.note_checkpoint_pause(pause_ms, delta=delta)

    def restore(self, snapshot: Mapping[str, Iterable[Sequence[Any]]]) -> None:
        """Replace table contents from a :meth:`snapshot` (schemas must exist)."""
        for name, rows in snapshot.items():
            self.table(name).restore(rows)

    def copy(self) -> "Database":
        """Deep copy: same schemas and contents, fresh WAL.

        Used by the possible-worlds utilities, which fork the database for
        each candidate grounding.
        """
        clone = Database()
        for name, table in self._tables.items():
            clone._tables[name] = table.copy()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{name}[{len(t)}]" for name, t in self._tables.items())
        return f"<Database {parts}>"
