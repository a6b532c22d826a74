"""Transactions on the extensional store.

These are the *ordinary* (non-resource) transactions of the substrate: a
unit of inserts and deletes with atomicity (undo on abort) and
durability (WAL records, commit marker).  The quantum middle tier runs one
per writer operation (:class:`OperationUnit`): the extensional effects of
every resource transaction the operation grounds, the deletion of their
pending-table rows and the insertion of the rows still pending at its end
reach the log under one COMMIT record.  Blind writes and the baseline
("intelligent social") workloads use plain transactions.

Concurrency in the reproduction is logical rather than physical — the whole
system runs single-threaded, as the paper's single-client experiments do —
so the transaction manager enforces well-formedness (no use after
commit/abort, undo in reverse order) rather than latching.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import TransactionError
from repro.relational.dml import Insert, Statement
from repro.relational.row import Row
from repro.relational.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.relational.database import Database


class TransactionStatus(enum.Enum):
    """Lifecycle states of a transaction."""

    ACTIVE = "ACTIVE"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


@dataclass
class StoreStatistics:
    """Counters of a database's transactions (``store.*`` in reports).

    Attributes:
        commits: transactions committed.
        aborts: transactions aborted.
        records: WAL records those transactions appended (BEGIN, one per
            row written, COMMIT or ABORT).
    """

    commits: int = 0
    aborts: int = 0
    records: int = 0


class Transaction:
    """A unit of work over a :class:`~repro.relational.database.Database`.

    Usually created through :meth:`Database.begin` and used as a context
    manager::

        with db.begin() as txn:
            txn.insert("Bookings", ("Mickey", 123, "5A"))

    Leaving the ``with`` block commits; an exception aborts and undoes all
    changes.  A log append that raised makes the transaction abort-only,
    even if the caller caught the error: :meth:`commit` then aborts.
    """

    def __init__(
        self, database: "Database", transaction_id: int, wal: WriteAheadLog
    ) -> None:
        self.database = database
        self.transaction_id = transaction_id
        self.status = TransactionStatus.ACTIVE
        self._wal = wal
        #: undo list of (operation, table, row) entries, applied in reverse.
        self._undo: list[tuple[str, str, Row]] = []
        self._wal.log_begin(transaction_id)
        #: WAL records appended so far: an undo entry whose append raised
        #: has none.
        self._logged = 1
        #: Set when an append raised: the log lacks a change the tables
        #: hold, so the transaction may only abort.
        self._append_failed = False

    # -- state checks -------------------------------------------------------

    def _require_active(self) -> None:
        if self.status is not TransactionStatus.ACTIVE:
            raise TransactionError(
                f"transaction {self.transaction_id} is {self.status.value}, "
                "not ACTIVE"
            )

    @property
    def is_active(self) -> bool:
        """True while the transaction can still accept operations."""
        return self.status is TransactionStatus.ACTIVE

    # -- operations ---------------------------------------------------------

    def insert(
        self, table: str, values: Sequence[Any] | Mapping[str, Any]
    ) -> Row:
        """Insert a row within this transaction.

        The undo entry is recorded before the log append, so an append
        that raises leaves the row to this transaction's abort.
        """
        self._require_active()
        row = self.database.table(table).insert(values)
        self._undo.append(("insert", table, row))
        try:
            self._wal.log_insert(self.transaction_id, table, row.values)
        except BaseException:
            self._append_failed = True
            raise
        self._logged += 1
        return row

    def delete(
        self, table: str, values: Sequence[Any] | Mapping[str, Any]
    ) -> Row:
        """Delete a row (identified by its key) within this transaction.

        Like :meth:`insert`, undoable before its log record is appended.
        """
        self._require_active()
        row = self.database.table(table).delete(values)
        self._undo.append(("delete", table, row))
        try:
            self._wal.log_delete(self.transaction_id, table, row.values)
        except BaseException:
            self._append_failed = True
            raise
        self._logged += 1
        return row

    def apply(self, statement: Statement) -> Row:
        """Apply an :class:`Insert` or :class:`Delete`; return the row.

        For a delete that is the stored row the key named, which may differ
        from ``statement.values`` outside the key.
        """
        if isinstance(statement, Insert):
            return self.insert(statement.table, statement.values)
        return self.delete(statement.table, statement.values)

    # -- lifecycle ----------------------------------------------------------

    def commit(self) -> None:
        """Make all changes durable and end the transaction.

        Raises:
            TransactionError: if a log append of this transaction raised;
                the transaction is aborted instead of committed.
        """
        self._require_active()
        if self._append_failed:
            self.abort()
            raise TransactionError(
                f"transaction {self.transaction_id} aborted: a log append "
                "failed, so its changes cannot commit"
            )
        self._wal.log_commit(self.transaction_id)
        self.status = TransactionStatus.COMMITTED
        statistics = self.database.statistics
        statistics.commits += 1
        statistics.records += self._logged + 1
        self._undo.clear()
        self.database._transaction_finished(self.transaction_id)

    def abort(self) -> None:
        """Undo all changes and end the transaction.

        The transaction has ended even if the ABORT append then raises: a
        log without this transaction's COMMIT record replays it as nothing.
        """
        self._require_active()
        undo, self._undo = self._undo, []
        for operation, table_name, row in reversed(undo):
            table = self.database.table(table_name)
            if operation == "insert":
                table.delete(row)
            else:
                table.insert(row)
        self.status = TransactionStatus.ABORTED
        statistics = self.database.statistics
        statistics.aborts += 1
        self.database._transaction_finished(self.transaction_id)
        self._wal.log_abort(self.transaction_id)
        statistics.records += self._logged + 1

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        if exc_type is not None:
            if self.is_active:
                self.abort()
            return False
        if self.is_active:
            self.commit()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Transaction id={self.transaction_id} status={self.status.value} "
            f"ops={len(self._undo)}>"
        )


class OperationUnit:
    """One store transaction for a whole writer operation, begun lazily.

    A database has exactly one (:attr:`Database.unit`); an operation that
    may write enters it, everything beneath writes through
    :meth:`transaction`, and leaving the outermost ``with`` commits — on
    *every* exit path, because the caller's in-memory state has already
    advanced past the writes and cannot be rolled back.  Only a failed
    store write aborts: the writer that hit it aborts the transaction and
    re-raises, and the exit then finds nothing active.  An operation that
    never asks for the transaction appends no record and allocates nothing.

    Entering is reentrant (a grounding enters the unit of the operation
    that caused it, or is a unit of its own) but not concurrent: only the
    writer enters it, and every write beneath it runs on that thread.
    """

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._depth = 0
        self._transaction: Transaction | None = None

    def transaction(self) -> Transaction:
        """The unit's transaction, begun on first use."""
        transaction = self._transaction
        if transaction is None or not transaction.is_active:
            if not self._depth:
                raise TransactionError("no operation unit is open")
            transaction = self._transaction = self._database.begin()
        return transaction

    def __enter__(self) -> "OperationUnit":
        self._depth += 1
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self._depth -= 1
        if not self._depth:
            transaction, self._transaction = self._transaction, None
            if transaction is not None and transaction.is_active:
                transaction.commit()
        return False
