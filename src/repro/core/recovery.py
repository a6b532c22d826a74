"""Durability of pending resource transactions (Section 4, "Recovery").

"Since the execution of resource transactions is deferred post-commit, we
need to maintain additional information about these transactions to ensure
durability.  We do this by utilizing the recovery mechanisms of the
underlying database.  Each pending resource transaction is serialized and
inserted into a special database table called the pending transactions
table.  This insertion happens after the satisfiability check and before
the transaction commits.  During recovery, a quantum database module
restores the in-memory quantum state to what it was before the crash based
on the pending transactions table.  When a pending resource transaction is
grounded and executed, it is removed from the pending transactions table."

:class:`PendingTransactionStore` owns that special table inside the
extensional store and (de)serialises transactions through the textual
notation of :mod:`repro.core.parser`.  It commits nothing itself (bar
``clear``, a test helper): every insert and delete goes through a store
transaction the caller hands in, and in the quantum layer that is always
the *operation's* transaction
(:attr:`Database.unit <repro.relational.database.Database.unit>`).
:class:`~repro.core.quantum_database.QuantumDatabase` enters the unit
around each mutating entry point and inserts, at its end, the rows of what
is still pending (:meth:`PendingTransactionStore.persist_many`);
:class:`~repro.core.quantum_state.QuantumState` deletes the rows of what a
grounding fixes (:meth:`PendingTransactionStore.discard`) in the same
transaction as the grounded updates.  Both halves of the paragraph above
are therefore one event each: a commit is acknowledged only after the
COMMIT record that carries its pending row, and "grounded and executed"
and "removed from the pending transactions table" share a COMMIT record,
so no crash can replay a store holding a booking *and* its pending row.

Each row also records the transaction's global arrival **sequence**;
:meth:`QuantumDatabase.recover <repro.core.quantum_database.QuantumDatabase.recover>`
re-admits in that order and resumes sequence numbering past the persisted
high-water mark, so a recovered server continues exactly where the crashed
one stopped.  WAL checkpoints snapshot the table like any other (see
``docs/architecture.md``, "Durability, checkpoints and recovery").
"""

from __future__ import annotations

from typing import Iterable

from repro.core.parser import format_transaction, parse_transaction
from repro.core.resource_transaction import ResourceTransaction
from repro.errors import QuantumRecoveryError
from repro.relational.database import Database
from repro.relational.datatypes import DataType
from repro.relational.schema import Column
from repro.relational.transaction import Transaction

#: Name of the special table holding serialized pending transactions.
PENDING_TABLE = "__pending_transactions"


class PendingTransactionStore:
    """The pending-transactions table and its (de)serialisation logic."""

    def __init__(self, database: Database) -> None:
        self.database = database
        if not database.has_table(PENDING_TABLE):
            database.create_table(
                PENDING_TABLE,
                [
                    Column("txn_id", DataType.INTEGER, nullable=False),
                    Column("sequence", DataType.INTEGER, nullable=False),
                    Column("client", DataType.TEXT),
                    Column("partner", DataType.TEXT),
                    Column("text", DataType.TEXT, nullable=False),
                ],
                key=["txn_id"],
            )

    @property
    def table(self):
        """The underlying table object."""
        return self.database.table(PENDING_TABLE)

    # -- persistence ---------------------------------------------------------

    def persist_many(
        self,
        entries: Iterable[tuple[ResourceTransaction, int]],
        txn: Transaction,
    ) -> None:
        """Serialise admitted ``(transaction, sequence)`` pairs through ``txn``.

        They become durable with ``txn``'s COMMIT record — for a commit run,
        atomically with everything else the run wrote.
        """
        for transaction, sequence in entries:
            txn.insert(
                PENDING_TABLE,
                (
                    transaction.transaction_id,
                    sequence,
                    transaction.client,
                    transaction.partner,
                    format_transaction(transaction),
                ),
            )

    def discard(self, transaction_ids: Iterable[int], txn: Transaction) -> None:
        """Delete grounded transactions' rows through ``txn``.

        An id without a row is skipped: a transaction grounded inside the
        operation that admitted it never got one.
        """
        get = self.table.get
        for transaction_id in transaction_ids:
            row = get((transaction_id,))
            if row is not None:
                txn.delete(PENDING_TABLE, row.values)

    def clear(self) -> None:
        """Remove every entry in one store transaction (used by tests)."""
        rows = list(self.table.rows())
        if rows:
            with self.database.begin() as txn:
                for row in rows:
                    txn.delete(PENDING_TABLE, row.values)

    # -- restore --------------------------------------------------------------

    def restore(self) -> list[tuple[int, ResourceTransaction]]:
        """Deserialise all persisted pending transactions, in sequence order.

        Returns:
            ``(sequence, transaction)`` pairs sorted by sequence number.

        Raises:
            QuantumRecoveryError: if a stored row cannot be parsed back.
        """
        restored: list[tuple[int, ResourceTransaction]] = []
        for row in self.table.rows():
            try:
                transaction = parse_transaction(
                    row["text"],
                    transaction_id=row["txn_id"],
                    client=row["client"],
                    partner=row["partner"],
                )
            except Exception as exc:  # noqa: BLE001 - wrap any parse failure
                raise QuantumRecoveryError(
                    f"could not restore pending transaction {row['txn_id']}: {exc}"
                ) from exc
            restored.append((row["sequence"], transaction))
        restored.sort(key=lambda pair: pair[0])
        return restored

    def pending_ids(self) -> frozenset[int]:
        """Transaction ids currently persisted."""
        return frozenset(row["txn_id"] for row in self.table.rows())

    def __len__(self) -> int:
        return len(self.table)
