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
extensional store.  A row's ``text`` column holds the transaction in its
stored form (:func:`encode_transaction`): a compact JSON list of atoms that
:func:`decode_transaction` turns back into atoms with one ``json.loads``
and no parsing; any other text in that column is a
:class:`~repro.errors.QuantumRecoveryError` naming its transaction.  It
commits nothing itself: every insert and delete goes through a store
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
rebuilds the partitions by routing the restored transactions in that
order, solves each rebuilt partition once, enforces the ``k`` bound and
resumes sequence numbering past the persisted high-water mark, so a
recovered server continues where the crashed one stopped.  WAL checkpoints
snapshot the table like any other (see ``docs/architecture.md``,
"Durability, checkpoints and recovery").
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.core.resource_transaction import ResourceTransaction
from repro.errors import QuantumRecoveryError
from repro.logic.atoms import Atom, AtomKind
from repro.logic.terms import Constant, Term, Variable
from repro.relational.database import Database
from repro.relational.datatypes import DataType
from repro.relational.schema import Column
from repro.relational.transaction import Transaction

#: Name of the special table holding serialized pending transactions.
PENDING_TABLE = "__pending_transactions"

#: Relation prefix of an update atom in the stored form, by kind.
_UPDATE_MARKERS = {AtomKind.INSERT: "+", AtomKind.DELETE: "-"}
#: First characters a plain body atom's relation is escaped for.
_MARKERS = ("+", "-", "[", "\\")


def encode_transaction(transaction: ResourceTransaction) -> str:
    """The stored form of ``transaction``: a JSON list of atoms, updates first.

    An atom is ``[relation, term, ...]`` whose relation carries the kind as
    a prefix: ``+`` insert, ``-`` delete, ``[`` OPTIONAL body atom, nothing
    for a plain body atom (``\\`` if its relation begins with one of these
    four characters).  A variable is the string ``?name``; a string constant
    beginning with ``?`` or ``\\`` gets a ``\\`` in front; every other
    constant — int, float, bool, None — is its JSON value.  A plain body
    atom with the relation and terms of an update atom — the tuple a
    delete consumes — is written as that update's index.  For example::

        [["-Available",103,"?s"],["+Bookings","u103_0",103,"?s"],0,
         ["[Adjacent",103,"?s","?s2"]]

    Client, partner and id live in the row's other columns.  CHOOSE is
    always 1 (:class:`ResourceTransaction` admits nothing else).  The log
    marshals the row, so this text is stored once, as written, with no
    escaping.  The index spares a booking's row the atom the notation
    repeats.

    Raises:
        TypeError: for a constant that is none of those scalar types.
    """
    updates = transaction.updates
    stored = [
        *map(_encode_atom, updates),
        *(_encode_body_atom(atom, updates) for atom in transaction.body),
    ]
    return json.dumps(stored, separators=(",", ":"), ensure_ascii=False)


def _encode_body_atom(atom: Atom, updates: tuple[Atom, ...]) -> list[Any] | int:
    if not atom.optional:
        for index, update in enumerate(updates):
            if _same_atom(atom, update):
                return index
    return _encode_atom(atom)


def _same_atom(atom: Atom, update: Atom) -> bool:
    """Writing ``atom`` as ``update`` loses nothing: same relation, equal
    terms, and equal constants of one type (``1 == 1.0 == True``)."""
    return (
        atom.relation == update.relation
        and atom.terms == update.terms
        and all(
            isinstance(mine, Variable) or type(mine.value) is type(theirs.value)
            for mine, theirs in zip(atom.terms, update.terms)
        )
    )


def _encode_atom(atom: Atom) -> list[Any]:
    if atom.kind is not AtomKind.BODY:
        marker = _UPDATE_MARKERS[atom.kind]
    elif atom.optional:
        marker = "["
    else:
        marker = "\\" if atom.relation.startswith(_MARKERS) else ""
    return [marker + atom.relation, *map(_encode_term, atom.terms)]


def _encode_term(term: Term) -> Any:
    if isinstance(term, Variable):
        return "?" + term.name
    value = term.value
    if isinstance(value, str):
        return "\\" + value if value.startswith(("?", "\\")) else value
    if value is None or isinstance(value, (int, float)):  # bool is an int
        return value
    raise TypeError(f"constant {value!r} has no stored form")


def decode_transaction(
    text: str,
    *,
    transaction_id: int,
    client: str | None = None,
    partner: str | None = None,
) -> ResourceTransaction:
    """Rebuild a transaction from :func:`encode_transaction`'s form.

    Raises:
        ValueError, TypeError or a :class:`~repro.errors.ReproError`: for
        text that is not the stored form of a valid transaction.
    """
    body: list[Atom] = []
    updates: list[Atom] = []
    variables: dict[str, Variable] = {}
    for entry in json.loads(text):
        if type(entry) is int:
            if entry < 0:
                raise ValueError(f"atom index {entry} is negative")
            update = updates[entry]
            body.append(Atom.unchecked(update.relation, update.terms))
            continue
        relation, *values = entry
        terms = tuple(_decode_term(value, variables) for value in values)
        # Every branch hands ``unchecked`` a non-empty relation (checked
        # here) and terms, and only the body branch sets OPTIONAL.
        if type(relation) is not str or relation in ("", *_MARKERS):
            raise ValueError(f"atom {entry!r} has no relation")
        marker = relation[:1]
        name = relation[1:] if marker in _MARKERS else relation
        if marker == "+":
            updates.append(Atom.unchecked(name, terms, AtomKind.INSERT))
        elif marker == "-":
            updates.append(Atom.unchecked(name, terms, AtomKind.DELETE))
        else:
            body.append(Atom.unchecked(name, terms, AtomKind.BODY, marker == "["))
    return ResourceTransaction(
        body=tuple(body),
        updates=tuple(updates),
        transaction_id=transaction_id,
        client=client,
        partner=partner,
    )


def _decode_term(value: Any, variables: dict[str, Variable]) -> Term:
    if type(value) is str:
        if value.startswith("?"):
            variable = variables.get(value)
            if variable is None:
                variable = variables[value] = Variable(value[1:])
            return variable
        return Constant(value[1:] if value.startswith("\\") else value)
    if isinstance(value, (list, dict)):
        raise ValueError(f"term {value!r} is not a scalar")
    return Constant(value)


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
                    encode_transaction(transaction),
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

    # -- restore --------------------------------------------------------------

    def restore(self) -> list[tuple[int, ResourceTransaction]]:
        """Decode all persisted pending transactions, in sequence order.

        Returns:
            ``(sequence, transaction)`` pairs sorted by sequence number.

        Raises:
            QuantumRecoveryError: if a stored row cannot be read back.
        """
        restored: list[tuple[int, ResourceTransaction]] = []
        for row in self.table.rows():
            transaction_id, sequence, client, partner, text = row.values
            try:
                transaction = decode_transaction(
                    text, transaction_id=transaction_id, client=client, partner=partner
                )
            except Exception as exc:  # noqa: BLE001 - wrap any decode failure
                raise QuantumRecoveryError(
                    f"could not restore pending transaction {transaction_id}: {exc}"
                ) from exc
            restored.append((sequence, transaction))
        restored.sort(key=lambda pair: pair[0])
        return restored

    def pending_ids(self) -> frozenset[int]:
        """Transaction ids currently persisted."""
        return frozenset(row["txn_id"] for row in self.table.rows())
