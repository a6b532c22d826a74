"""Explicit possible-worlds enumeration (Figure 2).

The quantum database never materialises its possible worlds — that is the
whole point of the intensional representation — but for *small* instances an
explicit enumeration is invaluable:

* it is the ground truth the intensional machinery is tested against
  (property tests check that the composed body is satisfiable if and only
  if the set of possible worlds is non-empty, and that every grounding the
  system picks corresponds to one of the enumerated worlds);
* it reproduces Figure 2 of the paper (the Mickey / Donald / Minnie
  evolution) in the ``possible_worlds`` example.

A possible world is the database state obtained from the initial database
by applying the pending transactions in order under one consistent choice
of groundings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.core.resource_transaction import ResourceTransaction
from repro.errors import WorldLimitExceeded
from repro.logic.formula import atoms_to_formula
from repro.relational.database import Database
from repro.solver.grounding import GroundingSearch


@dataclass(frozen=True)
class PossibleWorld:
    """One fully concrete database state plus the groundings that led to it.

    Attributes:
        snapshot: table name → sorted tuple of row value-tuples.
        groundings: per transaction (in sequence order), the chosen
            variable-name → value mapping.
        satisfied_optionals: total number of optional atoms satisfied across
            all transactions in this world.
    """

    snapshot: tuple[tuple[str, tuple[tuple[Any, ...], ...]], ...]
    groundings: tuple[tuple[int, tuple[tuple[str, Any], ...]], ...]
    satisfied_optionals: int = 0

    @classmethod
    def from_database(
        cls,
        database: Database,
        groundings: Sequence[tuple[int, dict[str, Any]]],
        satisfied_optionals: int = 0,
    ) -> "PossibleWorld":
        """Capture a database state as an immutable, comparable world."""
        snapshot = tuple(
            (name, tuple(sorted(database.table(name).snapshot())))
            for name in sorted(database.table_names())
        )
        frozen = tuple(
            (txn_id, tuple(sorted(valuation.items()))) for txn_id, valuation in groundings
        )
        return cls(snapshot=snapshot, groundings=frozen, satisfied_optionals=satisfied_optionals)

    def table(self, name: str) -> tuple[tuple[Any, ...], ...]:
        """Rows of ``name`` in this world (sorted tuples)."""
        for table_name, rows in self.snapshot:
            if table_name == name:
                return rows
        return ()

    def distinct_states(self) -> frozenset:
        """Hashable representation of the extensional state only."""
        return frozenset(self.snapshot)


def enumerate_possible_worlds(
    database: Database,
    transactions: Sequence[ResourceTransaction],
    *,
    max_worlds: int = 10_000,
) -> list[PossibleWorld]:
    """Enumerate every possible world of ``database`` + pending transactions.

    Transactions are applied in the given order; each consistent grounding
    of each transaction forks the state, exactly as in Figure 2.  Optional
    atoms do not restrict the enumeration (they never block execution) but
    each world records how many it satisfies, so callers can identify the
    worlds a preference-maximising system would retain.

    Args:
        database: the initial extensional database (not modified).
        transactions: the pending transactions, in serialization order.
        max_worlds: safety bound; enumeration stops with
            :class:`~repro.errors.WorldLimitExceeded` (a ``ValueError``)
            when a step would exceed it (the extensional representation
            grows exponentially, which is the paper's argument for the
            intensional one).  A step's groundings are counted before any
            of its worlds is forked, so no world past the bound is built.

    Returns:
        All distinct possible worlds.  An empty list means the transaction
        sequence cannot be executed consistently (the quantum database would
        have rejected the last transaction).
    """
    return [
        world
        for world, _state in enumerate_world_states(
            database, transactions, max_worlds=max_worlds
        )
    ]


def enumerate_world_states(
    database: Database,
    transactions: Sequence[ResourceTransaction],
    *,
    max_worlds: int = 10_000,
) -> list[tuple[PossibleWorld, Database]]:
    """:func:`enumerate_possible_worlds`, each world with its database.

    The database is the fork the enumeration built to reach the world, so
    a caller can query a world without rebuilding it from its snapshot.
    Worlds are deduplicated by extensional state and groundings; a
    duplicate keeps one of the equal forks.
    """
    worlds: list[tuple[Database, list[tuple[int, dict[str, Any]]], int]] = [
        (database.copy(), [], 0)
    ]
    for transaction in transactions:
        hard_formula = atoms_to_formula(transaction.hard_body)
        required = transaction.hard_variables()
        step = []
        count = 0
        for state, history, optional_count in worlds:
            groundings = GroundingSearch(state).find_all(
                hard_formula, required=required, limit=max_worlds - count + 1
            )
            count += len(groundings)
            if count > max_worlds:
                raise WorldLimitExceeded(
                    f"possible-world enumeration exceeded {max_worlds} worlds"
                )
            step.append((state, history, optional_count, groundings))
        next_worlds: list[tuple[Database, list[tuple[int, dict[str, Any]]], int]] = []
        for state, history, optional_count, groundings in step:
            for grounding in groundings:
                forked = state.copy()
                substitution = grounding.substitution
                for statement in transaction.ground_updates(substitution):
                    forked.apply(statement)
                # Optional atoms are judged against the state this world
                # reaches after the transaction executes, existentially over
                # any variables the hard grounding left free.
                satisfied = _count_satisfied_optionals(forked, transaction, substitution)
                next_worlds.append(
                    (
                        forked,
                        history + [(transaction.transaction_id, substitution.as_valuation())],
                        optional_count + satisfied,
                    )
                )
        worlds = next_worlds
    # Deduplicate identical worlds (same extensional state and groundings).
    unique: dict[tuple, tuple[PossibleWorld, Database]] = {}
    for state, history, satisfied in worlds:
        world = PossibleWorld.from_database(state, history, satisfied)
        unique[(world.snapshot, world.groundings)] = (world, state)
    return list(unique.values())


def distinct_extensional_states(worlds: Iterable[PossibleWorld]) -> int:
    """Number of distinct extensional database states among ``worlds``."""
    return len({world.distinct_states() for world in worlds})


def max_optional_worlds(worlds: Sequence[PossibleWorld]) -> list[PossibleWorld]:
    """The worlds satisfying the maximum number of optional atoms.

    These are the worlds a preference-maximising collapse would retain
    ("the world in which the maximum number of conditions are satisfied is
    preserved").
    """
    if not worlds:
        return []
    best = max(world.satisfied_optionals for world in worlds)
    return [world for world in worlds if world.satisfied_optionals == best]


def _count_satisfied_optionals(
    database: Database,
    transaction: ResourceTransaction,
    substitution,
) -> int:
    """Optional atoms of ``transaction`` satisfiable in ``database``.

    Each optional atom is specialised with the hard grounding first; any
    remaining free variables are checked existentially.
    """
    from repro.logic.formula import AtomFormula

    search = GroundingSearch(database)
    count = 0
    for atom in transaction.optional_body:
        specialised = substitution.apply_atom(atom)
        if search.exists(AtomFormula(specialised.as_body())):
            count += 1
    return count
