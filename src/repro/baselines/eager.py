"""Eager-assignment baseline: classical execute-at-commit semantics.

A conventional DBMS "cannot commit without a concrete value being assigned,
so deferred assignment is not possible" (Section 1).  :class:`EagerClient`
models that world: it accepts the *same* resource transactions as the
quantum database but grounds them immediately at submission time, choosing
a grounding that satisfies as many optional atoms as possible *right now*
and executing the update portion on the spot.

This baseline isolates the benefit of deferral itself (as opposed to the
benefit of declaring preferences): the eager client knows the user's
preferences but cannot wait for the partner to arrive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.composition import rewrite_atom_against_updates
from repro.core.resource_transaction import ResourceTransaction
from repro.logic.formula import conjunction
from repro.relational.database import Database
from repro.solver.grounding import GroundingSearch


@dataclass
class EagerResult:
    """Outcome of an eager execution.

    Attributes:
        transaction: the submitted transaction.
        executed: False when no grounding existed (the transaction aborts).
        valuation: the chosen grounding (empty when not executed).
        satisfied_optionals: optional atoms satisfied by the chosen
            grounding at execution time.
    """

    transaction: ResourceTransaction
    executed: bool
    valuation: dict[str, Any]
    satisfied_optionals: int = 0

    @property
    def coordinated(self) -> bool:
        """True if every optional atom was satisfied."""
        total = len(self.transaction.optional_body)
        return total > 0 and self.satisfied_optionals == total


class EagerClient:
    """Executes resource transactions immediately, with no deferral."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.search = GroundingSearch(database)
        self.results: list[EagerResult] = []

    def execute(self, transaction: ResourceTransaction) -> EagerResult:
        """Ground and execute ``transaction`` right now.

        The grounding preferentially satisfies optional atoms (all of them
        first, then a greedy maximal subset), mirroring the non-deferred
        semantics sketched in Section 2 of the paper.
        """
        hard = transaction.hard_formula()
        required = transaction.hard_variables()
        optional_factors = [
            rewrite_atom_against_updates(atom, []) for atom in transaction.optional_body
        ]
        chosen = None
        satisfied = 0
        if optional_factors:
            result = self.search.find_one(
                conjunction([hard, *optional_factors]), required=required
            )
            if result.satisfiable:
                chosen = result.substitution
                satisfied = len(optional_factors)
        if chosen is None and optional_factors:
            accepted = []
            for factor in optional_factors:
                trial = conjunction([hard, *accepted, factor])
                if self.search.exists(trial):
                    accepted.append(factor)
            result = self.search.find_one(
                conjunction([hard, *accepted]), required=required
            )
            if result.satisfiable:
                chosen = result.substitution
                satisfied = len(accepted)
        if chosen is None:
            result = self.search.find_one(hard, required=required)
            if result.satisfiable:
                chosen = result.substitution
        if chosen is None:
            outcome = EagerResult(transaction, False, {}, 0)
            self.results.append(outcome)
            return outcome
        with self.database.begin() as txn:
            for statement in transaction.ground_updates(chosen):
                txn.apply(statement)
        from repro.logic.terms import Constant

        valuation = {
            var.name: term.value
            for var, term in chosen.items()
            if isinstance(term, Constant)
        }
        outcome = EagerResult(transaction, True, valuation, satisfied)
        self.results.append(outcome)
        return outcome

    def coordination_percentage(self) -> float:
        """Percentage of executed transactions with all optionals satisfied."""
        with_optionals = [
            r for r in self.results if r.executed and r.transaction.optional_body
        ]
        if not with_optionals:
            return 0.0
        coordinated = sum(1 for r in with_optionals if r.coordinated)
        return 100.0 * coordinated / len(with_optionals)
