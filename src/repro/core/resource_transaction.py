"""Resource transactions (Section 2 of the paper).

A resource transaction has two components:

* a *body*: a conjunction of relational atoms, some of which may be marked
  OPTIONAL (soft preferences), together with a ``CHOOSE 1`` clause, and
* an *update portion*: a set of blind single-tuple inserts (``+R(...)``) and
  deletes (``-R(...)``) executed once a grounding is fixed.

Structural rules enforced here:

* **range restriction** — every variable of the update portion must occur in
  the body (otherwise the deferred grounding could not determine it);
* the update portion contains only insert/delete atoms, the body only body
  atoms;
* every non-optional body atom contributes to the invariant the quantum
  database maintains; optional atoms are only consulted at grounding time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

from repro.errors import InvalidTransactionError
from repro.logic.atoms import Atom, AtomKind, atoms_variables
from repro.logic.formula import Formula, atoms_to_formula
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable
from repro.relational.dml import Delete, Insert, Statement

#: Monotone counter for auto-assigned transaction identifiers.
_txn_counter = itertools.count(1)


def reserve_transaction_ids(through: int) -> None:
    """Make every identifier auto-assigned from now on exceed ``through``.

    Recovery calls it with the highest restored id: a restarted process
    must not hand a new transaction the id (and with it the ``@<id>``
    variable suffix and the pending-table key) of a recovered one.
    """
    global _txn_counter
    _txn_counter = itertools.count(max(next(_txn_counter), through + 1))


@dataclass(frozen=True)
class ResourceTransaction:
    """An immutable resource transaction ``U :-1 B``.

    Attributes:
        body: the body atoms ``B`` (kind BODY; may be optional).
        updates: the update atoms ``U`` (kind INSERT or DELETE).
        choose: the CHOOSE value; the paper and this reproduction always use
            1 ("one resource instance is desired").
        transaction_id: unique identifier, auto-assigned when omitted.
        client: name of the requesting user, text or ``None`` (used by
            workloads and entanglement bookkeeping; not semantically
            meaningful).
        partner: optional client name (text) this transaction wants to
            coordinate with (entangled resource transactions).

    The derived views (:attr:`hard_body`, :attr:`optional_body`,
    :meth:`variables`, :meth:`hard_variables`, :meth:`relations`) are
    computed on first use and kept on the instance — admission, planning
    and witness maintenance read them many times per transaction.
    """

    body: tuple[Atom, ...]
    updates: tuple[Atom, ...]
    choose: int = 1
    transaction_id: int = field(default_factory=lambda: next(_txn_counter))
    client: str | None = None
    partner: str | None = None

    def __post_init__(self) -> None:
        body = tuple(self.body)
        updates = tuple(self.updates)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "updates", updates)
        self._validate()

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        if not self.updates:
            raise InvalidTransactionError(
                "a resource transaction needs at least one update atom"
            )
        if self.choose != 1:
            raise InvalidTransactionError(
                f"only CHOOSE 1 is supported (got CHOOSE {self.choose})"
            )
        # The pending table stores both names as TEXT: a name it would
        # refuse must be refused here, before the transaction is admitted.
        for role, name in (("client", self.client), ("partner", self.partner)):
            if name is not None and not isinstance(name, str):
                raise InvalidTransactionError(
                    f"{role} must be text (got {type(name).__name__})"
                )
        for atom in self.body:
            if atom.kind is not AtomKind.BODY:
                raise InvalidTransactionError(
                    f"body atom {atom!r} must have kind BODY"
                )
        for atom in self.updates:
            if atom.kind not in (AtomKind.INSERT, AtomKind.DELETE):
                raise InvalidTransactionError(
                    f"update atom {atom!r} must be an insert or a delete"
                )
        update_vars = atoms_variables(self.updates)
        body_vars = atoms_variables(self.body)
        dangling = update_vars - body_vars
        if dangling:
            names = sorted(v.name for v in dangling)
            raise InvalidTransactionError(
                f"range restriction violated: update variables {names} do not "
                "occur in the body"
            )

    # -- introspection -------------------------------------------------------

    @cached_property
    def hard_body(self) -> tuple[Atom, ...]:
        """Non-optional body atoms (the ones the invariant must satisfy)."""
        return tuple(a for a in self.body if not a.optional)

    @cached_property
    def optional_body(self) -> tuple[Atom, ...]:
        """Optional body atoms (soft preferences)."""
        return tuple(a for a in self.body if a.optional)

    @property
    def inserts(self) -> tuple[Atom, ...]:
        """Insert atoms of the update portion."""
        return tuple(a for a in self.updates if a.kind is AtomKind.INSERT)

    @property
    def deletes(self) -> tuple[Atom, ...]:
        """Delete atoms of the update portion."""
        return tuple(a for a in self.updates if a.kind is AtomKind.DELETE)

    @cached_property
    def _variables(self) -> frozenset[Variable]:
        return atoms_variables(self.body) | atoms_variables(self.updates)

    @cached_property
    def _hard_variables(self) -> frozenset[Variable]:
        return atoms_variables(self.hard_body) | atoms_variables(self.updates)

    @cached_property
    def _relations(self) -> frozenset[str]:
        return frozenset(a.relation for a in self.body) | frozenset(
            a.relation for a in self.updates
        )

    def variables(self) -> frozenset[Variable]:
        """All variables of the transaction."""
        return self._variables

    def hard_variables(self) -> frozenset[Variable]:
        """Variables of the non-optional body atoms and the update portion."""
        return self._hard_variables

    def relations(self) -> frozenset[str]:
        """Names of every relation the transaction touches."""
        return self._relations

    def hard_formula(self) -> Formula:
        """The conjunction of the non-optional body atoms as a formula."""
        return atoms_to_formula(self.hard_body)

    def full_formula(self) -> Formula:
        """The conjunction of all body atoms (hard and optional)."""
        return atoms_to_formula(self.body)

    # -- transformation ------------------------------------------------------

    def rename_variables(self, suffix: str) -> "ResourceTransaction":
        """Copy with every variable renamed (for namespace separation).

        The copy is not validated again.  Appending a suffix renames
        variables injectively, which preserves every rule
        :meth:`_validate` checks: the atoms keep their kinds, CHOOSE stays
        1, and an update variable still occurs in the body.
        """
        copy = object.__new__(ResourceTransaction)
        copy.__dict__.update(
            body=tuple(a.rename_variables(suffix) for a in self.body),
            updates=tuple(a.rename_variables(suffix) for a in self.updates),
            choose=self.choose,
            transaction_id=self.transaction_id,
            client=self.client,
            partner=self.partner,
        )
        return copy

    def ground_updates(
        self, grounding: Substitution | Mapping[str, Any]
    ) -> list[Statement]:
        """Translate the update portion into DML under a grounding.

        Args:
            grounding: either a ground :class:`Substitution` or a
                variable-name → value mapping covering the update variables.

        Returns:
            One :class:`Insert` or :class:`Delete` statement per update atom,
            in declaration order.

        Raises:
            InvalidTransactionError: if the grounding leaves an update
                variable unbound.
        """
        if isinstance(grounding, Substitution):
            theta = grounding
        else:
            theta = Substitution.from_valuation(dict(grounding))
        statements: list[Statement] = []
        for atom in self.updates:
            ground_atom = theta.apply_atom(atom)
            if not ground_atom.is_ground():
                unbound = sorted(v.name for v in ground_atom.variables())
                raise InvalidTransactionError(
                    f"grounding leaves update variables {unbound} unbound in {atom!r}"
                )
            values = ground_atom.ground_values()
            if atom.kind is AtomKind.INSERT:
                statements.append(Insert(atom.relation, values))
            else:
                statements.append(Delete(atom.relation, values))
        return statements

    def satisfied_optionals(
        self, valuation: Mapping[str, Any], oracle
    ) -> int:
        """Count optional atoms satisfied by ``valuation`` against ``oracle``.

        ``oracle`` has the :data:`repro.logic.formula.FactOracle` signature.
        Optional atoms with unbound variables count as unsatisfied.
        """
        count = 0
        for atom in self.optional_body:
            try:
                values = []
                for term in atom.terms:
                    if isinstance(term, Variable):
                        values.append(valuation[term.name])
                    else:
                        values.append(term.value)
            except KeyError:
                continue
            if oracle(atom.relation, tuple(values)):
                count += 1
        return count

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        from repro.core.parser import format_transaction

        return f"<ResourceTransaction #{self.transaction_id} {format_transaction(self)}>"
