"""Composition of resource transactions (Lemma 3.4 and Theorem 3.5).

A sequence of pending resource transactions is composed into a single
formula whose satisfiability over the *current* extensional database
guarantees the existence of consistent groundings for all of them, executed
in sequence.  Following Lemma 3.4 and the worked example of Figure 3, every
body atom ``b`` of a *later* transaction is rewritten against the update
portion ``U`` of each *earlier* transaction:

* inserts ``i ∈ U`` offer an alternative way for ``b`` to hold — ``b`` may
  ground on the inserted tuple — contributing the disjunct ``ϕ(b, i)``;
* deletes ``d ∈ U`` remove a tuple ``b`` may not ground on, contributing the
  conjunct ``¬ϕ(b, d)``;

so the factor for ``b`` is::

    ( b ∨ ⋁_i ϕ(b, i) ) ∧ ⋀_d ¬ϕ(b, d)

Unification predicates that are trivially FALSE (the atoms cannot unify)
drop out of the disjunction, and trivially TRUE/FALSE conjuncts simplify
away, reproducing exactly the composed bodies of Figure 3.

Two textual conventions from the paper are handled here:

* **variable namespaces** — the proof of Lemma 3.4 assumes the composed
  transactions share no variables; :func:`compose_sequence` renames the
  variables of each transaction with a per-transaction suffix before
  composing (the caller receives the renamed transactions so groundings can
  be mapped back);
* **optional atoms** — only the *non-optional* body atoms participate in the
  invariant (Section 2: "the only invariant ... is that there exists a
  satisfying assignment for its non-optional body atoms"); optional atoms
  can be composed separately for grounding-time preference maximisation via
  ``include_optional=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.resource_transaction import ResourceTransaction
from repro.logic.atoms import Atom, AtomKind
from repro.logic.formula import (
    AtomFormula,
    FALSE,
    Formula,
    Negation,
    TRUE,
    conjunction,
    disjunction,
)
from repro.logic.terms import Variable
from repro.logic.unification import unification_predicate
from repro.solver.kernel import Program, Scope, compile_formula, conjoin


#: One rewrite part of a body atom: ``(owner, kind, predicate)`` — the index
#: of the entry that owns the update, its kind (INSERT or DELETE) and the
#: unification predicate ϕ(atom, update), never FALSE.
RewritePart = tuple[int, AtomKind, Formula]

#: A body atom (as a plain body atom) with its rewrite parts, in order.
AtomRewrite = tuple[Atom, tuple[RewritePart, ...]]


def rewrite_parts(
    atom: Atom, updates: Iterable[tuple[int, Atom]]
) -> AtomRewrite:
    """The rewrite of one later body atom against tagged earlier updates.

    ``updates`` are ``(owner, update)`` pairs in serialization order.  Every
    update that unifies with the atom contributes one part tagged with its
    owner, so a composition can later drop the parts of a grounded prefix
    (:meth:`OrderComposition.successor`) without unifying again.
    """
    # Unification reads relation and terms only, so the updates are unified
    # as they are; the atom itself is copied only to shed an OPTIONAL flag.
    body = atom if atom.kind is AtomKind.BODY and not atom.optional else atom.as_body()
    parts: list[RewritePart] = []
    for owner, update in updates:
        kind = update.kind
        if kind is AtomKind.BODY:
            continue
        predicate = unification_predicate(body, update)
        if predicate is not FALSE:
            parts.append((owner, kind, predicate))
    return body, tuple(parts)


def rewritten_atom(rewrite: AtomRewrite) -> Formula:
    """The factor ``(b ∨ ⋁_i ϕ(b, i)) ∧ ⋀_d ¬ϕ(b, d)`` of one atom's rewrite."""
    body, parts = rewrite
    alternatives: list[Formula] = [AtomFormula(body)]
    exclusions: list[Formula] = []
    for _owner, kind, predicate in parts:
        if kind is AtomKind.INSERT:
            alternatives.append(predicate)
        else:
            exclusions.append(Negation(predicate))
    # (A lone alternative is the disjunction of itself.)
    factor = disjunction(alternatives) if len(alternatives) > 1 else alternatives[0]
    if exclusions:
        factor = conjunction([factor, *exclusions])
    return factor


def rewrite_atom_against_updates(atom: Atom, updates: Iterable[Atom]) -> Formula:
    """Rewrite one later body atom against one earlier update portion.

    Returns the factor ``(b ∨ ⋁_i ϕ(b, i)) ∧ ⋀_d ¬ϕ(b, d)`` described in the
    module docstring.  When the update portion shares no relation with the
    atom the factor collapses back to the plain atom.
    """
    return rewritten_atom(rewrite_parts(atom, ((0, update) for update in updates)))


def rewrite_body_against_updates(
    body: Iterable[Atom], updates: Sequence[Atom]
) -> Formula:
    """Rewrite a whole later body against an earlier update portion."""
    return conjunction(
        [rewrite_atom_against_updates(atom, updates) for atom in body]
    )


def compose_pair(
    earlier: ResourceTransaction,
    later: ResourceTransaction,
    *,
    include_optional: bool = False,
) -> Formula:
    """Compose two resource transactions (Lemma 3.4, general form).

    The result is the body of the equivalent single transaction
    ``U1,U2 :-1 B``: the earlier body conjoined with the later body rewritten
    against the earlier update portion.  Satisfiability of the result on a
    database ``D`` guarantees a consistent sequential grounding of
    ``earlier`` then ``later`` on ``D``.

    Args:
        earlier: the transaction serialized first.
        later: the transaction serialized second.
        include_optional: include optional body atoms (used only when
            building grounding-time "preferred" formulas, never for the
            invariant).
    """
    earlier_body = earlier.body if include_optional else earlier.hard_body
    later_body = later.body if include_optional else later.hard_body
    first = conjunction([AtomFormula(a.as_body()) for a in earlier_body])
    second = rewrite_body_against_updates(later_body, earlier.updates)
    return conjunction([first, second])


def compose_sequence(
    transactions: Sequence[ResourceTransaction],
    *,
    include_optional: bool = False,
    rename: bool = False,
) -> Formula:
    """Compose an ordered sequence of resource transactions (Theorem 3.5).

    Transaction ``i``'s body is rewritten against the accumulated update
    portions of transactions ``0 .. i-1``; the composed body is the
    conjunction of all the rewritten bodies.  Satisfiability over the
    current extensional database is exactly the quantum database invariant.

    Args:
        transactions: pending transactions in serialization order.
        include_optional: include optional body atoms in the composition.
        rename: rename each transaction's variables with a ``@<txn id>``
            suffix before composing.  The quantum state does this renaming
            itself (so that groundings can be mapped back per transaction);
            enable it here for standalone use on transactions that may share
            variable names.
    """
    if rename:
        transactions = [
            t.rename_variables(f"@{t.transaction_id}") for t in transactions
        ]
    factors: list[Formula] = []
    accumulated_updates: list[Atom] = []
    for transaction in transactions:
        body = transaction.body if include_optional else transaction.hard_body
        factors.append(rewrite_body_against_updates(body, accumulated_updates))
        accumulated_updates.extend(transaction.updates)
    if not factors:
        return TRUE
    return conjunction(factors)


def _entry_factor(rewrites: Sequence[AtomRewrite]) -> Formula:
    """An entry's factor: its hard atoms' rewrites, conjoined."""
    rewritten = [rewritten_atom(rewrite) for rewrite in rewrites]
    # (Each part is simplified already; a lone one is the conjunction.)
    return rewritten[0] if len(rewritten) == 1 else conjunction(rewritten)


@dataclass(frozen=True)
class OptionalFactor:
    """One OPTIONAL atom of an entry, rewritten in its serialization context.

    Attributes:
        transaction_id: id of the transaction that wrote the atom.
        formula: the atom rewritten against the update portions of the
            entries serialized before its owner, the way hard atoms are.
        program: ``formula`` compiled into the composition's scope.
        plain: the atom as written (a body atom, nothing rewritten),
            compiled into the same scope — what "does the preference hold
            in the final state?" searches.  The same object as ``program``
            when no earlier update touches the atom.
    """

    transaction_id: int
    formula: Formula
    program: Program
    plain: Program


class OrderComposition:
    """One serialization order, composed once (Theorem 3.5, online form).

    :func:`compose_sequence` recomputes every rewritten factor on each call.
    This class holds the same composed body factor by factor — entry
    ``i``'s hard body rewritten against the update portions of entries
    ``0 .. i-1`` — together with everything that is derived from a factor
    and would otherwise be derived again by each consumer:

    * the factor's compiled :class:`~repro.solver.kernel.Program`.  All
      programs of one composition share one :class:`~repro.solver.kernel.Scope`,
      so any run of consecutive entries — the whole order for the invariant
      and the reorder check, a prefix and a suffix for a grounding plan — is
      a :func:`~repro.solver.kernel.conjoin` of resident parts, never a
      recompile.  Programs are compiled on first use, or handed in by the
      admission that already compiled one to search it;
    * the entry's OPTIONAL atoms rewritten in the same context
      (:meth:`optional_factors`), on first use — only a grounding plan
      reads them, and only for the entries it grounds;
    * the number of relational atoms per factor (:meth:`atom_count`).

    The update log is bucketed by relation: an atom is only ever unified
    with the earlier updates on its own relation, in serialization order,
    which yields exactly the factor a scan over every update would.  Each
    factor is kept as the parts it was built from — per hard atom, one
    ``(owner, kind, predicate)`` part per earlier update it unifies with —
    so that :meth:`successor` can drop a grounded prefix's parts without
    unifying again.

    A partition keeps the composition of its pending order resident: it
    extends it by one factor per admission, and a grounding replaces it by
    the successor of the order it was planned on (a semantic reorder builds
    one for the fronted order).  The composed formula is identical (same
    factors, same order) to :func:`compose_sequence` of the underlying
    sequence; the unit tests assert this equivalence.

    Not thread-safe: compiling a factor grows the scope.  A composition
    belongs to one partition (or one plan), and a partition is admitted to
    and planned by one thread at a time.
    """

    def __init__(self, transactions: Iterable[ResourceTransaction] = ()) -> None:
        self.scope = Scope()
        #: The composed transactions (already variable-renamed by the
        #: caller, like everywhere else in the quantum state), in order.
        self.transactions: list[ResourceTransaction] = []
        self.factors: list[Formula] = []
        #: Per entry, its hard atoms' rewrites: the parts a factor is built
        #: from, each tagged with the entry that owns its update.
        self._rewrites: list[tuple[AtomRewrite, ...]] = []
        #: Per entry, the relational atoms of its factor.
        self._atom_counts: list[int] = []
        self._programs: list[Program | None] = []
        self._optionals: list[tuple[OptionalFactor, ...] | None] = []
        #: relation -> ``(index of the owning entry, update atom)``, in order.
        self._updates: dict[str, list[tuple[int, Atom]]] = {}
        self._atoms = 0
        self._formula: Formula | None = None
        self._program: Program | None = None
        #: The last :meth:`preview_factor`: ``(position, transaction,
        #: factor, rewrites)``, so that :meth:`append` unifies nothing again.
        self._preview: (
            tuple[int, ResourceTransaction, Formula, tuple[AtomRewrite, ...]] | None
        ) = None
        for transaction in transactions:
            self.append(transaction)

    def __len__(self) -> int:
        return len(self.factors)

    def _rewrite(self, atom: Atom, before: int) -> AtomRewrite:
        """``atom``'s rewrite against the updates of entries ``0 .. before-1``."""
        bucket = self._updates.get(atom.relation, ())
        if before < len(self.factors):
            bucket = [tagged for tagged in bucket if tagged[0] < before]
        return rewrite_parts(atom, bucket)

    def preview_factor(self, transaction: ResourceTransaction) -> Formula:
        """The factor ``transaction`` would contribute, without appending it.

        This is the transaction's hard body rewritten against the updates
        accumulated so far — exactly what admission needs for its
        extend-or-solve check before committing to the append.  The tagged
        parts the factor was built from are kept for :meth:`append`.
        """
        before = len(self.factors)
        rewrites = tuple(self._rewrite(atom, before) for atom in transaction.hard_body)
        factor = _entry_factor(rewrites)
        self._preview = (before, transaction, factor, rewrites)
        return factor

    def append(
        self,
        transaction: ResourceTransaction,
        factor: Formula | None = None,
        program: Program | None = None,
    ) -> Formula:
        """Append the next transaction in serialization order.

        Args:
            transaction: the transaction to append.
            factor: the result of :meth:`preview_factor` for it, when the
                caller already computed it.
            program: ``factor`` compiled into :attr:`scope` (requiring the
                transaction's hard variables), when the caller already
                compiled it; compiled on first use otherwise.

        Returns:
            The factor contributed by ``transaction``.
        """
        preview = self._preview
        if (
            preview is None
            or preview[0] != len(self.factors)
            or preview[1] is not transaction
            or (factor is not None and factor is not preview[2])
        ):
            previewed = self.preview_factor(transaction)
            factor = previewed if factor is None else factor
            preview = self._preview
        else:
            factor = preview[2]
        self._preview = None
        self._push(transaction, factor, preview[3], program, len(factor.atoms()))
        return factor

    def _push(
        self,
        transaction: ResourceTransaction,
        factor: Formula,
        rewrites: tuple[AtomRewrite, ...],
        program: Program | None,
        atoms: int,
    ) -> None:
        """Record the next entry: its factor, parts and updates."""
        index = len(self.factors)
        self.transactions.append(transaction)
        self.factors.append(factor)
        self._rewrites.append(rewrites)
        self._atom_counts.append(atoms)
        self._programs.append(program)
        self._optionals.append(None)
        for update in transaction.updates:
            self._updates.setdefault(update.relation, []).append((index, update))
        self._atoms += atoms
        self._formula = self._program = None

    def successor(self, count: int) -> "OrderComposition":
        """The composition of entries ``count ..``, after a grounded prefix.

        Theorem 3.5 run on a prefix removal: once entries ``0 .. count-1``
        are grounded, each remaining factor only loses the parts their
        updates contributed.  Those parts are dropped and the owners of the
        rest renumbered — nothing is unified again, and a factor that loses
        nothing is kept as it is.  The result equals
        ``OrderComposition(self.transactions[count:])``: same factors,
        formula, atom count and update buckets.

        Its :class:`~repro.solver.kernel.Scope` is fresh and its programs
        compile on first use, exactly as after a recomposition: every
        remaining factor that lost a part is a new formula, and a kept scope
        would size every search's slot arrays by the grounded entries'
        variables (the reason :meth:`discard_programs` exists).
        """
        successor = OrderComposition()
        for index in range(count, len(self.factors)):
            rewrites = self._rewrites[index]
            factor = self.factors[index]
            atoms = self._atom_counts[index]
            dropped = False
            renumbered = []
            for body, parts in rewrites:
                kept = []
                for owner, kind, predicate in parts:
                    if owner < count:
                        dropped = True
                    else:
                        kept.append((owner - count, kind, predicate))
                renumbered.append((body, tuple(kept)))
            rewrites = tuple(renumbered)
            if dropped:
                factor = _entry_factor(rewrites)
                atoms = len(factor.atoms())
            successor._push(self.transactions[index], factor, rewrites, None, atoms)
        return successor

    def discard_programs(self) -> None:
        """Forget every compiled program, and with them the scope.

        For the one case in which the scope holds variables of no entry: a
        factor compiled into it for an admission that was then rejected.
        A partition that keeps rejecting arrivals (a full flight) would
        otherwise number every rejected arrival's variables for as long as
        it lives, and size every later search's slot arrays by them.
        Programs are recompiled on their next use.
        """
        self.scope = Scope()
        self._programs = [None] * len(self.factors)
        self._optionals = [None] * len(self.factors)
        self._program = None

    def formula(self) -> Formula:
        """The composed body of everything appended so far (cached)."""
        if self._formula is None:
            self._formula = conjunction(self.factors) if self.factors else TRUE
        return self._formula

    def atom_count(self) -> int:
        """Relational atoms in the composed body, kept current per append.

        The analogue of the number of joins the paper's SQL translation
        would need, which MySQL caps at 61.
        """
        return self._atoms

    def required(self, start: int = 0, stop: int | None = None) -> frozenset[Variable]:
        """Hard variables of entries ``start .. stop-1``: what a grounding
        of that run must bind."""
        return frozenset().union(
            *(t.hard_variables() for t in self.transactions[start:stop])
        )

    def _factor_program(self, index: int) -> Program:
        """Entry ``index``'s factor, compiled into :attr:`scope` (cached)."""
        program = self._programs[index]
        if program is None:
            program = self._programs[index] = compile_formula(
                self.factors[index],
                required=self.transactions[index].hard_variables(),
                scope=self.scope,
            )
        return program

    def program(
        self,
        start: int = 0,
        stop: int | None = None,
        *,
        required: Iterable[Variable] | None = None,
    ) -> Program:
        """The composed body of entries ``start .. stop-1`` as a search handle.

        A conjoin of the resident factor programs.  The whole order with the
        default ``required`` (every free variable) is the handle the
        invariant is verified and re-solved on; it is kept until the next
        append, so repeated validations of an unchanged partition reuse one
        program and its evaluator.
        """
        whole = start == 0 and stop is None and required is None
        if whole and self._program is not None:
            return self._program
        parts = [
            self._factor_program(index)
            for index in range(len(self.factors))[start:stop]
        ]
        if parts:
            program = conjoin(parts, required=required)
        else:
            program = compile_formula(TRUE, required=required, scope=self.scope)
        if whole:
            self._program = program
        return program

    def optional_factors(self, index: int) -> tuple[OptionalFactor, ...]:
        """Entry ``index``'s OPTIONAL atoms, rewritten in context (cached).

        Each optional atom is rewritten against the update portions of the
        entries that precede its owner in the order, the same way hard
        atoms are during composition.
        """
        factors = self._optionals[index]
        if factors is None:
            transaction = self.transactions[index]
            built = []
            for atom in transaction.optional_body:
                formula = rewritten_atom(self._rewrite(atom, index))
                program = compile_formula(formula, scope=self.scope)
                plain = (
                    program
                    if isinstance(formula, AtomFormula)
                    else compile_formula(AtomFormula(atom.as_body()), scope=self.scope)
                )
                built.append(
                    OptionalFactor(transaction.transaction_id, formula, program, plain)
                )
            factors = self._optionals[index] = tuple(built)
        return factors
