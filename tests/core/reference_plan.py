"""The parent's grounding-plan path, kept verbatim as an oracle.

Before the order composition (``repro.core.composition.OrderComposition``)
a grounding plan re-derived its composition up to three times:
``order_is_satisfiable`` composed and compiled the candidate order,
``choose_grounding`` composed the prefix again, and ``_suffix_formula`` /
``_optional_factors`` rewrote the suffix and the optional atoms again,
all through a ``rewrite_atom_against_updates`` that scanned every
accumulated update and copied both atoms per pair.  Those functions are
preserved here *unchanged* (bodies copied from the last commit that
shipped them, together with the two composition helpers they call, so
the oracle shares no rewriting code with the module under test; only the
imports are new) so ``test_plan_differential.py`` can hold the new plan
path to their exact ``(plan, substitution, satisfied_atoms)``.  Do not
"fix" or tidy this file: its value is that it does not change.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.partition import Partition
from repro.core.resource_transaction import ResourceTransaction
from repro.core.serializability import (
    GroundingPlan,
    SerializabilityMode,
    grounding_plan,
)
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
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable
from repro.logic.unification import unification_predicate
from repro.solver.kernel import Program, Scope, conjoin

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.quantum_state import PendingTransaction
    from repro.solver.grounding import GroundingSearch

PREFIX_CANDIDATES = 8
COMBINED_NODE_BUDGET = 20_000


def rewrite_atom_against_updates(atom: Atom, updates: Sequence[Atom]) -> Formula:
    """Rewrite one later body atom against one earlier update portion.

    Returns the factor ``(b ∨ ⋁_i ϕ(b, i)) ∧ ⋀_d ¬ϕ(b, d)`` described in the
    module docstring.  When the update portion shares no relation with the
    atom the factor collapses back to the plain atom.
    """
    base = AtomFormula(atom.as_body())
    alternatives: list[Formula] = [base]
    exclusions: list[Formula] = []
    for update in updates:
        predicate = unification_predicate(atom.as_body(), update.as_body())
        if update.kind is AtomKind.INSERT:
            if predicate is not FALSE:
                alternatives.append(predicate)
        elif update.kind is AtomKind.DELETE:
            if predicate is not FALSE:
                exclusions.append(Negation(predicate))
    factor = disjunction(alternatives)
    if exclusions:
        factor = conjunction([factor, *exclusions])
    return factor


def rewrite_body_against_updates(
    body: Iterable[Atom], updates: Sequence[Atom]
) -> Formula:
    """Rewrite a whole later body against an earlier update portion."""
    return conjunction(
        [rewrite_atom_against_updates(atom, updates) for atom in body]
    )


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


def order_is_satisfiable(
    search: "GroundingSearch", order: Sequence[PendingTransaction]
) -> bool:
    """Satisfiability check used by the semantic reorder strategy."""
    formula = compose_sequence([entry.renamed for entry in order])
    return search.exists(formula)


def compute_grounding_plan(
    search: "GroundingSearch",
    serializability: SerializabilityMode,
    partition: Partition,
    targets: Sequence[PendingTransaction],
) -> tuple[GroundingPlan, Substitution | None, dict[int, int]]:
    """The pure plan computation: serialization order plus a grounding.

    This is the whole read-only half of grounding as a module-level
    function of ``(search, serializability, partition, targets)`` — no
    closures, no locks, no reference to a :class:`QuantumState` — so the
    process shard backend can run it in a worker process against a shipped
    snapshot (:mod:`repro.sharding.backend`) and get bit-identical results
    to the in-process path.

    Returns:
        ``(plan, substitution, satisfied)``; ``substitution`` is ``None``
        when no grounding exists (an invariant violation the caller turns
        into an error).
    """
    plan = grounding_plan(
        serializability,
        partition,
        targets,
        lambda order: order_is_satisfiable(search, order),
    )
    order = list(plan.to_ground) + list(plan.remaining_order)
    substitution, satisfied_atoms = choose_grounding(search, order, plan.to_ground)
    return plan, substitution, satisfied_atoms


def choose_grounding(
    search: "GroundingSearch",
    order: Sequence[PendingTransaction],
    to_ground: Sequence[PendingTransaction],
) -> tuple[Substitution | None, dict[int, int]]:
    """Find a grounding of the order, maximising the prefix's optionals.

    The transactions being grounded now (``to_ground``) form a prefix of
    ``order``.  The search is decomposed exactly the way the paper's
    solution cache suggests:

    1. ground the prefix alone, preferring groundings that satisfy its
       optional atoms (all of them first, then a greedy maximal subset);
    2. for each candidate prefix grounding, check that the remaining
       pending transactions are still jointly satisfiable (extending the
       candidate), which is what guarantees the invariant survives;
    3. fall back to a grounding of the whole order without optional
       atoms if preferences cannot be accommodated.

    Returns:
        ``(substitution, satisfied)`` where the substitution covers both
        the prefix and a witness for the suffix, and ``satisfied`` maps
        each grounded transaction id to its satisfied-optional count at
        search time.
    """
    satisfied: dict[int, int] = {entry.transaction_id: 0 for entry in to_ground}
    prefix = list(to_ground)
    prefix_ids = {entry.transaction_id for entry in prefix}
    suffix = [entry for entry in order if entry.transaction_id not in prefix_ids]

    prefix_required = frozenset().union(
        *(entry.renamed.hard_variables() for entry in prefix)
    ) if prefix else frozenset()
    suffix_formula, suffix_required = _suffix_formula(prefix, suffix)
    # Every body below is compiled once, into one scope, and the attempts
    # conjoin the handles: a plan runs up to 2 + n attempts of up to
    # PREFIX_CANDIDATES + 2 searches each over the same few formulas.
    scope = Scope()
    prefix_hard = search.compile(
        compose_sequence([entry.renamed for entry in prefix]),
        required=prefix_required,
        scope=scope,
    )
    suffix_body = search.compile(suffix_formula, required=suffix_required, scope=scope)
    optional_atoms = [
        (txn_id, atom, search.compile(factor, scope=scope))
        for txn_id, atom, factor in _optional_factors(order, to_ground)
    ]

    def attempt(
        selected: Sequence[tuple[int, Atom, Program]]
    ) -> Substitution | None:
        """Try to ground the prefix with ``selected`` optional factors.

        Strategy: enumerate a handful of prefix groundings and extend
        each over the suffix (cheap in the common, under-constrained
        case).  If none of those candidates extends — e.g. every early
        candidate sits on a seat a later pinned transaction needs — fall
        back to one *combined* prefix-and-suffix search, which is
        complete; a node budget keeps the combined search from thrashing
        when optional factors are involved.
        """
        body = conjoin(
            [prefix_hard] + [factor for _txn, _atom, factor in selected],
            required=prefix_required,
        )
        for candidate in search.find(body, limit=PREFIX_CANDIDATES):
            if not suffix:
                return candidate.substitution
            extended = search.find_one(suffix_body, initial=candidate.substitution)
            if extended.satisfiable:
                return extended.substitution
        if not suffix:
            return None
        combined = search.find_one(
            conjoin([body, suffix_body], required=prefix_required | suffix_required),
            node_budget=COMBINED_NODE_BUDGET if selected else None,
        )
        return combined.substitution if combined.satisfiable else None

    if optional_atoms:
        solution = attempt(optional_atoms)
        if solution is not None:
            for txn_id, _atom, _factor in optional_atoms:
                satisfied[txn_id] += 1
            return solution, satisfied
        # Greedy maximal subset of optional atoms.
        accepted: list[tuple[int, Atom, Program]] = []
        best: Substitution | None = None
        for candidate_atom in optional_atoms:
            solution = attempt(accepted + [candidate_atom])
            if solution is not None:
                accepted.append(candidate_atom)
                best = solution
        if best is not None:
            for txn_id, _atom, _factor in accepted:
                satisfied[txn_id] += 1
            return best, satisfied
    solution = attempt([])
    if solution is not None:
        return solution, satisfied
    return None, satisfied


def _suffix_formula(
    prefix: Sequence[PendingTransaction],
    suffix: Sequence[PendingTransaction],
) -> tuple[Formula, frozenset[Variable]]:
    """Composed body of the suffix, rewritten against the prefix updates."""
    accumulated: list[Atom] = [
        atom for entry in prefix for atom in entry.renamed.updates
    ]
    factors: list[Formula] = []
    required: set[Variable] = set()
    for entry in suffix:
        factors.append(
            rewrite_body_against_updates(entry.renamed.hard_body, accumulated)
        )
        accumulated.extend(entry.renamed.updates)
        required |= entry.renamed.hard_variables()
    return conjunction(factors) if factors else TRUE, frozenset(required)


def _optional_factors(
    order: Sequence[PendingTransaction],
    to_ground: Sequence[PendingTransaction],
) -> list[tuple[int, Atom, Formula]]:
    """Optional atoms of the to-be-grounded entries, rewritten in context.

    Each optional atom is rewritten against the update portions of the
    transactions that precede its owner in the serialization order, the
    same way hard atoms are during composition.
    """
    to_ground_ids = {entry.transaction_id for entry in to_ground}
    factors: list[tuple[int, Atom, Formula]] = []
    accumulated: list[Atom] = []
    for entry in order:
        if entry.transaction_id in to_ground_ids:
            for atom in entry.renamed.optional_body:
                factors.append(
                    (
                        entry.transaction_id,
                        atom,
                        rewrite_atom_against_updates(atom, accumulated),
                    )
                )
        accumulated.extend(entry.renamed.updates)
    return factors
