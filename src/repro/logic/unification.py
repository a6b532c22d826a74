"""Most general unifiers and unification predicates.

These are Definitions 3.2 and 3.3 of the paper.  Composition of resource
transactions (Lemma 3.4 / Theorem 3.5) rewrites "does the body of a later
transaction interact with an earlier transaction's update?" into unification
predicates: conjunctions of equality constraints corresponding to the most
general unifier of the two atoms.

Example (from the paper): the mgu of ``R(1, v1, v2)`` and ``R(v3, 2, v4)``
is ``{v1/2, v2/v4, v3/1}`` and the corresponding unification predicate is
``(v1 = 2) ∧ (v2 = v4) ∧ (v3 = 1)``.  If no unifier exists the predicate is
trivially false; if the mgu is empty (both atoms ground and equal) the
predicate is trivially true.

:func:`most_general_unifier`, :func:`unification_predicate` and
:func:`unifiable` share one positional core, :func:`_bindings`: it walks
the two term tuples side by side and keeps the unifier as a plain dict of
bindings, chased in place.  Position by position it takes exactly the steps
of :func:`unify_terms` (Definition 3.2's step, kept as the reference), so it
yields the same bindings in the same order, but it builds no
:class:`~repro.logic.substitution.Substitution` per binding: an mgu wraps
the dict once, and a predicate or a routing check builds none.  Unification
reads only an atom's relation and terms, so callers pass update and
OPTIONAL atoms as they are, without a body-atom copy.
"""

from __future__ import annotations

from repro.logic.atoms import Atom
from repro.logic.formula import Equality, FALSE, Formula, TRUE, conjunction
from repro.logic.substitution import Substitution
from repro.logic.terms import Term, Variable


def unify_terms(
    left: Term, right: Term, substitution: Substitution | None = None
) -> Substitution | None:
    """Unify two terms under an existing substitution.

    Returns the extended substitution, or ``None`` if the terms clash.
    """
    theta = substitution or Substitution.empty()
    left = theta.apply_term(left)
    right = theta.apply_term(right)
    if left == right:
        return theta
    if isinstance(left, Variable):
        return theta.bind(left, right)
    if isinstance(right, Variable):
        return theta.bind(right, left)
    # Two distinct constants.
    return None


def _bindings(left: Atom, right: Atom) -> dict[Variable, Term] | None:
    """The mgu of two atoms as a dict of bindings, or ``None``.

    The positional core: at each position both terms are chased through the
    bindings made so far, and an unbound variable on the left (else on the
    right) is bound to the other side — :func:`unify_terms`'s step, on a
    dict.  Constants compare as terms do (``1`` matches ``True``, ``2``
    matches ``2.0``).
    """
    if left.relation != right.relation:
        return None
    left_terms, right_terms = left.terms, right.terms
    if len(left_terms) != len(right_terms):
        return None
    bindings: dict[Variable, Term] = {}
    for l_term, r_term in zip(left_terms, right_terms):
        if bindings:
            while isinstance(l_term, Variable) and l_term in bindings:
                l_term = bindings[l_term]
            while isinstance(r_term, Variable) and r_term in bindings:
                r_term = bindings[r_term]
        if l_term is r_term or l_term == r_term:
            continue
        if isinstance(l_term, Variable):
            bindings[l_term] = r_term
        elif isinstance(r_term, Variable):
            bindings[r_term] = l_term
        else:
            # Two distinct constants.
            return None
    return bindings


def most_general_unifier(left: Atom, right: Atom) -> Substitution | None:
    """Compute the mgu of two atoms (Definition 3.2).

    Returns ``None`` when the atoms cannot be unified: different relation
    names, different arities, or clashing constants at some position.
    """
    bindings = _bindings(left, right)
    return None if bindings is None else Substitution(bindings)


def unification_predicate(left: Atom, right: Atom) -> Formula:
    """Compute the unification predicate ϕ(left, right) (Definition 3.3).

    The predicate is a conjunction of equalities, one per binding of the
    most general unifier; trivially FALSE when no unifier exists and
    trivially TRUE when the mgu is empty.
    """
    bindings = _bindings(left, right)
    if bindings is None:
        return FALSE
    if not bindings:
        return TRUE
    return conjunction([Equality(var, term) for var, term in bindings.items()])


def unifiable(left: Atom, right: Atom) -> bool:
    """True if the two atoms have a unifier.

    This is the conservative interference test the paper uses both for read
    handling ("if a relational atom in our incoming read query unifies with
    a pending update Ui ... the values involved in that transaction are
    fixed") and for partitioning transactions into independent sets.
    """
    return _bindings(left, right) is not None

