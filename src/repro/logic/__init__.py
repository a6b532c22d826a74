"""Term, atom, unification and formula layer.

This subpackage implements the logical machinery of Section 3 of the paper:

* :mod:`.terms` — variables and constants;
* :mod:`.atoms` — relational atoms with polarity (insert/delete/plain) and
  the OPTIONAL flag;
* :mod:`.substitution` — substitutions and their application;
* :mod:`.unification` — most general unifiers (Definition 3.2) and
  unification predicates (Definition 3.3);
* :mod:`.formula` — the formula AST used for composed transaction bodies
  (conjunction, disjunction, negation, equality), with evaluation under a
  valuation, simplification and free-variable computation.
"""

from repro.logic.atoms import Atom, AtomKind
from repro.logic.formula import (
    AtomFormula,
    Conjunction,
    Disjunction,
    Equality,
    FALSE,
    Formula,
    Negation,
    TRUE,
    conjunction,
    disjunction,
)
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Term, Variable, fresh_variable
from repro.logic.unification import most_general_unifier, unification_predicate

__all__ = [
    "Atom",
    "AtomFormula",
    "AtomKind",
    "Conjunction",
    "Constant",
    "Disjunction",
    "Equality",
    "FALSE",
    "Formula",
    "Negation",
    "Substitution",
    "TRUE",
    "Term",
    "Variable",
    "conjunction",
    "disjunction",
    "fresh_variable",
    "most_general_unifier",
    "unification_predicate",
]
