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
