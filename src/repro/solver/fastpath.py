"""Per-shape fast paths dispatched before the general admission search.

Most factors the admission path searches are *simple*: a freshly renamed
transaction body is a flat conjunction of relational atoms (plus the
equality constraints composition introduced), and the witness-extension
step searches exactly that shape against an already-ground base.  On such
a shape neither the deferred-negation protocol nor the branch-and-bound
prunes can ever trigger, so — following pracmln's ``fastconj`` /
``fastexistential`` specializations — the compiled program's shape is
recognized and the kernel runs it with the prunes switched off:

* **conjunctive** — ``TRUE``, a single atom/equality, or a flat
  conjunction of atoms and equalities (no negations, no disjunctions,
  no nesting);
* **existential** — a disjunction whose branches are each conjunctive
  (the "some branch has a grounding" probe).

It is the same traversal as every other search, so the first solution is
bit-identical and dispatching a fast path can never change a decision.
Shapes outside the two classes return ``None`` and fall through to the
configured general strategy.
"""

from __future__ import annotations

from typing import Iterable

from repro.logic.formula import Formula
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable
from repro.solver.grounding import (
    GroundingResult,
    GroundingSearch,
    GroundingStatistics,
)
from repro.solver.kernel import Program


def find_one_fastpath(
    search: GroundingSearch,
    formula: Formula | Program,
    *,
    required: Iterable[Variable] | None = None,
    initial: Substitution | None = None,
    node_budget: int | None = None,
) -> GroundingResult | None:
    """Answer a find-one through a shape fast path, or ``None`` to decline.

    When the (simplified) formula matches a supported shape the result is
    a complete :class:`GroundingResult` — satisfiable or not — identical
    to what the general search would return, with the work folded into
    ``search``'s totals (plus one ``fastpath_hits``).
    """
    program = search.compile(formula, required=required)
    if program.is_false:
        return GroundingResult(Substitution.empty(), False, GroundingStatistics())
    if program.shape() is None:
        return None
    return search.find_one(
        program,
        initial=initial,
        node_budget=node_budget,
        strategy="bnb",
        prune=False,
        statistics=GroundingStatistics(fastpath_hits=1),
    )
