"""Branch-and-bound grounding search: the ``"bnb"`` admission strategy.

An entry point onto the one search kernel (:mod:`repro.solver.kernel`),
run with branch-and-bound accounting (cf. pracmln's ``FormulaGrounding``
B&B search tree).  On top of the kernel's undo trail the strategy adds
two *sound* structural prunes, evaluated at every choice point:

* **forward checking** — an unexpanded relational atom whose index lookup
  under the current bindings has no candidate rows can never match later
  (binding more positions only tightens the lookup, and the store is
  immutable during a search), so the whole subtree is dead;
* **required-variable reachability** — a required output variable whose
  representative is unbound and unreachable from any remaining part's
  variables can never become ground, so every completion of the subtree
  would fail the final close step anyway.

Both prunes only remove subtrees containing *no* acceptable solution and
the traversal order is the kernel's, whatever the strategy — so the first
solution found, and with it every admission decision and cached witness,
is bit-identical to plain backtracking.  Only the node count differs:
deterministic propagation (equalities, conjunction splicing, negation
deferral) is folded into its parent, and ``nodes`` counts actual branch
descents, which ``tests/core/test_work_bounds.py`` holds to ≤ 0.5x the
backtracking count (``cache.admission_nodes``) on the Figure 7 workload.

A ``node_budget`` caps the descent count; exhausting it abandons the
search with ``statistics.exhausted_budget`` set, which admission surfaces
as the typed ``AdmissionSearchExhausted`` outcome.
"""

from __future__ import annotations

from typing import Iterable

from repro.logic.formula import Formula
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable
from repro.solver.grounding import GroundingResult, GroundingSearch
from repro.solver.kernel import Program


def find_one_bnb(
    search: GroundingSearch,
    formula: Formula | Program,
    *,
    required: Iterable[Variable] | None = None,
    initial: Substitution | None = None,
    node_budget: int | None = None,
) -> GroundingResult:
    """Find one grounding by branch-and-bound; drop-in for ``find_one``.

    Identical contract to ``GroundingSearch.find_one`` (same first
    solution, same close semantics), with the work folded into
    ``search``'s shared totals and observer like any other search.
    """
    return search.find_one(
        formula,
        required=required,
        initial=initial,
        node_budget=node_budget,
        strategy="bnb",
    )
