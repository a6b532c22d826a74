"""Satisfiability machinery.

The quantum database must maintain the invariant that every composed
transaction body has at least one grounding over the extensional database.
The paper's prototype checks this with ``LIMIT 1`` SQL joins and discusses
SMT solvers as future work.  This subpackage provides:

* :mod:`.kernel` — the one search traversal: a compiler from a
  composed-body :class:`~repro.logic.formula.Formula` to an immutable
  slot program, and a reentrant executor that searches it against a
  :class:`~repro.relational.database.Database` on a flat slot array with
  an undo trail, using the tables' indexes for candidate generation.
* :mod:`.grounding` — :class:`GroundingSearch`, the entry point onto the
  kernel that owns the shared work counters.  This is the direct analogue
  of the paper's ``LIMIT 1`` probes and is what
  :class:`~repro.core.quantum_database.QuantumDatabase` uses.
* :mod:`.strategy` / :mod:`.bnb` / :mod:`.fastpath` / :mod:`.sampling` —
  the admission-search configuration: a frozen
  :class:`~repro.solver.strategy.AdmissionSearchConfig` selects between
  backtracking and branch-and-bound accounting of that one traversal
  (with per-shape fast paths and an opt-in seeded sampling estimator),
  all dispatched through :func:`~repro.solver.strategy.dispatch_find_one`
  inside the pure admission function so every execution mode honors the
  strategy bit-identically.
* :mod:`.csp` / :mod:`.propagation` / :mod:`.backtracking` — a generic
  finite-domain constraint-satisfaction solver (AC-3 + MRV backtracking),
  used by the calendar example and the ablation benches.
* :mod:`.sat` / :mod:`.randomsat` — a small DPLL SAT solver and a random
  k-SAT generator, used to reproduce the Section 6 discussion of
  satisfiability phase transitions.
"""

from repro.solver.backtracking import BacktrackingSolver
from repro.solver.bnb import find_one_bnb
from repro.solver.csp import Constraint, CSP, Domain
from repro.solver.fastpath import find_one_fastpath
from repro.solver.grounding import GroundingSearch, GroundingResult
from repro.solver.kernel import Program, Scope, compile_formula, conjoin
from repro.solver.propagation import ac3, forward_check
from repro.solver.randomsat import random_ksat
from repro.solver.sampling import sample_find_one
from repro.solver.sat import Clause, CNF, DPLLSolver, Literal
from repro.solver.strategy import (
    AdmissionSearchConfig,
    SamplingConfig,
    dispatch_find_one,
)

__all__ = [
    "AdmissionSearchConfig",
    "BacktrackingSolver",
    "CNF",
    "CSP",
    "Clause",
    "Constraint",
    "DPLLSolver",
    "Domain",
    "GroundingResult",
    "GroundingSearch",
    "Literal",
    "Program",
    "SamplingConfig",
    "Scope",
    "ac3",
    "compile_formula",
    "conjoin",
    "dispatch_find_one",
    "find_one_bnb",
    "find_one_fastpath",
    "forward_check",
    "random_ksat",
    "sample_find_one",
]
