"""Satisfiability machinery: the one grounding search.

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
* :mod:`.strategy` — :class:`AdmissionSearchConfig`, whose one field,
  ``node_budget``, bounds that search; ``SolutionCache.ensure`` applies
  it to every admission, write check and peek read alike.
"""
