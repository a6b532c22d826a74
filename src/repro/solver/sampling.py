"""Seeded sampling-based admission estimation for huge partitions.

Partitions whose composed bodies are too large to search exactly could
previously only be rejected or force-grounded.  This estimator (shaped
after pracmln's MC-SAT/Gibbs samplers: randomized state construction,
deterministic under a seed) runs a bounded number of *greedy descents*
through the formula instead of an exhaustive search:

* each descent drives the search kernel's own step primitives
  (:class:`repro.solver.kernel.Run`) in the exact search's part-selection
  order, but commits to one randomly chosen row per atom (candidate rows are
  shuffled; unification failures skip to the next shuffled row) and one
  random branch per disjunction — **no backtracking across parts**;
* a descent succeeds only when it reaches a *complete* assignment that
  passes the deferred-negation checks and the required-variable close —
  i.e. a genuine grounding, constructed exactly as the exact search
  would certify it.

Sampling therefore produces **false negatives only**: an accept is backed
by a real witness (the invariant can never be corrupted), while a reject
merely means no descent got lucky.  Both outcomes are approximate in the
sense surfaced to callers (``AdmissionProbe.exact = False``); the
estimator never engages without an explicit
:class:`~repro.solver.strategy.SamplingConfig` opt-in.

Determinism: a fresh ``random.Random(seed)`` per call plus the store's
insertion-order-preserving row enumeration make decisions identical
across runs.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.logic.formula import Formula
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable
from repro.solver import kernel
from repro.solver.grounding import (
    GroundingResult,
    GroundingSearch,
    GroundingStatistics,
)
from repro.solver.strategy import SamplingConfig


def relational_atom_count(formula: Formula) -> int:
    """Relational atoms in a formula — the partition-size threshold key.

    A pure function of the formula alone, so every execution mode decides
    "is this partition above the sampling threshold?" identically.
    """
    return len(formula.atoms())


def _descend(run: kernel.Run, rng: random.Random) -> bool:
    """One greedy randomized descent over the kernel's step primitives.

    True when it reached a leaf whose deferred negations hold (the run's
    bindings are then a candidate grounding, still to be closed).
    """
    stats = run.stats
    parts = [run.program.root]
    deferred: list = []
    while True:
        index = 0
        while index < len(parts):
            node = parts[index]
            if node.kind <= kernel.DISJ:
                index += 1
                continue
            del parts[index]
            if node.kind == kernel.NEG:
                decision = run.decide(node)
                if decision is None:
                    deferred = deferred + [node]
                    continue
                ok = decision
            elif node.kind == kernel.EQ:
                ok = run.unify(node.left, node.right)
                if ok:
                    remaining = run.propagate(deferred)
                    ok = remaining is not None
                    deferred = remaining if ok else deferred
            elif node.kind == kernel.CONJ:
                parts[0:0] = node.parts
                index = 0
                continue
            else:
                ok = node.value
            if not ok:
                stats.backtracks += 1
                return False
        if not parts:
            return run.leaf_holds(deferred)
        index = run.select(parts)
        node = parts.pop(index)
        stats.choice_points += 1
        if node.kind == kernel.DISJ:
            parts.insert(0, node.parts[rng.randrange(len(node.parts))])
            continue
        if not _commit_atom(run, node, rng):
            return False
        remaining = run.propagate(deferred)
        if remaining is None:
            stats.backtracks += 1
            return False
        deferred = remaining


def _commit_atom(run: kernel.Run, node, rng: random.Random) -> bool:
    """Bind one shuffled matching row of the atom, greedily and for good."""
    stats = run.stats
    if not run.database.has_table(node.atom.relation):
        return False
    candidates, binders = run.candidates(node)
    rows = list(candidates)
    rng.shuffle(rows)
    mark = len(run.trail)
    for row in rows:
        stats.rows_examined += 1
        if run.bind_row(row.values, binders):
            stats.nodes += 1
            return True
        run.undo(mark)
    stats.backtracks += 1
    return False


def sample_find_one(
    search: GroundingSearch,
    formula: Formula | kernel.Program,
    *,
    required: Iterable[Variable] | None = None,
    initial: Substitution | None = None,
    sampling: SamplingConfig,
) -> GroundingResult:
    """Estimate satisfiability by seeded greedy descents.

    Returns a satisfiable result carrying a *genuine* grounding when any
    descent completes, an (approximate) unsatisfiable result when all
    ``sampling.samples`` descents fail.  Work lands in ``search``'s
    shared totals like every other search's.
    """
    program = search.compile(formula, required=required)
    stats = GroundingStatistics()
    if program.is_false:
        return GroundingResult(Substitution.empty(), False, stats)
    rng = random.Random(sampling.seed)
    found: GroundingResult | None = None
    try:
        for _ in range(sampling.samples):
            stats.samples += 1
            run = kernel.Run(program, search.database, initial, stats)
            grounded = _descend(run, rng) and run.closed()
            stats.undo_depth = max(stats.undo_depth, run.max_depth, len(run.trail))
            if grounded:
                found = GroundingResult(run.snapshot(), True, stats)
                break
    finally:
        search.absorb_statistics(stats, formula=program, count_search=True)
    if found is not None:
        return found
    return GroundingResult(Substitution.empty(), False, stats)
