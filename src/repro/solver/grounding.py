"""Grounding search: satisfiability of composed bodies over the database.

The quantum database invariant is "every composed transaction body has at
least one grounding over the extensional database D".  The paper's prototype
checks this by translating the composed body into a ``LIMIT 1`` SQL join;
this module plays that role against our own relational engine, but works
directly on the :class:`~repro.logic.formula.Formula` produced by
composition (Theorem 3.5), including the disjunctions and negated
unification predicates that the SQL translation would have to encode as
outer joins and inequality predicates.

The search is a backtracking enumeration over the formula structure:

* relational atoms generate candidate rows from the database (using the
  tables' indexes for the positions already bound),
* equalities unify terms under the running bindings,
* disjunctions are choice points,
* negations are deferred and checked once the variables they mention are
  bound.

The traversal itself lives in :mod:`repro.solver.kernel` (compile a
formula once, search it on slots with an undo trail);
:class:`GroundingSearch` is the entry point onto it that owns the shared
work counters.

The result of a successful search is a ground substitution — a *grounding*
in the paper's terminology — which the quantum database caches in its
solution cache and ultimately uses to execute the pending update portions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.errors import GroundingError
from repro.logic.formula import Formula
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable
from repro.relational.database import Database
from repro.solver.kernel import Program, Run, Scope, compile_formula


@dataclass
class GroundingStatistics:
    """Work counters for one grounding search."""

    rows_examined: int = 0
    choice_points: int = 0
    backtracks: int = 0
    nodes: int = 0
    exhausted_budget: bool = False
    #: High-water mark of the undo trail (deepest destructive binding stack).
    undo_depth: int = 0

    def add(self, other: "GroundingStatistics") -> None:
        """Accumulate ``other``'s counters into this one."""
        self.rows_examined += other.rows_examined
        self.choice_points += other.choice_points
        self.backtracks += other.backtracks
        self.nodes += other.nodes
        self.exhausted_budget = self.exhausted_budget or other.exhausted_budget
        # A high-water mark, not a flow: the deepest trail any search saw.
        self.undo_depth = max(self.undo_depth, other.undo_depth)


@dataclass
class GroundingResult:
    """Outcome of a grounding search.

    Attributes:
        substitution: the ground substitution found (empty when
            ``satisfiable`` is False).
        satisfiable: whether any grounding exists.
        statistics: search work counters.
    """

    substitution: Substitution
    satisfiable: bool
    statistics: GroundingStatistics = field(default_factory=GroundingStatistics)

    def valuation(self) -> dict[str, Any]:
        """The grounding as a variable-name → value mapping."""
        return self.substitution.as_valuation()

    def __bool__(self) -> bool:
        return self.satisfiable


class GroundingSearch:
    """Grounding search over a relational database.

    All per-search state (slots, trail, node budget, work counters) lives
    in a per-call :class:`~repro.solver.kernel.Run`; only the ``totals``
    accumulator is shared, and only the writer — the one thread that
    admits, grounds and writes — searches, so it takes no lock.

    Every method that takes a formula also takes a compiled
    :class:`~repro.solver.kernel.Program` (from :meth:`compile`): callers
    that search one body repeatedly compile it once and pass the handle.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        #: Counters accumulated over every search this instance ever ran;
        #: benchmarks read these to report total grounding work.
        self.totals = GroundingStatistics()
        #: Number of searches started (``find`` / ``find_one`` / ``exists``
        #: calls whose body did not simplify to FALSE).
        self.searches = 0

    # -- public API ---------------------------------------------------------

    def compile(
        self,
        formula: Formula | Program,
        *,
        required: Iterable[Variable] | None = None,
        scope: Scope | None = None,
    ) -> Program:
        """Compile ``formula`` into a reusable search handle.

        See :func:`repro.solver.kernel.compile_formula`; a handle is
        accepted wherever this class takes a formula, and is independent
        of the database (tables are resolved when a search runs).
        """
        return compile_formula(formula, required=required, scope=scope)

    def exists(
        self, formula: Formula | Program, *, initial: Substitution | None = None
    ) -> bool:
        """True if the formula has at least one grounding (a LIMIT 1 probe).

        Runs the search :meth:`find_one` runs, to the same first leaf and
        with the same counters, but builds no substitution and no result.
        """
        program = compile_formula(formula)
        if program.is_false:
            return False
        return self._first(program, initial, GroundingStatistics(), None) is not None

    def find_one(
        self,
        formula: Formula | Program,
        *,
        required: Iterable[Variable] | None = None,
        initial: Substitution | None = None,
        node_budget: int | None = None,
    ) -> GroundingResult:
        """Find one grounding of ``formula``.

        Args:
            formula: the composed body to ground (or its compiled handle).
            required: variables that must be bound to constants in the
                result (defaults to all free variables of the formula, or
                to what the handle was compiled with).
            initial: a substitution to extend; used by the solution cache to
                try extending a previously found grounding.
            node_budget: optional cap on search nodes; when exhausted the
                search gives up (reported as unsatisfiable with
                ``statistics.exhausted_budget`` set), which callers use for
                best-effort preference maximisation.
        """
        stats = GroundingStatistics()
        program = compile_formula(formula, required=required)
        if program.is_false:
            # A trivially false body never starts a search.
            return GroundingResult(Substitution.empty(), False, stats)
        run = self._first(program, initial, stats, node_budget)
        if run is None:
            # Unsatisfiable (or budget-exhausted): the result still carries
            # the real work counters, so callers can see ``exhausted_budget``.
            return GroundingResult(Substitution.empty(), False, stats)
        return GroundingResult(run.snapshot(), True, stats)

    def _first(
        self,
        program: Program,
        initial: Substitution | None,
        stats: GroundingStatistics,
        node_budget: int | None,
    ) -> Run | None:
        """Search ``program`` to its first closed leaf.

        Returns the run holding that leaf's bindings (closing the traversal
        undoes nothing), or ``None`` when there is none within the budget.
        """
        run = Run(program, self.database, initial, stats, node_budget)
        leaves = run.solutions()
        try:
            for _leaf in leaves:
                if run.closed():
                    return run
        finally:
            leaves.close()
            self._absorb(stats)
        return None

    def find_all(
        self,
        formula: Formula | Program,
        *,
        required: Iterable[Variable] | None = None,
        limit: int | None = None,
    ) -> list[GroundingResult]:
        """Enumerate groundings (used by possible-world utilities and tests)."""
        return list(self.find(formula, required=required, limit=limit))

    def require(
        self,
        formula: Formula | Program,
        *,
        required: Iterable[Variable] | None = None,
        initial: Substitution | None = None,
    ) -> GroundingResult:
        """Like :meth:`find_one` but raise when no grounding exists.

        Raises:
            GroundingError: if the formula is unsatisfiable over the
                database.
        """
        result = self.find_one(formula, required=required, initial=initial)
        if not result.satisfiable:
            raise GroundingError(f"no grounding exists for {formula!r}")
        return result

    def find(
        self,
        formula: Formula | Program,
        *,
        required: Iterable[Variable] | None = None,
        initial: Substitution | None = None,
        limit: int | None = None,
        node_budget: int | None = None,
        statistics: GroundingStatistics | None = None,
    ) -> Iterator[GroundingResult]:
        """Yield groundings of ``formula`` one by one.

        Solutions that agree on every required variable are yielded once.
        ``statistics`` lets a caller hand in the accumulator (so the work
        counters stay observable even when nothing is yielded); by default
        a fresh one is created per search.
        """
        program = compile_formula(formula, required=required)
        if program.is_false:
            return
        stats = statistics if statistics is not None else GroundingStatistics()
        run = Run(program, self.database, initial, stats, node_budget)
        count = 0
        seen: set[tuple] = set()
        try:
            for _leaf in run.solutions():
                if not run.closed():
                    continue
                signature = run.signature()
                if signature in seen:
                    continue
                seen.add(signature)
                yield GroundingResult(run.snapshot(), True, stats)
                count += 1
                if limit is not None and count >= limit:
                    return
        finally:
            # Runs both on exhaustion and when the caller closes the
            # generator early, so the totals always include this search.
            self._absorb(stats)

    def _absorb(self, stats: GroundingStatistics) -> None:
        """Fold one finished search's counters into the shared totals.

        :meth:`find`, :meth:`find_one` and :meth:`exists` all report
        through here, so ``totals`` and :attr:`searches` stay the single
        source of truth.
        """
        self.searches += 1
        self.totals.add(stats)
