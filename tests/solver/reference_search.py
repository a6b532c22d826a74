"""The seed interpreter, kept verbatim as an oracle for the search kernel.

``repro.solver.kernel`` replaced the recursive copy-per-step
``GroundingSearch._search`` (and, with it, the ``Formula.evaluate``-based
``verify_solution`` that ``Program.holds`` took over).  Both are preserved
here *unchanged* (method bodies copied from the last commit that shipped
them; only the surrounding class scaffolding — no locks, no observers —
is new) so ``test_kernel_differential.py`` can hold the kernel to their
exact enumeration order and work counters.  Do not "fix" or tidy this
file: its value is that it does not change.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.errors import FormulaError
from repro.logic.atoms import Atom
from repro.logic.formula import (
    AtomFormula,
    Conjunction,
    Disjunction,
    Equality,
    FALSE,
    Formula,
    Negation,
    TRUE,
)
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.logic.unification import unify_terms
from repro.relational.database import Database
from repro.solver.grounding import GroundingResult, GroundingStatistics


class ReferenceSearch:
    """The seed ``GroundingSearch``: ``find`` over the recursive ``_search``."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.totals = GroundingStatistics()
        self.searches = 0

    def find(
        self,
        formula: Formula,
        *,
        required: Iterable[Variable] | None = None,
        initial: Substitution | None = None,
        limit: int | None = None,
        node_budget: int | None = None,
        statistics: GroundingStatistics | None = None,
    ) -> Iterator[GroundingResult]:
        """Yield groundings of ``formula`` one by one.

        ``statistics`` lets a caller hand in the accumulator (so the work
        counters stay observable even when nothing is yielded); by default
        a fresh one is created per search.
        """
        simplified = formula.simplify()
        if simplified is FALSE:
            return
        required_vars = (
            frozenset(required) if required is not None else simplified.free_variables()
        )
        stats = statistics if statistics is not None else GroundingStatistics()
        self.searches += 1
        start = initial or Substitution.empty()
        count = 0
        seen: set[frozenset] = set()
        try:
            for substitution in self._search(
                [simplified], start, [], stats, node_budget
            ):
                grounded = self._close(substitution, required_vars)
                if grounded is None:
                    continue
                # Chase alias chains: a required variable may be bound to
                # another variable that the close step resolved to a
                # constant (e.g. through an equality), and the signature
                # must key on that constant.
                signature = frozenset(
                    (var.name, grounded.apply_term(var).value)  # type: ignore[union-attr]
                    for var in required_vars
                    if var in grounded
                )
                if signature in seen:
                    continue
                seen.add(signature)
                yield GroundingResult(grounded, True, stats)
                count += 1
                if limit is not None and count >= limit:
                    return
        finally:
            # Runs both on exhaustion and when the caller closes the
            # generator early (e.g. find_one), so the totals always include
            # this search's work.
            self.totals.add(stats)

    def _search(
        self,
        parts: list[Formula],
        substitution: Substitution,
        deferred: list[Formula],
        stats: GroundingStatistics,
        node_budget: int | None,
    ) -> Iterator[Substitution]:
        """Recursive backtracking over the conjunction ``parts``."""
        stats.nodes += 1
        if node_budget is not None and stats.nodes > node_budget:
            stats.exhausted_budget = True
            return
        if not parts:
            if self._check_deferred(deferred, substitution):
                yield substitution
            return
        index, part = self._select_part(parts, substitution)
        rest = parts[:index] + parts[index + 1 :]

        if part is TRUE:
            yield from self._search(rest, substitution, deferred, stats, node_budget)
            return
        if part is FALSE:
            stats.backtracks += 1
            return
        if isinstance(part, Conjunction):
            yield from self._search(
                list(part.parts) + rest, substitution, deferred, stats, node_budget
            )
            return
        if isinstance(part, Equality):
            unified = unify_terms(part.left, part.right, substitution)
            if unified is None:
                stats.backtracks += 1
                return
            ok, still_deferred = self._propagate_deferred(deferred, unified)
            if not ok:
                stats.backtracks += 1
                return
            yield from self._search(rest, unified, still_deferred, stats, node_budget)
            return
        if isinstance(part, Negation):
            # Evaluate immediately when already decidable; otherwise keep it
            # on the deferred list, which is re-checked every time the
            # substitution grows (fail-fast propagation of the ¬ϕ exclusion
            # constraints produced by composition).
            decision = self._try_negation(part, substitution)
            if decision is False:
                stats.backtracks += 1
                return
            if decision is True:
                yield from self._search(rest, substitution, deferred, stats, node_budget)
            else:
                yield from self._search(
                    rest, substitution, deferred + [part], stats, node_budget
                )
            return
        if isinstance(part, Disjunction):
            stats.choice_points += 1
            for branch in part.parts:
                yield from self._search(
                    [branch] + rest, substitution, deferred, stats, node_budget
                )
            return
        if isinstance(part, AtomFormula):
            stats.choice_points += 1
            for extended in self._match_atom(part.atom, substitution, stats):
                ok, still_deferred = self._propagate_deferred(deferred, extended)
                if not ok:
                    stats.backtracks += 1
                    continue
                yield from self._search(rest, extended, still_deferred, stats, node_budget)
            return
        raise FormulaError(f"unsupported formula node {part!r}")

    def _try_negation(
        self, part: Negation, substitution: Substitution
    ) -> bool | None:
        """Evaluate a negation if its variables are all bound, else ``None``."""
        valuation = self._partial_valuation(substitution)
        bound = set(valuation)
        if not all(var.name in bound for var in part.free_variables()):
            return None
        try:
            return part.evaluate(valuation, self._oracle)
        except FormulaError:
            return None

    def _propagate_deferred(
        self, deferred: list[Formula], substitution: Substitution
    ) -> tuple[bool, list[Formula]]:
        """Re-check deferred negations after the substitution grew.

        Returns ``(False, ...)`` as soon as a now-decidable negation fails,
        otherwise the remaining (still undecidable) deferred parts.
        """
        if not deferred:
            return True, deferred
        remaining: list[Formula] = []
        for part in deferred:
            decision = self._try_negation(part, substitution)  # type: ignore[arg-type]
            if decision is False:
                return False, deferred
            if decision is None:
                remaining.append(part)
        return True, remaining

    # -- part selection ------------------------------------------------------

    def _select_part(
        self, parts: list[Formula], substitution: Substitution
    ) -> tuple[int, Formula]:
        """Pick the cheapest / most constrained part to process next.

        Equalities, constants and negations are free; among atoms the one
        with the most already-bound positions is preferred (an MRV-style
        heuristic); disjunctions are handled last.
        """
        best_atom: tuple[int, int] | None = None  # (bound positions, -index)
        best_atom_index = -1
        first_disjunction = -1
        for index, part in enumerate(parts):
            if isinstance(part, (Equality, Negation, Conjunction, _TruthAlias)) or part in (
                TRUE,
                FALSE,
            ):
                return index, part
            if isinstance(part, AtomFormula):
                bound = self._bound_positions(part.atom, substitution)
                score = (bound, -index)
                if best_atom is None or score > best_atom:
                    best_atom = score
                    best_atom_index = index
            elif isinstance(part, Disjunction) and first_disjunction < 0:
                first_disjunction = index
        if best_atom_index >= 0:
            return best_atom_index, parts[best_atom_index]
        if first_disjunction >= 0:
            return first_disjunction, parts[first_disjunction]
        return 0, parts[0]

    @staticmethod
    def _bound_positions(atom: Atom, substitution: Substitution) -> int:
        count = 0
        for term in atom.terms:
            resolved = substitution.apply_term(term)
            if isinstance(resolved, Constant):
                count += 1
        return count

    # -- atom matching -------------------------------------------------------

    def _match_atom(
        self, atom: Atom, substitution: Substitution, stats: GroundingStatistics
    ) -> Iterator[Substitution]:
        """Yield extensions of ``substitution`` for rows matching ``atom``."""
        if not self.database.has_table(atom.relation):
            return
        table = self.database.table(atom.relation)
        schema = table.schema
        resolved = [substitution.apply_term(t) for t in atom.terms]
        if len(resolved) != schema.arity:
            raise FormulaError(
                f"atom {atom!r} has arity {len(resolved)}, table "
                f"{schema.name!r} has arity {schema.arity}"
            )
        columns: list[str] = []
        values: list[Any] = []
        for position, term in enumerate(resolved):
            if isinstance(term, Constant):
                columns.append(schema.columns[position].name)
                values.append(term.value)
        rows = table.lookup(columns, values) if columns else table.scan()
        for row in rows:
            stats.rows_examined += 1
            extended: Substitution | None = substitution
            for term, value in zip(resolved, row.values):
                assert extended is not None
                extended = unify_terms(term, Constant(value), extended)
                if extended is None:
                    break
            if extended is not None:
                yield extended

    # -- finishing -----------------------------------------------------------

    def _check_deferred(
        self, deferred: Sequence[Formula], substitution: Substitution
    ) -> bool:
        """Evaluate deferred negations once the substitution is final."""
        if not deferred:
            return True
        valuation = self._partial_valuation(substitution)
        oracle = self._oracle
        for part in deferred:
            try:
                if not part.evaluate(valuation, oracle):
                    return False
            except FormulaError:
                # A variable in a negated subformula is still unbound; be
                # conservative and reject this candidate grounding.
                return False
        return True

    def _oracle(self, relation: str, values: tuple[Any, ...]) -> bool:
        """Fact oracle: membership of a ground atom in the database."""
        if not self.database.has_table(relation):
            return False
        table = self.database.table(relation)
        columns = list(table.schema.column_names)
        for _row in table.lookup(columns, list(values)):
            return True
        return False

    @staticmethod
    def _partial_valuation(substitution: Substitution) -> dict[str, Any]:
        """Valuation of the ground part of a substitution."""
        valuation: dict[str, Any] = {}
        for var, term in substitution.items():
            if isinstance(term, Constant):
                valuation[var.name] = term.value
        return valuation

    def _close(
        self, substitution: Substitution, required: frozenset[Variable]
    ) -> Substitution | None:
        """Ensure every required variable resolves to a constant.

        Variables aliased to other variables are chased; a required variable
        with no constant binding causes the candidate to be rejected.
        """
        closed = substitution
        for var in required:
            resolved = closed.apply_term(var)
            if isinstance(resolved, Variable):
                return None
            if var not in closed:
                closed = closed.bind(var, resolved)
        return closed



#: Placeholder type so isinstance checks in _select_part stay tidy.
class _TruthAlias:  # pragma: no cover - never instantiated
    pass


def verify_solution(
    database: Database, formula: Formula, solution: Substitution | None
) -> bool:
    """True if ``solution`` still satisfies ``formula`` over ``database``.

    The pure core of :meth:`SolutionCache.verify`: no counters, no cache
    state — callable against a worker's snapshot store as well as the
    writer's live one.
    """
    if solution is None:
        return False
    required = formula.free_variables()
    if not required <= solution.domain():
        return False
    try:
        valuation = solution.restrict(required).as_valuation()
    except Exception:  # non-ground binding; treat as invalid
        return False

    def oracle(relation: str, values: tuple) -> bool:
        if not database.has_table(relation):
            return False
        table = database.table(relation)
        columns = list(table.schema.column_names)
        for _ in table.lookup(columns, list(values)):
            return True
        return False

    try:
        return formula.evaluate(valuation, oracle)
    except FormulaError:
        return False
