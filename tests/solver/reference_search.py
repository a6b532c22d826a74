"""The seed interpreters, kept verbatim as oracles for the search kernel.

``repro.solver.kernel`` replaced two traversals: the recursive
copy-per-step ``GroundingSearch._search`` and the trail-based
``TrailSearch`` of the branch-and-bound strategy (and, with them, the
``Formula.evaluate``-based ``verify_solution`` that ``Program.holds``
took over).  All are preserved here *unchanged* (method bodies copied from the last commit that shipped
them; only the surrounding class scaffolding — no locks, no observers —
is new) so ``test_kernel_differential.py`` can hold the kernel to their
exact enumeration order and work counters.  Do not "fix" or tidy this
file: its value is that it does not change.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.errors import FormulaError, SubstitutionError
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
from repro.logic.terms import Constant, Term, Variable
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


class Trail:
    """The undo log of a destructive search: variables bound, in order.

    ``mark()`` snapshots the current depth; ``undo_to(mark)`` unbinds
    everything bound since — the whole backtrack step, O(bindings undone)
    instead of O(copy).  ``max_depth`` is the high-water mark, surfaced in
    the ``search.undo_depth`` statistic.
    """

    __slots__ = ("_entries", "_bindings", "max_depth")

    def __init__(self, bindings: "TrailBindings") -> None:
        self._entries: list[Variable] = []
        self._bindings = bindings
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._entries)

    def mark(self) -> int:
        """The current trail depth, to be passed back to :meth:`undo_to`."""
        return len(self._entries)

    def record(self, var: Variable) -> None:
        """Log ``var`` as bound (called by the bindings on every bind)."""
        self._entries.append(var)
        if len(self._entries) > self.max_depth:
            self.max_depth = len(self._entries)

    def undo_to(self, mark: int) -> None:
        """Unbind every variable bound since ``mark`` (newest first)."""
        mapping = self._bindings.mapping
        entries = self._entries
        while len(entries) > mark:
            del mapping[entries.pop()]


class TrailBindings:
    """A mutable substitution with trail-based undo.

    Seeded from an immutable :class:`Substitution` (the initial/witness
    bindings, which are *not* on the trail and can never be undone), then
    grown destructively by :meth:`unify`.  :meth:`snapshot` freezes the
    current state back into an immutable :class:`Substitution` equal to
    the one the copy-per-step search would have built along the same path.
    """

    __slots__ = ("mapping", "trail")

    def __init__(self, initial: Substitution | None = None) -> None:
        self.mapping: dict[Variable, Term] = (
            {var: term for var, term in initial.items()} if initial else {}
        )
        self.trail = Trail(self)

    def walk(self, term: Term) -> Term:
        """Chase variable chains, mirroring ``Substitution.apply_term``."""
        seen: set[Variable] | None = None
        current = term
        mapping = self.mapping
        while isinstance(current, Variable) and current in mapping:
            if seen is None:
                seen = set()
            elif current in seen:
                raise SubstitutionError(f"cyclic substitution through {current!r}")
            seen.add(current)
            current = mapping[current]
        return current

    def unify(self, left: Term, right: Term) -> bool:
        """Destructively unify two terms; mirrors ``unify_terms``.

        Returns False on a constant clash, leaving the bindings untouched
        (walking never mutates; the failed case binds nothing).
        """
        left = self.walk(left)
        right = self.walk(right)
        if left == right:
            return True
        if isinstance(left, Variable):
            self.mapping[left] = right
            self.trail.record(left)
            return True
        if isinstance(right, Variable):
            self.mapping[right] = left
            self.trail.record(right)
            return True
        return False

    def valuation(self) -> dict[str, Any]:
        """Direct constant bindings only, mirroring ``_partial_valuation``.

        Deliberately does *not* chase alias chains: the backtracking
        search's deferred-negation machinery sees only variables bound
        directly to constants, and the trail search must defer and decide
        negations at exactly the same points.
        """
        return {
            var.name: term.value
            for var, term in self.mapping.items()
            if isinstance(term, Constant)
        }

    def items(self) -> Iterator[tuple[Variable, Term]]:
        return iter(self.mapping.items())

    def snapshot(self) -> Substitution:
        """Freeze the current bindings into an immutable substitution."""
        return Substitution(dict(self.mapping))


class TrailSearch:
    """One branch-and-bound search: a trail, its statistics, its budget.

    Per-search state only (reentrancy mirrors :class:`GroundingSearch`:
    nothing here outlives one :func:`find_one_bnb` call).
    """

    def __init__(
        self,
        database: Database,
        bindings: TrailBindings,
        stats: GroundingStatistics,
        node_budget: int | None,
        required: frozenset[Variable],
        *,
        prune: bool = True,
    ) -> None:
        self.database = database
        self.bindings = bindings
        self.stats = stats
        self.node_budget = node_budget
        self.required = required
        self.prune = prune
        self.exhausted = False

    # -- traversal ----------------------------------------------------------

    def search(
        self, parts: list[Formula], deferred: list[Formula]
    ) -> Iterator[Substitution]:
        """Yield solution snapshots; mirrors ``GroundingSearch._search``.

        Deterministic steps (equalities, conjunction splicing, negation
        deferral, TRUE/FALSE elimination) are folded into a loop instead
        of recursive calls — they expand no alternatives, so they count no
        nodes.  Every binding this frame makes is rewound in the
        ``finally``, so callers never see trail residue.
        """
        bindings = self.bindings
        stats = self.stats
        entry_mark = bindings.trail.mark()
        try:
            while True:
                if self.exhausted:
                    return
                if not parts:
                    if self._check_deferred(deferred):
                        yield bindings.snapshot()
                    return
                index, part = self._select_part(parts)
                rest = parts[:index] + parts[index + 1 :]
                if part is TRUE:
                    parts = rest
                    continue
                if part is FALSE:
                    stats.backtracks += 1
                    return
                if isinstance(part, Conjunction):
                    parts = list(part.parts) + rest
                    continue
                if isinstance(part, Equality):
                    if not bindings.unify(part.left, part.right):
                        stats.backtracks += 1
                        return
                    ok, deferred = self._propagate_deferred(deferred)
                    if not ok:
                        stats.backtracks += 1
                        return
                    parts = rest
                    continue
                if isinstance(part, Negation):
                    decision = self._try_negation(part)
                    if decision is False:
                        stats.backtracks += 1
                        return
                    if decision is None:
                        deferred = deferred + [part]
                    parts = rest
                    continue
                break
            # ``part`` is a choice point: a disjunction or a relational atom.
            if self.prune and self._should_prune([part] + rest):
                return
            if isinstance(part, Disjunction):
                stats.choice_points += 1
                for branch in part.parts:
                    if not self._charge_node():
                        return
                    yield from self.search([branch] + rest, deferred)
                return
            if isinstance(part, AtomFormula):
                stats.choice_points += 1
                yield from self._expand_atom(part.atom, rest, deferred)
                return
            raise FormulaError(f"unsupported formula node {part!r}")
        finally:
            bindings.trail.undo_to(entry_mark)

    def _expand_atom(
        self, atom: Atom, rest: list[Formula], deferred: list[Formula]
    ) -> Iterator[Substitution]:
        """Enumerate matching rows; row order replicates ``_match_atom``."""
        bindings = self.bindings
        stats = self.stats
        if not self.database.has_table(atom.relation):
            return
        table = self.database.table(atom.relation)
        schema = table.schema
        resolved = [bindings.walk(t) for t in atom.terms]
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
            mark = bindings.trail.mark()
            matched = True
            for term, value in zip(resolved, row.values):
                if not bindings.unify(term, Constant(value)):
                    matched = False
                    break
            if not matched:
                bindings.trail.undo_to(mark)
                continue
            ok, still_deferred = self._propagate_deferred(deferred)
            if not ok:
                stats.backtracks += 1
                bindings.trail.undo_to(mark)
                continue
            if not self._charge_node():
                bindings.trail.undo_to(mark)
                return
            yield from self.search(rest, still_deferred)
            bindings.trail.undo_to(mark)

    def _charge_node(self) -> bool:
        """Count one branch descent against the budget."""
        self.stats.nodes += 1
        if self.node_budget is not None and self.stats.nodes > self.node_budget:
            self.stats.exhausted_budget = True
            self.exhausted = True
            return False
        return True

    # -- pruning ------------------------------------------------------------

    def _should_prune(self, remaining: list[Formula]) -> bool:
        """True when the subtree rooted here provably contains no solution."""
        stats = self.stats
        for part in remaining[1:]:
            # Forward check: the choice part itself is about to be
            # enumerated (an empty candidate set there costs nothing), but
            # a *later* atom with no candidate rows dooms every branch.
            if isinstance(part, AtomFormula) and not self._has_candidate(part.atom):
                stats.prunes += 1
                return True
        if self.required:
            unreached = self._unreachable_required(remaining)
            if unreached:
                stats.prunes += 1
                return True
        return False

    def _has_candidate(self, atom: Atom) -> bool:
        """Whether any row could still match ``atom`` (conservative).

        Bound positions only tighten as the search descends and the store
        is immutable during a search, so an empty candidate set here is
        empty forever — the monotonicity that makes the prune sound.
        """
        if not self.database.has_table(atom.relation):
            return False
        table = self.database.table(atom.relation)
        schema = table.schema
        if len(atom.terms) != schema.arity:
            # Malformed atom: let the real expansion raise, never prune.
            return True
        columns: list[str] = []
        values: list[Any] = []
        for position, term in enumerate(atom.terms):
            walked = self.bindings.walk(term)
            if isinstance(walked, Constant):
                columns.append(schema.columns[position].name)
                values.append(walked.value)
        rows = table.lookup(columns, values) if columns else table.scan()
        for _row in rows:
            return True
        return False

    def _unreachable_required(self, remaining: list[Formula]) -> set[Variable]:
        """Required variables no remaining part can ever bind.

        A variable binds only when a unification walks into its chain's
        representative; the representatives reachable from the remaining
        parts' free variables are therefore the only ones that can still
        change.  (Deferred negations never bind anything.)
        """
        walk = self.bindings.walk
        unbound: set[Variable] = set()
        for var in self.required:
            walked = walk(var)
            if isinstance(walked, Variable):
                unbound.add(walked)
        if not unbound:
            return unbound
        for part in remaining:
            for var in part.free_variables():
                walked = walk(var)
                if isinstance(walked, Variable):
                    unbound.discard(walked)
                    if not unbound:
                        return unbound
        return unbound

    # -- negations ----------------------------------------------------------

    def _try_negation(self, part: Negation) -> bool | None:
        """Evaluate a negation if its variables are all bound, else None."""
        valuation = self.bindings.valuation()
        if not all(var.name in valuation for var in part.free_variables()):
            return None
        try:
            return part.evaluate(valuation, self._oracle)
        except FormulaError:
            return None

    def _propagate_deferred(
        self, deferred: list[Formula]
    ) -> tuple[bool, list[Formula]]:
        """Re-check deferred negations after the bindings grew."""
        if not deferred:
            return True, deferred
        remaining: list[Formula] = []
        for part in deferred:
            decision = self._try_negation(part)  # type: ignore[arg-type]
            if decision is False:
                return False, deferred
            if decision is None:
                remaining.append(part)
        return True, remaining

    def _check_deferred(self, deferred: list[Formula]) -> bool:
        """Evaluate deferred negations once the bindings are final."""
        if not deferred:
            return True
        valuation = self.bindings.valuation()
        for part in deferred:
            try:
                if not part.evaluate(valuation, self._oracle):
                    return False
            except FormulaError:
                return False
        return True

    def _oracle(self, relation: str, values: tuple[Any, ...]) -> bool:
        if not self.database.has_table(relation):
            return False
        table = self.database.table(relation)
        columns = list(table.schema.column_names)
        for _row in table.lookup(columns, list(values)):
            return True
        return False

    # -- part selection ------------------------------------------------------

    def _select_part(self, parts: list[Formula]) -> tuple[int, Formula]:
        """Replicates ``GroundingSearch._select_part`` under the trail."""
        best_atom: tuple[int, int] | None = None
        best_atom_index = -1
        first_disjunction = -1
        walk = self.bindings.walk
        for index, part in enumerate(parts):
            if isinstance(part, (Equality, Negation, Conjunction)) or part in (
                TRUE,
                FALSE,
            ):
                return index, part
            if isinstance(part, AtomFormula):
                bound = sum(
                    1 for term in part.atom.terms if isinstance(walk(term), Constant)
                )
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


def find_one_bnb(
    search: ReferenceSearch,
    formula: Formula,
    *,
    required: frozenset[Variable] | None = None,
    initial: Substitution | None = None,
    node_budget: int | None = None,
) -> GroundingResult:
    """Find one grounding by branch-and-bound; drop-in for ``find_one``.

    Identical contract to ``GroundingSearch.find_one`` (same first
    solution, same close semantics), with the work folded into
    ``search``'s shared totals and observer exactly as an inline search
    would be.
    """
    simplified = formula.simplify()
    stats = GroundingStatistics()
    if simplified is FALSE:
        # Mirrors ``find``: a trivially false body never starts a search.
        return GroundingResult(Substitution.empty(), False, stats)
    required_vars = (
        frozenset(required) if required is not None else simplified.free_variables()
    )
    bindings = TrailBindings(initial)
    engine = TrailSearch(
        search.database, bindings, stats, node_budget, required_vars
    )
    found: GroundingResult | None = None
    solutions = engine.search([simplified], [])
    try:
        for snapshot in solutions:
            grounded = search._close(snapshot, required_vars)
            if grounded is None:
                continue
            found = GroundingResult(grounded, True, stats)
            break
    finally:
        solutions.close()
        stats.undo_depth = max(stats.undo_depth, bindings.trail.max_depth)
        search.searches += 1
        search.totals.add(stats)
    if found is not None:
        return found
    return GroundingResult(Substitution.empty(), False, stats)


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
