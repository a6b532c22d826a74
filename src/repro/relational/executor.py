"""Pipelined execution of conjunctive queries.

The executor walks the planner's atom order with an index-nested-loop
strategy: each positive atom contributes candidate rows (via the best
available index given the variables bound so far), extends the variable
binding, and negated atoms reject bindings for which a matching row exists.
Results stream out until the ``LIMIT`` is hit, which is what makes the
``LIMIT 1`` satisfiability probes of the quantum database cheap in the
common, under-constrained case.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.relational.planner import Planner, QueryPlan
from repro.relational.query import ConjunctiveQuery, QueryAtom, QueryResult, Var
from repro.relational.row import Row

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.relational.database import Database


class Executor:
    """Evaluates conjunctive queries against a database."""

    def __init__(self, planner: Planner | None = None) -> None:
        self.planner = planner or Planner()

    # -- public API ---------------------------------------------------------

    def execute(self, database: "Database", query: ConjunctiveQuery) -> QueryResult:
        """Evaluate ``query`` and return a :class:`QueryResult`."""
        plan = self.planner.plan(database, query)
        result = QueryResult(plans_considered=plan.plans_considered)
        select = (
            list(query.select)
            if query.select is not None
            else sorted(query.variable_names())
        )
        counter = _RowCounter()
        for binding in self._enumerate(database, plan, query, counter):
            result.bindings.append({name: binding[name] for name in select})
            if query.limit is not None and len(result.bindings) >= query.limit:
                break
        result.rows_examined = counter.count
        return result

    def exists(self, database: "Database", query: ConjunctiveQuery) -> bool:
        """True if the query has at least one answer (a LIMIT 1 probe)."""
        probe = ConjunctiveQuery(
            atoms=list(query.atoms),
            condition=query.condition,
            select=[],
            limit=1,
        )
        return bool(self.execute(database, probe))

    # -- evaluation ---------------------------------------------------------

    def _enumerate(
        self,
        database: "Database",
        plan: QueryPlan,
        query: ConjunctiveQuery,
        counter: "_RowCounter",
    ) -> Iterator[dict[str, Any]]:
        """Yield complete variable bindings satisfying the plan."""
        condition = query.condition

        def check_condition(binding: dict[str, Any]) -> bool:
            if condition is None:
                return True
            if not condition.references() <= binding.keys():
                # Not all referenced variables bound yet; defer the check.
                return True
            return condition.evaluate(binding)

        def recurse(step: int, binding: dict[str, Any]) -> Iterator[dict[str, Any]]:
            if step == len(plan.order):
                if condition is None or condition.evaluate(binding):
                    yield dict(binding)
                return
            atom = plan.order[step]
            if atom.negated:
                if self._matches_exist(database, atom, binding, counter):
                    return
                yield from recurse(step + 1, binding)
                return
            for extended in self._extend(database, atom, binding, counter):
                if check_condition(extended):
                    yield from recurse(step + 1, extended)

        yield from recurse(0, {})

    def _candidate_rows(
        self,
        database: "Database",
        atom: QueryAtom,
        binding: Mapping[str, Any],
        counter: "_RowCounter",
    ) -> Iterator[Row]:
        """Rows of ``atom``'s table compatible with the bound positions."""
        table = database.table(atom.table)
        mask = 0
        values: list[Any] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Var):
                if term.name not in binding:
                    values.append(None)
                    continue
                values.append(binding[term.name])
            else:
                values.append(term)
            mask |= 1 << position
        for row in table.probe(mask, values):
            counter.count += 1
            yield row

    def _extend(
        self,
        database: "Database",
        atom: QueryAtom,
        binding: Mapping[str, Any],
        counter: "_RowCounter",
    ) -> Iterator[dict[str, Any]]:
        """Yield extensions of ``binding`` with rows matching ``atom``."""
        for row in self._candidate_rows(database, atom, binding, counter):
            extended = self._unify_row(atom, row, binding)
            if extended is not None:
                yield extended

    def _matches_exist(
        self,
        database: "Database",
        atom: QueryAtom,
        binding: Mapping[str, Any],
        counter: "_RowCounter",
    ) -> bool:
        """True if any row matches ``atom`` under ``binding`` (anti-join)."""
        for row in self._candidate_rows(database, atom, binding, counter):
            if self._unify_row(atom, row, binding) is not None:
                return True
        return False

    @staticmethod
    def _unify_row(
        atom: QueryAtom, row: Row, binding: Mapping[str, Any]
    ) -> dict[str, Any] | None:
        """Match ``row`` against ``atom`` and return the extended binding."""
        extended = dict(binding)
        for term, value in zip(atom.terms, row.values):
            if isinstance(term, Var):
                if term.name in extended:
                    if extended[term.name] != value:
                        return None
                else:
                    extended[term.name] = value
            elif term != value:
                return None
        return extended


class _RowCounter:
    """Mutable counter shared by the recursive evaluation helpers."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0
