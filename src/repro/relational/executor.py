"""Pipelined execution of conjunctive queries.

The executor walks :func:`~repro.relational.planner.join_order`'s atom
order with an index-nested-loop strategy: each atom contributes candidate
rows (through :meth:`Table.probe` on the positions bound so far) and
extends the variable binding.  Results stream out until the ``LIMIT`` is
hit, which is what makes ``LIMIT 1`` probes cheap in the common,
under-constrained case.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

from repro.relational.planner import join_order
from repro.relational.query import ConjunctiveQuery, QueryAtom, QueryResult, Var
from repro.relational.row import Row

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.relational.database import Database


def execute(database: "Database", query: ConjunctiveQuery) -> QueryResult:
    """Evaluate ``query`` against ``database``."""
    order = join_order(database, query)
    select = (
        list(query.select) if query.select is not None else sorted(query.variable_names())
    )
    result = QueryResult()
    for binding in islice(_enumerate(database, order, 0, {}), query.limit):
        result.bindings.append({name: binding[name] for name in select})
    return result


def _enumerate(
    database: "Database",
    order: Sequence[QueryAtom],
    step: int,
    binding: dict[str, Any],
) -> Iterator[dict[str, Any]]:
    """Yield complete bindings extending ``binding`` over ``order[step:]``."""
    if step == len(order):
        yield binding
        return
    atom = order[step]
    for row in _candidate_rows(database, atom, binding):
        extended = _unify_row(atom, row, binding)
        if extended is not None:
            yield from _enumerate(database, order, step + 1, extended)


def _candidate_rows(
    database: "Database", atom: QueryAtom, binding: Mapping[str, Any]
) -> Iterable[Row]:
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
    return table.probe(mask, values)


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
