"""Join-order planning for conjunctive queries.

A greedy left-deep ordering: at each step the executor evaluates next the
remaining atom with the lowest estimated cost given the variables bound so
far (how many of its columns are bound, whether an index covers them, and
table cardinality).  Equal-cost atoms keep query order.

The paper's prototype sets MySQL's ``optimizer_search_depth = 3`` to keep
plan search cheap on many-way joins.  Here composed bodies are evaluated
by the search kernel (:mod:`repro.solver.kernel`), not by this planner;
the store's own queries (a read's answer, the baselines' probes) join a
handful of atoms, so one greedy pass is the whole planner.  MySQL's
61-table join limit survives only as the default bound ``k``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SchemaError, UnknownTableError
from repro.relational.query import ConjunctiveQuery, QueryAtom, Var

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.relational.database import Database

#: MySQL's documented maximum number of tables in a join, inherited by the
#: paper's prototype as the default bound ``k`` on a partition's size.
MYSQL_JOIN_LIMIT = 61


def join_order(database: "Database", query: ConjunctiveQuery) -> list[QueryAtom]:
    """The atoms of ``query`` in execution order.

    A one-atom query (every single-atom read) has nothing to order, so it
    is returned once validated, without a cost pass.

    Raises:
        SchemaError: if the query is malformed (see
            :meth:`ConjunctiveQuery.validate`) or an atom's term count is
            not its table's arity.
        UnknownTableError: if an atom references a missing table.
    """
    query.validate()
    for atom in query.atoms:
        if not database.has_table(atom.table):
            raise UnknownTableError(f"unknown table {atom.table!r}")
        arity = database.table(atom.table).schema.arity
        if len(atom.terms) != arity:
            raise SchemaError(
                f"table {atom.table!r} has {arity} columns, "
                f"the query atom has {len(atom.terms)} terms"
            )
    if len(query.atoms) == 1:
        return list(query.atoms)
    order: list[QueryAtom] = []
    bound: set[str] = set()
    remaining = list(query.atoms)
    while remaining:
        best = min(remaining, key=lambda atom: _cost(database, atom, bound))
        order.append(best)
        bound |= best.variable_names()
        remaining.remove(best)
    return order


def _cost(
    database: "Database", atom: QueryAtom, bound: set[str]
) -> tuple[float, int]:
    """Estimated cost of evaluating ``atom`` next.

    Lower is better.  The estimate is the expected number of candidate
    rows: table cardinality divided by a selectivity factor derived from
    how many of the atom's columns are bound (by constants or previously
    bound variables) and whether an index covers them.
    """
    table = database.table(atom.table)
    cardinality = max(len(table), 1)
    schema = table.schema
    bound_columns: list[str] = []
    for position, term in enumerate(atom.terms):
        column = schema.columns[position].name
        if not isinstance(term, Var) or term.name in bound:
            bound_columns.append(column)
    if not bound_columns:
        return (float(cardinality), -len(atom.terms))
    index = table.best_index(bound_columns)
    if index is not None and set(index.columns) == set(bound_columns):
        # Fully covered equality lookup: expect O(1) matching rows.
        estimate = 1.0
    elif index is not None:
        estimate = cardinality / (10.0 * len(index.columns))
    else:
        estimate = cardinality / (2.0 * len(bound_columns))
    return (estimate, -len(bound_columns))
