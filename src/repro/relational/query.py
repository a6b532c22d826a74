"""Conjunctive queries over the relational store.

The quantum database's satisfiability checker issues ``LIMIT 1`` conjunctive
queries — a join over the body atoms of a composed resource transaction.
This module defines the query representation; :mod:`repro.relational.planner`
orders the joins and :mod:`repro.relational.executor` evaluates them.

A query is a list of :class:`QueryAtom` (one per referenced relation, with a
term per column: either a :class:`Var` or a constant), a list of output
variables, and an optional ``limit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import SchemaError


@dataclass(frozen=True)
class Var:
    """A query variable, identified by name.

    The same variable name appearing in several atom positions expresses an
    equi-join between those positions.
    """

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class QueryAtom:
    """One relational atom of a conjunctive query.

    Attributes:
        table: name of the referenced table.
        terms: one term per column of the table, either a :class:`Var` or a
            constant value.
    """

    table: str
    terms: tuple[Any, ...]

    def variable_names(self) -> frozenset[str]:
        """Names of the distinct variables in this atom."""
        return frozenset(t.name for t in self.terms if isinstance(t, Var))

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.terms)
        return f"{self.table}({inner})"


@dataclass
class ConjunctiveQuery:
    """A select-project-join query with optional LIMIT.

    Attributes:
        atoms: the joined relational atoms.
        select: variable names to project in the result; ``None`` selects all
            variables bound by the atoms.
        limit: maximum number of bindings to return; ``None`` means all.
    """

    atoms: list[QueryAtom] = field(default_factory=list)
    select: Sequence[str] | None = None
    limit: int | None = None

    def add_atom(self, table: str, terms: Sequence[Any]) -> QueryAtom:
        """Append an atom and return it."""
        atom = QueryAtom(table, tuple(terms))
        self.atoms.append(atom)
        return atom

    def variable_names(self) -> frozenset[str]:
        """All distinct variable names bound by the atoms."""
        names: set[str] = set()
        for atom in self.atoms:
            names |= atom.variable_names()
        return frozenset(names)

    def validate(self) -> None:
        """Check structural well-formedness: atoms, a bound projection and a
        limit that is not negative."""
        if not self.atoms:
            raise SchemaError("a conjunctive query needs at least one atom")
        if self.limit is not None and self.limit < 0:
            raise SchemaError(f"LIMIT must not be negative (got {self.limit})")
        if self.select is not None:
            unknown = set(self.select) - self.variable_names()
            if unknown:
                raise SchemaError(
                    f"projection references unbound variables {sorted(unknown)}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        atoms = " AND ".join(repr(a) for a in self.atoms)
        suffix = f" LIMIT {self.limit}" if self.limit is not None else ""
        return f"<ConjunctiveQuery {atoms}{suffix}>"


@dataclass
class QueryResult:
    """Result of evaluating a conjunctive query.

    Attributes:
        bindings: one mapping per result, from selected variable name to its
            value.
    """

    bindings: list[dict[str, Any]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.bindings)

    def __iter__(self):
        return iter(self.bindings)

    def __bool__(self) -> bool:
        return bool(self.bindings)

    def first(self) -> dict[str, Any] | None:
        """The first binding, or None if the result is empty."""
        return self.bindings[0] if self.bindings else None
