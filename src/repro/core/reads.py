"""Read handling: requests, modes, and collapse semantics (Section 3.2.2).

A read against a quantum database "may have a different value depending on
the possible world that it occurs in", so the system must decide how much
uncertainty to expose.  The paper describes three options and adopts the
third:

1. ``EXPOSE_ALL`` — return all possible values across possible worlds;
2. ``PEEK`` — return one possible value without fixing it;
3. ``COLLAPSE`` — pick one value and fix it, collapsing part of the quantum
   state so that the programmer sees an ordinary database with read
   repeatability.

:class:`ReadRequest` describes a read as a conjunction of relational atom
patterns with a projection; :class:`ReadMode` selects the semantics.  The
actual orchestration (identifying affected pending transactions via
unification, grounding them, and evaluating the query) lives in
:class:`~repro.core.quantum_database.QuantumDatabase`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import QuantumError, UnknownTableError
from repro.logic.atoms import Atom, AtomKind
from repro.logic.terms import Constant, Variable
from repro.relational.query import ConjunctiveQuery, Var


class ReadMode(enum.Enum):
    """How much uncertainty a read exposes."""

    COLLAPSE = "COLLAPSE"
    PEEK = "PEEK"
    EXPOSE_ALL = "EXPOSE_ALL"


@dataclass(frozen=True)
class ReadRequest:
    """A read query: a conjunction of atom patterns plus a projection.

    Attributes:
        atoms: the patterns; variables join across atoms as usual.
        select: variable names to return; all variables when omitted.
        limit: maximum number of answers; unlimited when omitted.
        mode: the read semantics (default: collapse, as in the paper).
    """

    atoms: tuple[Atom, ...]
    select: tuple[str, ...] | None = None
    limit: int | None = None
    mode: ReadMode = ReadMode.COLLAPSE

    def __post_init__(self) -> None:
        if not self.atoms:
            raise QuantumError("a read request needs at least one atom")
        for atom in self.atoms:
            if atom.kind is not AtomKind.BODY:
                raise QuantumError(f"read atoms must be body atoms, got {atom!r}")

    def variables(self) -> tuple[str, ...]:
        """Names of the variables bound by the request, in first-use order."""
        seen: list[str] = []
        for atom in self.atoms:
            for term in atom.terms:
                if isinstance(term, Variable) and term.name not in seen:
                    seen.append(term.name)
        return tuple(seen)

    def to_query(self) -> ConjunctiveQuery:
        """Translate the request into a relational conjunctive query."""
        query = ConjunctiveQuery(
            select=list(self.select) if self.select is not None else list(self.variables()),
            limit=self.limit,
        )
        for atom in self.atoms:
            query.add_atom(atom.relation, [_to_query_term(t) for t in atom.terms])
        return query


def read_request(
    request: ReadRequest | str,
    terms: Sequence[Any] | None = None,
    *,
    select: Sequence[str] | None = None,
    limit: int | None = None,
    mode: ReadMode | str | None = None,
) -> ReadRequest:
    """``request`` itself, or the single-atom read of relation ``request``.

    ``None`` terms are wildcards: each becomes a fresh variable named after
    its column position (``_0``, ``_1``, ...), so
    ``read_request("Bookings", ["Mickey", None, None])`` reads Mickey's
    flight and seat.  ``select``, ``limit`` and ``mode`` (a
    :class:`ReadMode` or its value; COLLAPSE by default) shape only this
    form: a :class:`ReadRequest` carries its own.  An empty relation name
    is an unknown table, refused before an atom is built.
    """
    if isinstance(request, ReadRequest):
        return request
    if not request:
        raise UnknownTableError(f"unknown table {request!r}")
    if terms is None:
        raise QuantumError("read(relation, terms) requires the terms argument")
    resolved = [
        Variable(f"_{position}") if term is None else term
        for position, term in enumerate(terms)
    ]
    return ReadRequest(
        atoms=(Atom.body(request, resolved),),
        select=tuple(select) if select is not None else None,
        limit=limit,
        mode=ReadMode(mode) if mode else ReadMode.COLLAPSE,
    )


def _to_query_term(term: Variable | Constant) -> Any:
    if isinstance(term, Variable):
        return Var(term.name)
    return term.value
