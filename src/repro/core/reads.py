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

:class:`ReadRequest` describes a read as one relational atom pattern with a
projection; :class:`ReadMode` selects the semantics.  :func:`store_read`
checks a request against the store's schema and turns it into one
:meth:`~repro.relational.database.Database.execute` call — one table probe
over the constant positions, then the repeated-variable check, the
projection and the limit, in probe order — which answers every mode.  The
orchestration (identifying affected pending transactions via unification,
grounding them, and choosing the database the probe runs on) lives in
:class:`~repro.core.quantum_database.QuantumDatabase`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

from repro.errors import QuantumError, SchemaError, UnknownTableError
from repro.logic.atoms import Atom, AtomKind
from repro.logic.terms import Variable
from repro.relational.database import Database


class ReadMode(enum.Enum):
    """How much uncertainty a read exposes."""

    COLLAPSE = "COLLAPSE"
    PEEK = "PEEK"
    EXPOSE_ALL = "EXPOSE_ALL"


@dataclass(frozen=True)
class ReadRequest:
    """A read query: one atom pattern plus a projection.

    Attributes:
        atom: the pattern; a variable repeated in it must take one value.
        select: variable names to return; all variables when omitted.
        limit: maximum number of answers; unlimited when omitted.
        mode: the read semantics (default: collapse, as in the paper).
    """

    atom: Atom
    select: tuple[str, ...] | None = None
    limit: int | None = None
    mode: ReadMode = ReadMode.COLLAPSE

    def __post_init__(self) -> None:
        if self.atom.kind is not AtomKind.BODY:
            raise QuantumError(f"read atoms must be body atoms, got {self.atom!r}")


class StoreRead(NamedTuple):
    """A read checked against the store: the arguments of
    :meth:`Database.execute <repro.relational.database.Database.execute>`.

    Valid on any database with the same schemas (a possible world's copy
    included), so a read is checked once and may run on several.
    """

    table: str
    mask: int
    values: tuple[Any, ...]
    columns: tuple[tuple[str, int], ...]
    same: tuple[tuple[int, int], ...]
    limit: int | None

    def answer(self, database: Database) -> list[dict[str, Any]]:
        """The answers over ``database``, each a fresh dict."""
        return database.execute(*self)


def store_read(database: Database, request: ReadRequest) -> StoreRead:
    """Check ``request`` against ``database``'s schema and compile it.

    Constant positions become the probe's mask and values; a variable's
    first position is where its value is read, and each later position of
    the same variable must equal it.  Answers map the selected names (all
    variables in first-use order by default) to their values.  Nothing
    here reads a row, so a read that fails these checks has grounded
    nothing.

    Raises:
        SchemaError: if the limit is negative, the projection names a
            variable the atom does not bind, or the atom's term count is
            not its table's arity.
        UnknownTableError: if the atom names a missing table.
    """
    atom = request.atom
    if request.limit is not None and request.limit < 0:
        raise SchemaError(f"LIMIT must not be negative (got {request.limit})")
    first: dict[str, int] = {}
    same: list[tuple[int, int]] = []
    mask = 0
    values: list[Any] = [None] * len(atom.terms)
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            seen = first.setdefault(term.name, position)
            if seen != position:
                same.append((seen, position))
        else:
            mask |= 1 << position
            values[position] = term.value
    select = request.select if request.select is not None else tuple(first)
    unknown = set(select) - first.keys()
    if unknown:
        raise SchemaError(f"projection references unbound variables {sorted(unknown)}")
    arity = database.table(atom.relation).schema.arity
    if len(atom.terms) != arity:
        raise SchemaError(
            f"table {atom.relation!r} has {arity} columns, "
            f"the query atom has {len(atom.terms)} terms"
        )
    return StoreRead(
        atom.relation,
        mask,
        tuple(values),
        tuple((name, first[name]) for name in select),
        tuple(same),
        request.limit,
    )


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
        atom=Atom.body(request, resolved),
        select=tuple(select) if select is not None else None,
        limit=limit,
        mode=ReadMode(mode) if mode else ReadMode.COLLAPSE,
    )

