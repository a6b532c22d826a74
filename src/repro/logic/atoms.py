"""Relational atoms.

An atom is a relation name applied to a tuple of terms, e.g.
``Available(f1, s1)`` or ``Bookings('Goofy', f1, s2)``.  Atoms carry two
pieces of metadata from the resource-transaction syntax:

* ``kind`` distinguishes plain body atoms from the ``+`` (insert) and ``-``
  (delete) atoms of the update portion;
* ``optional`` marks body atoms written under ``OPTIONAL`` (soft
  preferences), which the system tries to satisfy at grounding time but
  never lets block a commit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import LogicError
from repro.logic.terms import Constant, Term, Variable, _remember_hash, as_term


class AtomKind(enum.Enum):
    """Role an atom plays within a resource transaction."""

    BODY = "BODY"
    INSERT = "INSERT"
    DELETE = "DELETE"


@dataclass(frozen=True)
class Atom:
    """A relational atom ``relation(term, term, ...)``.

    Attributes:
        relation: relation (table) name.
        terms: the argument terms.
        kind: BODY, INSERT or DELETE.
        optional: True for body atoms under OPTIONAL.
    """

    relation: str
    terms: tuple[Term, ...]
    kind: AtomKind = AtomKind.BODY
    optional: bool = False

    def __post_init__(self) -> None:
        if not self.relation:
            raise LogicError("atom relation name must be non-empty")
        if self.optional and self.kind is not AtomKind.BODY:
            raise LogicError("only body atoms can be optional")
        coerced = tuple(as_term(t) for t in self.terms)
        object.__setattr__(self, "terms", coerced)

    def __hash__(self) -> int:
        # Kept after first use (see ``Variable``); rebuilt on unpickling.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            return _remember_hash(
                self, (self.relation, self.terms, self.kind, self.optional)
            )

    def __reduce__(self):
        return Atom, (self.relation, self.terms, self.kind, self.optional)

    # -- constructors -------------------------------------------------------

    @classmethod
    def body(
        cls, relation: str, terms: Sequence[Any], *, optional: bool = False
    ) -> "Atom":
        """Build a body atom (optionally marked OPTIONAL)."""
        return cls(relation, tuple(terms), AtomKind.BODY, optional)

    @classmethod
    def insert(cls, relation: str, terms: Sequence[Any]) -> "Atom":
        """Build a ``+relation(...)`` update atom."""
        return cls(relation, tuple(terms), AtomKind.INSERT)

    @classmethod
    def delete(cls, relation: str, terms: Sequence[Any]) -> "Atom":
        """Build a ``-relation(...)`` update atom."""
        return cls(relation, tuple(terms), AtomKind.DELETE)

    # -- introspection ------------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of argument terms."""
        return len(self.terms)

    def variables(self) -> frozenset[Variable]:
        """Distinct variables appearing in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Variable))

    def constants(self) -> frozenset[Constant]:
        """Distinct constants appearing in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Constant))

    def is_ground(self) -> bool:
        """True if the atom contains no variables."""
        return not self.variables()

    def ground_values(self) -> tuple[Any, ...]:
        """Values of a ground atom's terms.

        Raises:
            LogicError: if the atom still contains variables.
        """
        if not self.is_ground():
            raise LogicError(f"atom {self} is not ground")
        return tuple(t.value for t in self.terms)  # type: ignore[union-attr]

    def with_kind(self, kind: AtomKind) -> "Atom":
        """Copy of the atom with a different kind (optional flag dropped for updates)."""
        optional = self.optional if kind is AtomKind.BODY else False
        return Atom(self.relation, self.terms, kind, optional)

    def as_body(self) -> "Atom":
        """Copy of the atom viewed as a plain body atom."""
        return Atom(self.relation, self.terms, AtomKind.BODY, False)

    def rename_variables(self, suffix: str) -> "Atom":
        """Copy with every variable renamed by appending ``suffix``.

        Used to keep the variable namespaces of distinct transactions
        disjoint before composition (the proof of Lemma 3.4 assumes
        ``Var1 ∩ Var2 = ∅``).
        """
        terms = tuple(
            t.rename(suffix) if isinstance(t, Variable) else t for t in self.terms
        )
        return Atom(self.relation, terms, self.kind, self.optional)

    # -- presentation -------------------------------------------------------

    def __repr__(self) -> str:
        prefix = {AtomKind.BODY: "", AtomKind.INSERT: "+", AtomKind.DELETE: "-"}[
            self.kind
        ]
        inner = ", ".join(repr(t) for t in self.terms)
        text = f"{prefix}{self.relation}({inner})"
        if self.optional:
            text = f"[{text}]"
        return text


def atoms_variables(atoms: Iterable[Atom]) -> frozenset[Variable]:
    """Union of the variables of a collection of atoms."""
    result: set[Variable] = set()
    for atom in atoms:
        result |= atom.variables()
    return frozenset(result)
