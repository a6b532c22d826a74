"""Terms: variables and constants.

The Datalog-like notation of the paper writes transactions such as::

    -A(f1, s1), +B(M, f1, s1) :-1  A(f1, s1), B(G, f1, s2), Adj(s1, s2)

``f1``, ``s1``, ``s2`` are :class:`Variable` terms; ``M`` and ``G`` (once
resolved to ``'Mickey'`` / ``'Goofy'``) are :class:`Constant` terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Union

from repro.errors import LogicError

#: Monotone counter backing :func:`fresh_variable`.
_fresh_counter = itertools.count(1)


def _remember_hash(term: Any, key: tuple) -> int:
    """Hash a frozen term's field tuple once and keep it on the instance."""
    value = hash(key)
    object.__setattr__(term, "_hash", value)
    return value


@dataclass(frozen=True)
class Variable:
    """A named logical variable.

    Terms key the routing tables, the signature index, witness footprints
    and every substitution, so the hash (same value the generated
    ``__hash__`` would return) is kept after its first use instead of
    re-hashing the field tuple on every dict or set probe — on first use
    rather than at construction, because read paths build terms they
    never hash.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise LogicError("variable name must be non-empty")

    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            return _remember_hash(self, (self.name,))

    def __repr__(self) -> str:
        return self.name

    def rename(self, suffix: str) -> "Variable":
        """Return a variable with ``suffix`` appended to the name."""
        return Variable(f"{self.name}{suffix}")


@dataclass(frozen=True)
class Constant:
    """A constant data value (int, float, str, bool or None)."""

    value: Any

    def __post_init__(self) -> None:
        if isinstance(self.value, (Variable, Constant)):
            raise LogicError("constants must wrap plain data values")

    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            return _remember_hash(self, (self.value,))

    def __repr__(self) -> str:
        return repr(self.value)


#: A term is either a variable or a constant.
Term = Union[Variable, Constant]


def fresh_variable(prefix: str = "v") -> Variable:
    """Return a variable guaranteed not to clash with user-written names.

    Fresh variables carry a ``#`` in their name, which the transaction
    parsers never produce, so collisions with parsed transactions are
    impossible.
    """
    return Variable(f"{prefix}#{next(_fresh_counter)}")


def as_term(value: Any) -> Term:
    """Coerce a plain Python value (or an existing term) into a term."""
    if isinstance(value, (Variable, Constant)):
        return value
    return Constant(value)


def is_ground(term: Term) -> bool:
    """True if the term is a constant."""
    return isinstance(term, Constant)
