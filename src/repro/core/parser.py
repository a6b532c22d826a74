"""Parsing and formatting of the Datalog-like transaction notation.

The paper's prototype "does not accept and parse resource transactions in
their SQL format, but only in the intermediate Datalog-like representation"
(Section 4); this module implements that representation.  The running
example from Section 2 is written::

    -Available(f1, s1), +Bookings('Mickey', f1, s1)
        :-1 Available(f1, s1), [Bookings('Goofy', f1, s2)], [Adjacent(s1, s2)]

Syntax summary:

* the update portion precedes ``:-1`` (the ``CHOOSE 1`` marker); each update
  atom is prefixed ``+`` (insert) or ``-`` (delete);
* the body follows ``:-1``; atoms wrapped in square brackets are OPTIONAL
  (the paper underlines them);
* terms are either constants — quoted strings, numbers, ``true``/``false``,
  ``null`` — or variables.  A bare identifier starting with a lowercase
  letter is a variable; an identifier starting with an uppercase letter is a
  constant string (so ``Mickey`` works unquoted); a ``?``-prefixed
  identifier is always a variable regardless of case.

:func:`format_transaction` produces text that :func:`parse_transaction`
round-trips exactly.  The notation is the human-facing and the wire form;
the pending-transactions table stores the JSON form of
:mod:`repro.core.recovery` and still parses rows written in this notation.
"""

from __future__ import annotations

import re
from typing import Any

from repro.errors import ParseError
from repro.core.resource_transaction import ResourceTransaction
from repro.logic.atoms import Atom, AtomKind
from repro.logic.terms import Constant, Term, Variable

#: Token specification for the tokenizer.
_TOKEN_SPEC = [
    ("CHOOSE", r":-\s*\d+"),
    ("STRING", r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\""),
    ("NUMBER", r"-?\d+\.\d+|-?\d+"),
    ("NAME", r"\??[A-Za-z_][A-Za-z_0-9]*"),
    ("PLUS", r"\+"),
    ("MINUS", r"-"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LBRACKET", r"\["),
    ("RBRACKET", r"\]"),
    ("COMMA", r","),
    ("WS", r"\s+"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int) -> None:
        self.kind = kind
        self.text = text
        self.position = position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind}({self.text!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {text[position]!r} at position {position}"
            )
        kind = match.lastgroup or ""
        if kind != "WS":
            tokens.append(_Token(kind, match.group(), position))
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[_Token], source: str) -> None:
        self.tokens = tokens
        self.source = source
        self.index = 0

    # -- token helpers -------------------------------------------------------

    def _peek(self) -> _Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError(f"unexpected end of input in {self.source!r}")
        self.index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} but found {token.text!r} at position "
                f"{token.position} in {self.source!r}"
            )
        return token

    def _accept(self, kind: str) -> _Token | None:
        token = self._peek()
        if token is not None and token.kind == kind:
            self.index += 1
            return token
        return None

    # -- grammar -------------------------------------------------------------

    def parse(self) -> tuple[tuple[Atom, ...], int, tuple[Atom, ...]]:
        updates = self._parse_updates()
        choose_token = self._expect("CHOOSE")
        choose = int(choose_token.text.split("-", 1)[1])
        body = self._parse_body()
        if self._peek() is not None:
            trailing = self._peek()
            raise ParseError(
                f"unexpected trailing input {trailing.text!r} at position "
                f"{trailing.position}"
            )
        return updates, choose, body

    def _parse_updates(self) -> tuple[Atom, ...]:
        atoms: list[Atom] = []
        while True:
            token = self._peek()
            if token is None:
                raise ParseError("missing ':-1' separator")
            if token.kind == "CHOOSE":
                break
            if token.kind == "PLUS":
                self._next()
                atoms.append(self._parse_atom(AtomKind.INSERT))
            elif token.kind == "MINUS":
                self._next()
                atoms.append(self._parse_atom(AtomKind.DELETE))
            else:
                raise ParseError(
                    f"update atoms must start with '+' or '-', found {token.text!r} "
                    f"at position {token.position}"
                )
            if not self._accept("COMMA"):
                # Next token must be the CHOOSE separator.
                continue
        return tuple(atoms)

    def _parse_body(self) -> tuple[Atom, ...]:
        atoms: list[Atom] = []
        while True:
            token = self._peek()
            if token is None:
                break
            if token.kind == "LBRACKET":
                self._next()
                atom = self._parse_atom(AtomKind.BODY, optional=True)
                self._expect("RBRACKET")
                atoms.append(atom)
            else:
                atoms.append(self._parse_atom(AtomKind.BODY))
            if not self._accept("COMMA"):
                break
        if not atoms:
            raise ParseError("a resource transaction body cannot be empty")
        return tuple(atoms)

    def _parse_atom(self, kind: AtomKind, *, optional: bool = False) -> Atom:
        name_token = self._expect("NAME")
        relation = name_token.text
        if relation.startswith("?"):
            raise ParseError(
                f"relation name cannot start with '?' at position {name_token.position}"
            )
        self._expect("LPAREN")
        terms: list[Term] = []
        if self._accept("RPAREN") is None:
            while True:
                terms.append(self._parse_term())
                if self._accept("COMMA"):
                    continue
                self._expect("RPAREN")
                break
        return Atom(relation, tuple(terms), kind, optional)

    def _parse_term(self) -> Term:
        token = self._next()
        if token.kind == "STRING":
            return Constant(_unquote(token.text))
        if token.kind == "NUMBER":
            text = token.text
            return Constant(float(text) if "." in text else int(text))
        if token.kind == "MINUS":
            number = self._expect("NUMBER")
            value = float(number.text) if "." in number.text else int(number.text)
            return Constant(-value)
        if token.kind == "NAME":
            return _term_from_name(token.text)
        raise ParseError(
            f"expected a term but found {token.text!r} at position {token.position}"
        )


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")


def _term_from_name(name: str) -> Term:
    if name.startswith("?"):
        return Variable(name[1:])
    lowered = name.lower()
    if lowered == "true":
        return Constant(True)
    if lowered == "false":
        return Constant(False)
    if lowered in ("null", "none"):
        return Constant(None)
    if name[0].islower() or name[0] == "_":
        return Variable(name)
    return Constant(name)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_transaction(
    text: str,
    *,
    transaction_id: int | None = None,
    client: str | None = None,
    partner: str | None = None,
) -> ResourceTransaction:
    """Parse a Datalog-like resource transaction.

    Args:
        text: the transaction text (see module docstring for the syntax).
        transaction_id: explicit id (auto-assigned when omitted).
        client: requesting user name.
        partner: coordination partner (entangled transactions).

    Raises:
        ParseError: on any syntax error.
        InvalidTransactionError: if the parsed transaction violates a
            structural rule (e.g. range restriction).
    """
    tokens = _tokenize(text)
    updates, choose, body = _Parser(tokens, text).parse()
    kwargs: dict[str, Any] = {
        "body": body,
        "updates": updates,
        "choose": choose,
        "client": client,
        "partner": partner,
    }
    if transaction_id is not None:
        kwargs["transaction_id"] = transaction_id
    return ResourceTransaction(**kwargs)


def format_term(term: Term) -> str:
    """Format a term so that :func:`parse_transaction` round-trips it."""
    if isinstance(term, Variable):
        return f"?{term.name}"
    value = term.value
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def format_atom(atom: Atom) -> str:
    """Format an atom in the textual notation (without the optional brackets)."""
    prefix = {AtomKind.BODY: "", AtomKind.INSERT: "+", AtomKind.DELETE: "-"}[atom.kind]
    inner = ", ".join(format_term(t) for t in atom.terms)
    return f"{prefix}{atom.relation}({inner})"


def format_transaction(transaction: ResourceTransaction) -> str:
    """Format a transaction so that :func:`parse_transaction` round-trips it."""
    updates = ", ".join(format_atom(a) for a in transaction.updates)
    body_parts = []
    for atom in transaction.body:
        text = format_atom(atom)
        body_parts.append(f"[{text}]" if atom.optional else text)
    body = ", ".join(body_parts)
    return f"{updates} :-{transaction.choose} {body}"
