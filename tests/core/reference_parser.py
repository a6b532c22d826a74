"""The transaction parser as it was written before the one-pass rewrite.

A frozen copy of ``repro.core.parser``'s ``_tokenize`` / ``_Parser``
(one ``re.match`` per token, a ``_Token`` object each, a recursive-descent
walk through ``_peek`` / ``_next`` / ``_expect``, atoms through the
checking constructor).  ``test_parser_differential.py`` holds
``parse_transaction`` to it: the same acceptance, the same atoms, the same
constant types and, on a ``ParseError``, the same message.  It reads only
the logic layer's public constructors, so it shares no code with the
parser it checks.  Do not edit it to match a change of the parser: a
disagreement is a bug in the change.
"""

from __future__ import annotations

import re

from repro.errors import ParseError
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


def reference_parse(text: str) -> tuple[tuple[Atom, ...], int, tuple[Atom, ...]]:
    """``(updates, choose, body)`` of ``text``, or the old parser's ``ParseError``."""
    return _Parser(_tokenize(text), text).parse()
