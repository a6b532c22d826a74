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
  ``null`` — or variables.  A number with a ``.`` or an exponent
  (``2.5``, ``1e+20``, ``1.5e-07``) is a float, any other an int; a
  non-finite float (``inf``, ``nan``) has no notation.  A bare identifier
  starting with a lowercase letter is a variable; an identifier starting
  with an uppercase letter is a constant string (so ``Mickey`` works
  unquoted); a ``?``-prefixed identifier is always a variable regardless
  of case.

:func:`format_transaction` produces text that :func:`parse_transaction`
round-trips exactly.  The notation is the human-facing and the wire form;
the pending-transactions table stores the JSON form of
:mod:`repro.core.recovery` and still parses rows written in this notation.
"""

from __future__ import annotations

import math
import re
from typing import Any

from repro.errors import InvalidTransactionError, ParseError
from repro.core.resource_transaction import ResourceTransaction
from repro.logic.atoms import Atom, AtomKind
from repro.logic.terms import Constant, Term, Variable

#: One alternative per token class, each its own group, after optional
#: whitespace: ``re.findall`` returns one tuple per token with only the
#: matched class's slot non-empty.  The last group takes any other character,
#: so a character no token starts with is a token too and fails the walk.
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(:-\s*\d+)"  # CHOOSE
    r"|('(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")"  # STRING
    r"|(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"  # NUMBER
    r"|(\??[A-Za-z_][A-Za-z_0-9]*)"  # NAME
    r"|([-+()\[\],])"  # punctuation
    r"|(\S))"  # anything else
)
_CHOOSE, _STRING, _NUMBER, _NAME, _PUNCT, _OTHER = range(6)
#: Stands after the last token, so that the walk never reads past the list.
_NO_TOKEN = ("",) * 6

_UPDATE_KINDS = {"+": AtomKind.INSERT, "-": AtomKind.DELETE}
_EXPECTED = "expected {kind} but found {found} at position {position} in {source}"


def _error(text: str, index: int, message: str, kind: str = "") -> ParseError:
    """The error for token ``index`` of ``text``; ``message`` is a template.

    A character no token starts with is reported first, wherever it is
    (the text is a token list before the grammar is checked), and a token
    expected past the end is "unexpected end of input".  The token's text
    and position come from a second scan, so that the walk carries neither.
    """
    found, position = None, 0
    for number, match in enumerate(_TOKEN_RE.finditer(text)):
        group = match.lastindex
        if group == _OTHER + 1:
            return ParseError(
                f"unexpected character {match.group(group)!r} at position "
                f"{match.start(group)}"
            )
        if number == index:
            found, position = match.group(group), match.start(group)
    if found is None and "{found}" in message:
        message = "unexpected end of input in {source}"
    return ParseError(
        message.format(
            kind=kind, found=repr(found), position=position, source=repr(text)
        )
    )


def _number(text: str) -> int | float:
    return float(text) if "." in text or "e" in text or "E" in text else int(text)


def _walk(text: str) -> tuple[tuple[Atom, ...], int, tuple[Atom, ...]]:
    """Updates, CHOOSE value and body of ``text``: one index walk of the tokens.

    Terms are built once per distinct token text (never per value:
    ``Constant(1) == Constant(True)``), and atoms :meth:`Atom.unchecked`:
    the grammar already makes the relation a name and OPTIONAL a body flag.
    """
    tokens = _TOKEN_RE.findall(text)
    end = len(tokens)
    tokens.append(_NO_TOKEN)
    terms: dict[str, Term] = {}

    def atom(i: int, kind: AtomKind, optional: bool) -> tuple[Atom, int]:
        relation = tokens[i][_NAME]
        if not relation:
            raise _error(text, i, _EXPECTED, "NAME")
        if relation[0] == "?":
            raise _error(
                text, i, "relation name cannot start with '?' at position {position}"
            )
        i += 1
        if tokens[i][_PUNCT] != "(":
            raise _error(text, i, _EXPECTED, "LPAREN")
        i += 1
        args: list[Term] = []
        if tokens[i][_PUNCT] == ")":
            return Atom.unchecked(relation, (), kind, optional), i + 1
        while True:
            token = tokens[i]
            key = token[_NAME] or token[_NUMBER] or token[_STRING]
            if key:
                term = terms.get(key)
                if term is None:
                    if token[_NAME]:
                        term = _term_from_name(key)
                    elif token[_NUMBER]:
                        term = Constant(_number(key))
                    else:
                        term = Constant(_unquote(key))
                    terms[key] = term
            elif token[_PUNCT] == "-":
                i += 1
                if not tokens[i][_NUMBER]:
                    raise _error(text, i, _EXPECTED, "NUMBER")
                term = Constant(-_number(tokens[i][_NUMBER]))
            else:
                raise _error(
                    text, i, "expected a term but found {found} at position {position}"
                )
            args.append(term)
            i += 1
            if tokens[i][_PUNCT] == ",":
                i += 1
                continue
            if tokens[i][_PUNCT] != ")":
                raise _error(text, i, _EXPECTED, "RPAREN")
            return Atom.unchecked(relation, tuple(args), kind, optional), i + 1

    updates: list[Atom] = []
    i = 0
    while True:
        if i == end:
            raise _error(text, i, "missing ':-1' separator")
        token = tokens[i]
        if token[_CHOOSE]:
            break
        kind = _UPDATE_KINDS.get(token[_PUNCT])
        if kind is None:
            raise _error(
                text,
                i,
                "update atoms must start with '+' or '-', found {found} at position "
                "{position}",
            )
        update, i = atom(i + 1, kind, False)
        updates.append(update)
        if tokens[i][_PUNCT] == ",":
            i += 1
    choose = int(token[_CHOOSE][2:])
    i += 1
    body: list[Atom] = []
    while i < end:
        if tokens[i][_PUNCT] == "[":
            member, i = atom(i + 1, AtomKind.BODY, True)
            if tokens[i][_PUNCT] != "]":
                raise _error(text, i, _EXPECTED, "RBRACKET")
            i += 1
        else:
            member, i = atom(i, AtomKind.BODY, False)
        body.append(member)
        if tokens[i][_PUNCT] == ",":
            i += 1
        else:
            break
    if not body:
        raise _error(text, i, "a resource transaction body cannot be empty")
    if i < end:
        raise _error(
            text, i, "unexpected trailing input {found} at position {position}"
        )
    return tuple(updates), choose, tuple(body)


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
    updates, choose, body = _walk(text)
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
    """Format a term so that :func:`parse_transaction` round-trips it.

    Raises:
        InvalidTransactionError: for a non-finite float, which has no
            notation (a bare ``inf`` would read back as a variable).
    """
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
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidTransactionError(
            f"the notation has no form for the float {value!r}"
        )
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
