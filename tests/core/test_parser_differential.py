"""``parse_transaction`` against the parser it replaced.

``reference_parser.py`` keeps the old tokenizer and recursive-descent
parser verbatim.  On a seeded corpus — generated transactions over every
term kind, their whitespace variants, and every single-character deletion
and duplication of a few of them — both must accept the same texts with
equal updates, body, CHOOSE value and constant types, and reject the same
texts with the same exception type and, for a ``ParseError``, the same
message (so the same character position).

The one intended difference is an exponent-form number (``1e+20``,
``1.5e-07``), which the old grammar rejected: there the new parser must
give exactly what the old one gives for the same number written out in
positional notation.
"""

from __future__ import annotations

import random
from decimal import Decimal

import pytest

from reference_parser import reference_parse
from repro.core.parser import parse_transaction
from repro.core.resource_transaction import ResourceTransaction
from repro.errors import InvalidTransactionError, ParseError
from repro.logic.terms import Constant

SEED = 34

#: Term texts by kind.  No name starts with ``e`` / ``E``, so no deletion
#: in a generated text can glue a number and a name into an exponent.
TERMS = {
    "single-quoted": ["'Mickey'", r"'O\'Hare'", r"'back\\slash'", r"'say \"hi\"'", "''"],
    "double-quoted": ['"5A"', r'"it\'s"', r'"q \" q"', r'"\\"', "\"it's\""],
    "int": ["0", "7", "108", "-4", "-0", "123456789012345678901"],
    "float": ["2.5", "-0.5", "0.0", "10.25", "-3.125"],
    "minus": ["- 3", "- 0", "- 2.5", "-\t7"],
    "keyword": ["true", "True", "TRUE", "false", "False", "null", "None", "NULL"],
    "bare constant": ["Mickey", "Goofy", "A1", "B_2", "Z"],
    "?-variable": ["?s", "?Seat", "?x_1", "?_t", "?s2"],
    "lowercase variable": ["x", "seat", "s2", "f1", "_y"],
}
RELATIONS = ["R", "Available", "Bookings", "Adjacent", "T_2", "lower"]


def _atom(rng: random.Random, pool: list[str], sep: str) -> str:
    terms = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
    return f"{rng.choice(RELATIONS)}({sep.join(terms)})"


def generated_text(rng: random.Random) -> str:
    """A transaction over a pool of terms; most of them range restricted."""
    kinds = list(TERMS)
    pool = [rng.choice(TERMS[rng.choice(kinds)]) for _ in range(rng.randint(1, 5))]
    sep = rng.choice([", ", ",", " , "])
    body = [_atom(rng, pool, sep) for _ in range(rng.randint(0, 3))]
    body.append(f"All({sep.join(pool)})")
    rng.shuffle(body)
    body = [f"[{atom}]" if rng.random() < 0.3 else atom for atom in body]
    if rng.random() < 0.1:
        pool = pool + ["dangling"]
    updates = [rng.choice("+-") + _atom(rng, pool, sep) for _ in range(rng.randint(1, 3))]
    choose = rng.choice([":-1", ":-1", ":-1", ":- 1", ":-01", ":-2"])
    return f"{sep.join(updates)} {choose} {sep.join(body)}"


def whitespace_variants(text: str) -> list[str]:
    return [
        text.replace(" ", "\t"),
        text.replace(" ", "\n"),
        text.replace(" ", ""),
        f"  {text.replace(', ', ' ,  ')}\n",
    ]


def single_character_edits(text: str) -> list[str]:
    deletions = [text[:i] + text[i + 1 :] for i in range(len(text))]
    duplications = [text[: i + 1] + text[i:] for i in range(len(text))]
    return deletions + duplications


def _generated() -> list[str]:
    rng = random.Random(SEED)
    return [generated_text(rng) for _ in range(300)]


GENERATED = _generated()
#: Texts the generator does not reach: quirks of the old grammar, kept.
CORNERS = [
    "",
    "   ",
    ":-1",
    "+R(x) :-1",
    "+R(x) :-1 S(x),",
    "+R(x) +S(x) :-1 S(x)",
    "+R(x), :-1 S(x)",
    "+R() :-1 S()",
    "+R(- -3) :-1 S(x)",
    "+R(-) :-1 S(x)",
    "+R(- x) :-1 S(x)",
    "+R(1) :-1e5(x)",
    "+R(1e) :-1 S(x)",
    "+R(1.) :-1 S(x)",
    "+R(1e+) :-1 S(x)",
    "+R(.5) :-1 S(x)",
    "+R(x) :-1 S(x) T(x)",
    "+R(x) :-1 [S(x)",
    "+R(x) :-1 [S(x)] ]",
    "+R(x) :-1 S(x)] ",
    "+R(x, :-1 S(x)",
    "+R(x) :-1 S(x, @)",
    "+R(?) :-1 S(x)",
    "+?R(x) :-1 S(x)",
    "+R(x) :-1 ?S(x)",
    "+R('x) :-1 S(x)",
    "*R(x) :-1 S(x) $",
    "R(x) :-1 S(x) $",
    "+R(x) :- \n 1 S(x)",
    "+R(x) :-3 S(x)",
    "+R(x) :-1 S(x), [+T(x)]",
    "+R(\u0663) :-1 S(x)",
    "+R(\u0663.\u0665) :-1 S(x)",
]
EDITED = [
    "-Available(f1, s1), +Bookings('Mickey', f1, s1) "
    ":-1 Available(f1, s1), [Bookings('Goofy', f1, s2)], [Adjacent(s1, s2)]",
    r"""+R(?x, 'O\'Hare', - 3, 2.5) :-1 S(?x, "q", true, None)""",
] + GENERATED[:4]


def outcome(parse, text: str):
    """``("ok", (updates, choose, body))`` or ``(exception type, message)``."""
    try:
        return "ok", parse(text)
    except (ParseError, InvalidTransactionError) as error:
        return type(error), str(error)


def new_parse(text: str):
    transaction = parse_transaction(text)
    return transaction.updates, transaction.choose, transaction.body


def old_parse(text: str):
    updates, choose, body = reference_parse(text)
    transaction = ResourceTransaction(body=body, updates=updates, choose=choose)
    return transaction.updates, transaction.choose, transaction.body


def constant_types(parsed) -> list:
    updates, _choose, body = parsed
    return [
        (type(term), type(term.value) if isinstance(term, Constant) else None)
        for atom in updates + body
        for term in atom.terms
    ]


def disagreement(text: str) -> str | None:
    new, old = outcome(new_parse, text), outcome(old_parse, text)
    if new[0] != old[0]:
        return f"{text!r}: new {new}, old {old}"
    if new[0] == "ok":
        if new[1] != old[1]:
            return f"{text!r}: new {new[1]}, old {old[1]}"
        if constant_types(new[1]) != constant_types(old[1]):
            return f"{text!r}: constant types differ"
        if any(type(atom.terms) is not tuple for atom in new[1][0] + new[1][2]):
            return f"{text!r}: terms not a tuple"
    elif new[1] != old[1]:
        return f"{text!r}: new message {new[1]!r}, old {old[1]!r}"
    return None


def assert_agree(texts: list[str]) -> None:
    failures = [d for d in map(disagreement, texts) if d is not None]
    assert not failures, f"{len(failures)} of {len(texts)} disagree:\n" + "\n".join(
        failures[:5]
    )


def test_corpus_reaches_every_outcome():
    corpus = GENERATED + CORNERS + [v for t in GENERATED for v in whitespace_variants(t)]
    corpus += [e for t in EDITED for e in single_character_edits(t)]
    kinds = {outcome(new_parse, text)[0] for text in corpus}
    assert kinds == {"ok", ParseError, InvalidTransactionError}
    accepted = [text for text in GENERATED if outcome(new_parse, text)[0] == "ok"]
    for kind, forms in TERMS.items():
        assert any(form in text for text in accepted for form in forms), kind


def test_generated_transactions_agree():
    assert_agree(GENERATED)


def test_grammar_corners_agree():
    assert_agree(CORNERS)


def test_whitespace_variants_agree():
    assert_agree([v for text in GENERATED for v in whitespace_variants(text)])


@pytest.mark.parametrize("index", range(len(EDITED)))
def test_single_character_edits_agree(index):
    assert_agree(single_character_edits(EDITED[index]))


def positional(value: float) -> str:
    """``value`` without an exponent: the exact decimal, always with a point."""
    text = format(Decimal(value), "f")
    return text if "." in text else f"{text}.0"


@pytest.mark.parametrize(
    "value", [1e20, 1.5e-07, -2.5e-300, 1.7976931348623157e308, 5e-324, 1e16, -1e22]
)
def test_exponent_numbers_are_the_only_newly_accepted_texts(value):
    template = "+R(?x, {0}) :-1 S(?x, {0}), [T({0}, 'e')]"
    token = repr(value)
    assert "e" in token
    text, written_out = template.format(token), template.format(positional(value))
    assert outcome(old_parse, text)[0] is ParseError
    assert outcome(new_parse, text) == outcome(old_parse, written_out)
    (_x, term) = parse_transaction(text).updates[0].terms
    assert term == Constant(float(token)) and type(term.value) is float
