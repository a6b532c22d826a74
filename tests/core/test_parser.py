"""Tests for the Datalog-like transaction parser and formatter."""

from __future__ import annotations

import math

import pytest

from repro.core.parser import format_transaction, parse_transaction
from repro.core.resource_transaction import ResourceTransaction
from repro.errors import InvalidTransactionError, ParseError
from repro.logic.atoms import Atom, AtomKind
from repro.logic.terms import Constant, Variable

MICKEY = (
    "-Available(f1, s1), +Bookings('Mickey', f1, s1) "
    ":-1 Available(f1, s1), [Bookings('Goofy', f1, s2)], [Adjacent(s1, s2)]"
)


class TestParsing:
    def test_paper_running_example(self):
        txn = parse_transaction(MICKEY)
        assert len(txn.updates) == 2
        assert txn.updates[0].kind is AtomKind.DELETE
        assert txn.updates[1].kind is AtomKind.INSERT
        assert txn.updates[1].terms[0] == Constant("Mickey")
        assert len(txn.body) == 3
        assert [a.optional for a in txn.body] == [False, True, True]
        assert txn.choose == 1

    def test_lowercase_identifiers_are_variables(self):
        txn = parse_transaction("+R(x, y) :-1 S(x, y)")
        assert txn.body[0].terms == (Variable("x"), Variable("y"))

    def test_uppercase_identifiers_are_constants(self):
        txn = parse_transaction("+R(Mickey, x) :-1 S(Mickey, x)")
        assert txn.body[0].terms[0] == Constant("Mickey")

    def test_question_mark_forces_variable(self):
        txn = parse_transaction("+R(?Seat) :-1 S(?Seat)")
        assert txn.body[0].terms[0] == Variable("Seat")

    def test_numeric_and_boolean_literals(self):
        txn = parse_transaction("+R(123, -4, 2.5, true, null) :-1 S(x)")
        values = [t.value for t in txn.updates[0].terms]
        assert values == [123, -4, 2.5, True, None]

    def test_quoted_strings_with_escapes(self):
        txn = parse_transaction(r"+R('O\'Hare') :-1 S(x)")
        assert txn.updates[0].terms[0] == Constant("O'Hare")

    def test_metadata_passthrough(self):
        txn = parse_transaction(
            "+R(x) :-1 S(x)", transaction_id=77, client="Mickey", partner="Goofy"
        )
        assert txn.transaction_id == 77
        assert txn.client == "Mickey"
        assert txn.partner == "Goofy"


class TestLiteralTerms:
    """Each constant term of the textual notation, parsed on its own."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("'Mickey'", "Mickey"),
            ('"5A"', "5A"),
            ("42", 42),
            ("-3", -3),
            ("3.5", 3.5),
            ("-0.5", -0.5),
            ("true", True),
            ("False", False),
            ("null", None),
            ("None", None),
            ("Mickey", "Mickey"),
        ],
    )
    def test_constant(self, text, expected):
        (term,) = parse_transaction(f"+R({text}) :-1 S(x)").updates[0].terms
        assert term == Constant(expected)
        assert type(term.value) is type(expected)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",  # nothing at all
            "+R(x) S(x)",  # missing :-1
            "R(x) :-1 S(x)",  # update atom without +/-
            "+R(x) :-1",  # empty body
            "+R(x :-1 S(x)",  # unbalanced parenthesis
            "+R(x) :-1 S(x) trailing(",  # trailing garbage
            "+?R(x) :-1 S(x)",  # ? on a relation name
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_transaction(text)

    def test_range_restriction_enforced(self):
        with pytest.raises(InvalidTransactionError):
            parse_transaction("+R(x, y) :-1 S(x)")

    def test_choose_other_than_one_rejected(self):
        with pytest.raises(InvalidTransactionError):
            parse_transaction("+R(x) :-2 S(x)")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            MICKEY,
            "+R(x) :-1 S(x)",
            "-A(2, s3), +B('G', 2, s3) :-1 A(2, s3)",
            "+R('it''s', 3.5, true) :-1 S(x)".replace("''", r"\'"),
        ],
    )
    def test_format_then_parse(self, text):
        original = parse_transaction(text)
        rendered = format_transaction(original)
        reparsed = parse_transaction(rendered)
        assert reparsed.body == original.body
        assert reparsed.updates == original.updates
        assert reparsed.choose == original.choose

    def test_exponent_form_floats_round_trip(self):
        values = [1e20, 1.5e-07, -2.5e-300, 1.7976931348623157e308, 5e-324]
        original = ResourceTransaction(
            body=(Atom.body("S", [Variable("x"), *values]),),
            updates=(Atom.insert("R", [Variable("x")]),),
        )
        rendered = format_transaction(original)
        assert "1e+20" in rendered and "1.5e-07" in rendered
        reparsed = parse_transaction(rendered)
        assert reparsed.body == original.body
        assert [type(t.value) for t in reparsed.body[0].terms[1:]] == [float] * len(values)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_has_no_notation(self, value):
        original = ResourceTransaction(
            body=(Atom.body("S", [Variable("x"), value]),),
            updates=(Atom.insert("R", [Variable("x")]),),
        )
        with pytest.raises(InvalidTransactionError, match=repr(value)):
            format_transaction(original)

    def test_format_preserves_optional_brackets(self):
        rendered = format_transaction(parse_transaction(MICKEY))
        assert rendered.count("[") == 2
