"""Tests for the grounding search over the relational store."""

from __future__ import annotations

import pytest

from repro.errors import GroundingError
from repro.logic.atoms import Atom
from repro.logic.formula import (
    AtomFormula,
    Equality,
    Negation,
    conjunction,
    disjunction,
)
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.relational.database import Database
from repro.solver.grounding import GroundingSearch

F, S, S2, P = Variable("f"), Variable("s"), Variable("s2"), Variable("p")


@pytest.fixture
def db() -> Database:
    database = Database()
    database.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    database.create_table("Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"])
    database.create_table("Adjacent", ["flight", "seat1", "seat2"], key=["flight", "seat1", "seat2"])
    for seat in ("1A", "1B", "1C"):
        database.insert("Available", (1, seat))
    database.insert("Bookings", ("Goofy", 1, "1B"))
    for left, right in (("1A", "1B"), ("1B", "1A"), ("1B", "1C"), ("1C", "1B")):
        database.insert("Adjacent", (1, left, right))
    return database


def atom(relation, terms):
    return AtomFormula(Atom.body(relation, terms))


class TestBasicSearch:
    def test_single_atom(self, db):
        search = GroundingSearch(db)
        result = search.find_one(atom("Available", [F, S]))
        assert result.satisfiable
        valuation = result.valuation()
        assert valuation["f"] == 1 and valuation["s"] in {"1A", "1B", "1C"}

    def test_unsatisfiable(self, db):
        search = GroundingSearch(db)
        assert not search.find_one(atom("Available", [2, S])).satisfiable
        assert not search.exists(atom("Available", [2, S]))

    def test_missing_table_is_unsatisfiable(self, db):
        search = GroundingSearch(db)
        assert not search.exists(atom("Nope", [S]))

    def test_require_raises(self, db):
        with pytest.raises(GroundingError):
            GroundingSearch(db).require(atom("Available", [2, S]))

    def test_join_through_shared_variable(self, db):
        search = GroundingSearch(db)
        formula = conjunction(
            [
                atom("Bookings", ["Goofy", F, S2]),
                atom("Adjacent", [F, S, S2]),
                atom("Available", [F, S]),
            ]
        )
        result = search.find_one(formula)
        assert result.satisfiable
        assert result.valuation()["s"] in {"1A", "1C"}

    def test_find_all_enumerates_distinct_groundings(self, db):
        search = GroundingSearch(db)
        results = search.find_all(atom("Available", [1, S]), required=[S])
        assert {r.valuation()["s"] for r in results} == {"1A", "1B", "1C"}

    def test_limit(self, db):
        search = GroundingSearch(db)
        results = list(search.find(atom("Available", [1, S]), limit=2))
        assert len(results) == 2


class TestFormulaFeatures:
    def test_equality_binds(self, db):
        search = GroundingSearch(db)
        formula = conjunction([atom("Available", [F, S]), Equality(S, Constant("1C"))])
        result = search.find_one(formula)
        assert result.satisfiable and result.valuation()["s"] == "1C"

    def test_negated_equality_excludes(self, db):
        search = GroundingSearch(db)
        formula = conjunction(
            [
                atom("Available", [1, S]),
                Negation(Equality(S, Constant("1A"))),
                Negation(Equality(S, Constant("1B"))),
            ]
        )
        result = search.find_one(formula, required=[S])
        assert result.satisfiable and result.valuation()["s"] == "1C"

    def test_negated_conjunction_all_different(self, db):
        search = GroundingSearch(db)
        formula = conjunction(
            [
                atom("Available", [1, S]),
                atom("Available", [1, S2]),
                Negation(Equality(S, S2)),
            ]
        )
        result = search.find_one(formula, required=[S, S2])
        assert result.satisfiable
        assert result.valuation()["s"] != result.valuation()["s2"]

    def test_disjunction_falls_back_to_second_branch(self, db):
        search = GroundingSearch(db)
        # First branch impossible (flight 2 empty); equality branch works.
        formula = conjunction(
            [
                atom("Available", [1, S2]),
                disjunction([atom("Available", [2, S]), Equality(S, S2)]),
            ]
        )
        result = search.find_one(formula, required=[S, S2])
        assert result.satisfiable
        assert result.valuation()["s"] == result.valuation()["s2"]

    def test_composition_style_formula(self, db):
        # Body of T12 from Figure 3: B(M,1,s1) ∧ (A(f2,s2) ∨ (f2=1 ∧ s1=s2)).
        s1, f2, s2 = Variable("s1"), Variable("f2"), Variable("s2")
        db2 = Database()
        db2.create_table("B", ["p", "f", "s"], key=["f", "s"])
        db2.create_table("A", ["f", "s"], key=["f", "s"])
        db2.insert("B", ("M", 1, "9Z"))
        formula = conjunction(
            [
                atom("B", ["M", 1, s1]),
                disjunction(
                    [
                        atom("A", [f2, s2]),
                        conjunction([Equality(f2, Constant(1)), Equality(s1, s2)]),
                    ]
                ),
            ]
        )
        result = GroundingSearch(db2).find_one(formula, required=[s1, f2, s2])
        # A is empty, so the only grounding goes through the unification
        # predicate: Donald takes the seat Mickey's cancellation frees up.
        assert result.satisfiable
        valuation = result.valuation()
        assert valuation == {"s1": "9Z", "f2": 1, "s2": "9Z"}

    def test_initial_substitution_respected(self, db):
        search = GroundingSearch(db)
        initial = Substitution({S: Constant("1B")})
        result = search.find_one(atom("Available", [1, S]), initial=initial)
        assert result.satisfiable and result.valuation()["s"] == "1B"
        conflicting = Substitution({S: Constant("9Z")})
        assert not search.find_one(atom("Available", [1, S]), initial=conflicting).satisfiable

    def test_required_variable_must_be_ground(self, db):
        search = GroundingSearch(db)
        # S2 appears nowhere in the formula, so no grounding can bind it.
        result = search.find_one(atom("Available", [1, S]), required=[S, S2])
        assert not result.satisfiable

    def test_statistics_reported(self, db):
        search = GroundingSearch(db)
        result = search.find_one(atom("Available", [1, S]))
        assert result.statistics.rows_examined >= 1

    def test_undo_depth_is_the_deepest_trail(self, db):
        # A chain of three joined atoms binds f and s, then s2: the trail
        # is three bindings deep at the leaf, on every entry point.
        chain = conjunction(
            [atom("Available", [F, S]), atom("Adjacent", [F, S, S2]), atom("Available", [F, S2])]
        )
        search = GroundingSearch(db)
        assert search.find_one(chain).statistics.undo_depth >= 3
        assert search.totals.undo_depth >= 3
        probe = GroundingSearch(db)
        assert probe.exists(chain) and probe.totals.undo_depth >= 3
        first = next(GroundingSearch(db).find(chain))
        assert first.statistics.undo_depth >= 3
