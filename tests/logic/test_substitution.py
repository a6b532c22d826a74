"""Tests for substitutions: application, composition, merging."""

from __future__ import annotations

import pytest

from repro.errors import SubstitutionError
from repro.logic.atoms import Atom
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable


X, Y, Z = Variable("x"), Variable("y"), Variable("z")


class TestBasics:
    def test_empty(self):
        theta = Substitution.empty()
        assert len(theta) == 0
        assert theta.apply_term(X) == X

    def test_identity_bindings_dropped(self):
        theta = Substitution({X: X})
        assert len(theta) == 0

    def test_plain_values_coerced(self):
        theta = Substitution({X: 5})
        assert theta[X] == Constant(5)

    def test_non_variable_key_rejected(self):
        with pytest.raises(SubstitutionError):
            Substitution({"x": 5})  # type: ignore[dict-item]

    def test_from_valuation_and_back(self):
        theta = Substitution.from_valuation({"x": 1, "y": "a"})
        assert theta.as_valuation() == {"x": 1, "y": "a"}

    def test_as_valuation_requires_ground(self):
        theta = Substitution({X: Y})
        with pytest.raises(SubstitutionError):
            theta.as_valuation()

    def test_is_ground(self):
        assert Substitution({X: 1}).is_ground()
        assert not Substitution({X: Y}).is_ground()


class TestApplication:
    def test_apply_chases_chains(self):
        theta = Substitution({X: Y, Y: Constant(3)})
        assert theta.apply_term(X) == Constant(3)

    def test_apply_atom(self):
        theta = Substitution({X: 1, Y: "a"})
        atom = Atom.body("R", [X, Y, Z])
        applied = theta.apply_atom(atom)
        assert applied.terms == (Constant(1), Constant("a"), Z)

    def test_callable_shorthand(self):
        theta = Substitution({X: 1})
        assert theta(X) == Constant(1)
        assert theta(Atom.body("R", [X])).is_ground()


class TestCombination:
    def test_bind_conflict_detected(self):
        theta = Substitution({X: 1})
        with pytest.raises(SubstitutionError):
            theta.bind(X, 2)

    def test_bind_same_value_ok(self):
        theta = Substitution({X: 1})
        assert theta.bind(X, 1) == theta

    def test_restrict(self):
        theta = Substitution({X: 1, Y: 2})
        restricted = theta.restrict([X])
        assert X in restricted and Y not in restricted

    def test_equality_and_hash(self):
        assert Substitution({X: 1}) == Substitution({X: 1})
        assert hash(Substitution({X: 1})) == hash(Substitution({X: 1}))
        assert Substitution({X: 1}) != Substitution({X: 2})
