"""Tests for most general unifiers and unification predicates (Defs 3.2/3.3)."""

from __future__ import annotations


from repro.logic.atoms import Atom
from repro.logic.formula import Conjunction, Equality, FALSE, TRUE
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.logic.unification import (
    most_general_unifier,
    unifiable,
    unification_predicate,
    unify_terms,
)

V1, V2, V3, V4 = (Variable(f"v{i}") for i in range(1, 5))


class TestUnifyTerms:
    def test_variable_to_constant(self):
        theta = unify_terms(V1, Constant(5))
        assert theta is not None and theta[V1] == Constant(5)

    def test_constant_clash(self):
        assert unify_terms(Constant(1), Constant(2)) is None

    def test_respects_existing_bindings(self):
        theta = Substitution({V1: 1})
        assert unify_terms(V1, Constant(2), theta) is None
        extended = unify_terms(V1, Constant(1), theta)
        assert extended == theta


class TestMGU:
    def test_paper_example(self):
        # mgu of R(1, v1, v2) and R(v3, 2, v4) is {v1/2, v2/v4, v3/1}.
        left = Atom.body("R", [1, V1, V2])
        right = Atom.body("R", [V3, 2, V4])
        theta = most_general_unifier(left, right)
        assert theta is not None
        assert theta.apply_term(V1) == Constant(2)
        assert theta.apply_term(V3) == Constant(1)
        assert theta.apply_term(V2) == theta.apply_term(V4)

    def test_different_relations(self):
        assert most_general_unifier(Atom.body("R", [V1]), Atom.body("S", [V1])) is None

    def test_different_arities(self):
        assert most_general_unifier(Atom.body("R", [V1]), Atom.body("R", [V1, V2])) is None

    def test_constant_clash(self):
        assert most_general_unifier(Atom.body("R", [1]), Atom.body("R", [2])) is None

    def test_mgu_is_most_general(self):
        # Any other unifier factors through the mgu (Definition 3.2).
        left = Atom.body("R", [V1, V2])
        right = Atom.body("R", [V3, 5])
        theta = most_general_unifier(left, right)
        assert theta is not None
        # A specific unifier: v1=v3=7, v2=5.
        nu = Substitution({V1: 7, V3: 7, V2: 5})
        nu_prime = Substitution({V1: 7, V3: 7})
        # ν = ν' ∘ θ: applying θ, then ν', maps every variable as ν does.
        for var in (V1, V2, V3):
            assert nu_prime.apply_term(theta.apply_term(var)) == nu.apply_term(var)
        assert nu.apply_atom(left) == nu.apply_atom(right)

    def test_repeated_variables(self):
        left = Atom.body("R", [V1, V1])
        right = Atom.body("R", [1, 2])
        assert most_general_unifier(left, right) is None
        right_ok = Atom.body("R", [1, 1])
        assert most_general_unifier(left, right_ok) is not None


class TestUnificationPredicate:
    def test_paper_example_predicate(self):
        left = Atom.body("R", [1, V1, V2])
        right = Atom.body("R", [V3, 2, V4])
        predicate = unification_predicate(left, right)
        assert isinstance(predicate, (Conjunction, Equality))
        equalities = (
            predicate.parts if isinstance(predicate, Conjunction) else (predicate,)
        )
        rendered = {repr(eq) for eq in equalities}
        assert len(equalities) == 3
        assert any("v1" in r and "2" in r for r in rendered)
        assert any("v3" in r and "1" in r for r in rendered)

    def test_trivially_false_when_not_unifiable(self):
        assert unification_predicate(Atom.body("R", [1]), Atom.body("R", [2])) is FALSE
        assert unification_predicate(Atom.body("R", [1]), Atom.body("S", [1])) is FALSE

    def test_trivially_true_for_identical_ground_atoms(self):
        assert unification_predicate(Atom.body("R", [1, "a"]), Atom.body("R", [1, "a"])) is TRUE


class TestHelpers:
    def test_unifiable(self):
        assert unifiable(Atom.body("R", [V1]), Atom.body("R", [5]))
        assert not unifiable(Atom.body("R", [1]), Atom.body("R", [2]))

