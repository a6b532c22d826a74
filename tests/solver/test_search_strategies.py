"""Tests for the admission-search configuration and the search it bounds.

Covers the :class:`AdmissionSearchConfig` API, the kernel's undoable
binding store, and ``find_one``'s initial substitution and node budget.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.errors import QuantumError
from repro.logic.atoms import Atom
from repro.logic.formula import AtomFormula, conjunction
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.relational.database import Database
from repro.solver.grounding import GroundingSearch
from repro.solver.kernel import Run, compile_formula
from repro.solver.strategy import AdmissionSearchConfig

F, S, S2 = (Variable(n) for n in ("f", "s", "s2"))


def atom(relation, terms):
    return AtomFormula(Atom.body(relation, terms))


@pytest.fixture
def db() -> Database:
    database = Database()
    database.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    database.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    database.create_table(
        "Adjacent", ["flight", "seat1", "seat2"], key=["flight", "seat1", "seat2"]
    )
    for seat in ("1A", "1B", "1C"):
        database.insert("Available", (1, seat))
    database.insert("Bookings", ("Goofy", 1, "1B"))
    for left, right in (("1A", "1B"), ("1B", "1A"), ("1B", "1C"), ("1C", "1B")):
        database.insert("Adjacent", (1, left, right))
    return database


# ---------------------------------------------------------------------------
# Config validation (the redesigned API surface)
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_default_is_seed_behaviour(self):
        config = AdmissionSearchConfig()
        assert config.node_budget is None
        # The node budget is the one value an admission search takes.
        assert [field.name for field in fields(config)] == ["node_budget"]

    @pytest.mark.parametrize("budget", [0, -1, 1.5, "10", True])
    def test_bad_node_budget_rejected(self, budget):
        with pytest.raises(QuantumError):
            AdmissionSearchConfig(node_budget=budget)

    def test_frozen(self):
        config = AdmissionSearchConfig()
        with pytest.raises(Exception):
            config.node_budget = 5


# ---------------------------------------------------------------------------
# Trail / undoable bindings
# ---------------------------------------------------------------------------


def _bindings(db, initial=None):
    """The kernel's binding store over a program mentioning S, S2 and F."""
    program = compile_formula(
        conjunction([atom("Adjacent", [F, S, S2]), atom("Available", [F, S])])
    )
    run = Run(program, db, initial)
    return run, {var: (program.scope.slot(var), None) for var in (F, S, S2)}


def _constant(value):
    return (-1, value)


class TestTrail:
    def test_undo_restores_bindings(self, db):
        run, slot = _bindings(db)
        mark = len(run.trail)
        assert run.unify(slot[S], _constant("1A"))
        assert run.snapshot().apply_term(S) == Constant("1A")
        run.undo(mark)
        assert run.snapshot().apply_term(S) is S

    def test_initial_bindings_survive_undo(self, db):
        run, slot = _bindings(db, Substitution({F: Constant(1)}))
        mark = len(run.trail)
        assert run.unify(slot[S], _constant("1B"))
        run.undo(mark)
        assert run.snapshot().apply_term(F) == Constant(1)
        assert run.snapshot().apply_term(S) is S

    def test_max_depth_tracks_high_water_mark(self, db):
        run, slot = _bindings(db)
        assert run.max_depth == 0
        run.unify(slot[S], _constant("x"))
        run.unify(slot[F], _constant("y"))
        run.undo(0)
        assert run.max_depth == 2
        run.unify(slot[S], _constant("x"))
        run.undo(0)
        assert run.max_depth == 2  # high-water, not current
        assert len(run.trail) == 0

    def test_unify_conflicting_constants_fails(self, db):
        run, slot = _bindings(db)
        assert run.unify(slot[S], _constant("a"))
        assert not run.unify(slot[S], _constant("b"))

    def test_alias_chain_walks(self, db):
        run, slot = _bindings(db)
        assert run.unify(slot[S], slot[S2])
        assert run.unify(slot[S2], _constant("z"))
        assert run.val[run.walk(slot[S][0])] == "z"
        assert run.snapshot().apply_term(S) == Constant("z")


# ---------------------------------------------------------------------------
# find_one: initial substitution and node budget
# ---------------------------------------------------------------------------


class TestFindOne:
    def test_initial_substitution_respected(self, db):
        initial = Substitution({S: Constant("1B")})
        result = GroundingSearch(db).find_one(
            atom("Available", [1, S]), initial=initial
        )
        assert result.satisfiable and result.valuation()["s"] == "1B"
        conflicting = Substitution({S: Constant("9Z")})
        assert not GroundingSearch(db).find_one(
            atom("Available", [1, S]), initial=conflicting
        ).satisfiable

    def test_node_budget_sets_exhausted_flag(self, db):
        search = GroundingSearch(db)
        # Needs several steps to solve; a budget of one node cannot.
        formula = conjunction(
            [
                atom("Available", [F, S]),
                atom("Adjacent", [F, S, S2]),
                atom("Available", [F, S2]),
            ]
        )
        result = search.find_one(formula, node_budget=1)
        assert not result.satisfiable
        assert result.statistics.exhausted_budget
        # Unbounded, the same formula is satisfiable.
        assert GroundingSearch(db).find_one(formula).satisfiable
