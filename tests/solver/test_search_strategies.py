"""Tests for the pluggable admission-search subsystem.

Covers the redesigned :class:`AdmissionSearchConfig` API, the kernel's
undoable binding store, the branch-and-bound searcher's decision equivalence with plain
backtracking, the per-shape fast paths, the opt-in sampling estimator's
determinism, and the typed node-budget outcome.
"""

from __future__ import annotations

import pytest

from repro.errors import QuantumError
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
from repro.solver.bnb import find_one_bnb
from repro.solver.fastpath import find_one_fastpath
from repro.solver.grounding import GroundingSearch
from repro.solver.kernel import Run, compile_formula
from repro.solver.sampling import sample_find_one
from repro.solver.strategy import (
    AdmissionSearchConfig,
    SamplingConfig,
    dispatch_find_one,
)

F, S, S2, P, W = (Variable(n) for n in ("f", "s", "s2", "p", "w"))


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
        assert config.strategy == "backtracking"
        assert config.node_budget is None
        assert config.sampling is None
        assert not config.fastpath_enabled

    def test_fastpath_defaults_follow_strategy(self):
        assert AdmissionSearchConfig(strategy="bnb").fastpath_enabled
        assert not AdmissionSearchConfig(strategy="backtracking").fastpath_enabled
        assert AdmissionSearchConfig(strategy="backtracking", fastpath=True).fastpath_enabled
        assert not AdmissionSearchConfig(strategy="bnb", fastpath=False).fastpath_enabled

    def test_unknown_strategy_rejected(self):
        with pytest.raises(QuantumError):
            AdmissionSearchConfig(strategy="simulated-annealing")

    @pytest.mark.parametrize("budget", [0, -1, 1.5, "10"])
    def test_bad_node_budget_rejected(self, budget):
        with pytest.raises(QuantumError):
            AdmissionSearchConfig(node_budget=budget)

    def test_bad_sampling_rejected(self):
        with pytest.raises(QuantumError):
            AdmissionSearchConfig(sampling="yes")
        with pytest.raises(QuantumError):
            SamplingConfig(threshold=0)
        with pytest.raises(QuantumError):
            SamplingConfig(samples=-3)
        with pytest.raises(QuantumError):
            SamplingConfig(seed=True)

    def test_frozen(self):
        config = AdmissionSearchConfig()
        with pytest.raises(Exception):
            config.strategy = "bnb"


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
# BnB equivalence: identical decisions, never more nodes
# ---------------------------------------------------------------------------


def _shapes(db):
    return [
        atom("Available", [F, S]),
        atom("Available", [2, S]),
        conjunction(
            [
                atom("Bookings", ["Goofy", F, S2]),
                atom("Adjacent", [F, S, S2]),
                atom("Available", [F, S]),
            ]
        ),
        conjunction([atom("Available", [F, S]), Equality(S, Constant("1C"))]),
        conjunction(
            [
                atom("Available", [1, S]),
                atom("Available", [1, S2]),
                Negation(Equality(S, S2)),
            ]
        ),
        conjunction(
            [
                atom("Available", [1, S2]),
                disjunction([atom("Available", [2, S]), Equality(S, S2)]),
            ]
        ),
    ]


class TestBnbEquivalence:
    def test_decisions_and_substitutions_match_backtracking(self, db):
        for formula in _shapes(db):
            required = formula.free_variables()
            bt = GroundingSearch(db).find_one(formula, required=required)
            bnb = find_one_bnb(GroundingSearch(db), formula, required=required)
            assert bt.satisfiable == bnb.satisfiable, formula
            if bt.satisfiable:
                assert bt.substitution.restrict(required) == bnb.substitution.restrict(
                    required
                ), formula

    def test_never_expands_more_nodes(self, db):
        for formula in _shapes(db):
            required = formula.free_variables()
            bt_search = GroundingSearch(db)
            bt_search.find_one(formula, required=required)
            bnb_search = GroundingSearch(db)
            find_one_bnb(bnb_search, formula, required=required)
            assert bnb_search.totals.nodes <= bt_search.totals.nodes, formula

    def test_initial_substitution_respected(self, db):
        initial = Substitution({S: Constant("1B")})
        result = find_one_bnb(
            GroundingSearch(db), atom("Available", [1, S]), initial=initial
        )
        assert result.satisfiable and result.valuation()["s"] == "1B"
        conflicting = Substitution({S: Constant("9Z")})
        assert not find_one_bnb(
            GroundingSearch(db), atom("Available", [1, S]), initial=conflicting
        ).satisfiable

    def test_prune_counter_moves_on_forward_check(self, db):
        # Joining with an empty relation prunes before enumerating seats.
        search = GroundingSearch(db)
        formula = conjunction([atom("Available", [1, S]), atom("Bookings", [P, 2, S])])
        result = find_one_bnb(search, formula)
        assert not result.satisfiable
        assert search.totals.prunes >= 1

    def test_undo_depth_reported(self, db):
        search = GroundingSearch(db)
        formula = conjunction(
            [atom("Available", [F, S]), atom("Adjacent", [F, S, S2])]
        )
        result = find_one_bnb(search, formula)
        assert result.satisfiable
        assert search.totals.undo_depth >= 2

    def test_node_budget_sets_exhausted_flag(self, db):
        search = GroundingSearch(db)
        # Needs several descents to solve; a budget of one node cannot.
        formula = conjunction(
            [
                atom("Available", [F, S]),
                atom("Adjacent", [F, S, S2]),
                atom("Available", [F, S2]),
            ]
        )
        result = find_one_bnb(search, formula, node_budget=1)
        assert not result.satisfiable
        assert result.statistics.exhausted_budget
        # Unbounded, the same formula is satisfiable.
        assert find_one_bnb(GroundingSearch(db), formula).satisfiable


# ---------------------------------------------------------------------------
# Per-shape fast paths
# ---------------------------------------------------------------------------


class TestFastpath:
    def test_conjunctive_shape_hits_and_matches(self, db):
        formula = conjunction(
            [
                atom("Bookings", ["Goofy", F, S2]),
                atom("Adjacent", [F, S, S2]),
                atom("Available", [F, S]),
            ]
        )
        required = formula.free_variables()
        search = GroundingSearch(db)
        fast = find_one_fastpath(search, formula, required=required)
        assert fast is not None and fast.satisfiable
        assert search.totals.fastpath_hits == 1
        bt = GroundingSearch(db).find_one(formula, required=required)
        assert fast.substitution.restrict(required) == bt.substitution.restrict(
            required
        )

    def test_existential_shape_hits(self, db):
        formula = disjunction(
            [atom("Available", [2, S]), atom("Available", [1, S])]
        )
        search = GroundingSearch(db)
        fast = find_one_fastpath(search, formula, required=[S])
        assert fast is not None and fast.satisfiable
        assert fast.valuation()["s"] in {"1A", "1B", "1C"}

    def test_negation_shape_declines(self, db):
        formula = conjunction(
            [atom("Available", [1, S]), Negation(Equality(S, Constant("1A")))]
        )
        search = GroundingSearch(db)
        assert find_one_fastpath(search, formula, required=[S]) is None
        assert search.totals.fastpath_hits == 0

    def test_dispatch_prefers_fastpath_under_bnb(self, db):
        config = AdmissionSearchConfig(strategy="bnb")
        result, method = dispatch_find_one(
            GroundingSearch(db), config, atom("Available", [1, S]), required=[S]
        )
        assert result.satisfiable and method == "fastpath"

    def test_dispatch_falls_through_to_bnb(self, db):
        config = AdmissionSearchConfig(strategy="bnb")
        formula = conjunction(
            [atom("Available", [1, S]), Negation(Equality(S, Constant("1A")))]
        )
        result, method = dispatch_find_one(
            GroundingSearch(db), config, formula, required=[S]
        )
        assert result.satisfiable and method == "bnb"

    def test_dispatch_none_config_is_backtracking(self, db):
        result, method = dispatch_find_one(
            GroundingSearch(db), None, atom("Available", [1, S]), required=[S]
        )
        assert result.satisfiable and method == "backtracking"


# ---------------------------------------------------------------------------
# Sampling estimator
# ---------------------------------------------------------------------------


class TestSampling:
    def test_deterministic_under_fixed_seed(self, db):
        formula = conjunction(
            [atom("Available", [F, S]), atom("Adjacent", [F, S, S2])]
        )
        sampling = SamplingConfig(threshold=1, samples=4, seed=11)
        runs = [
            sample_find_one(GroundingSearch(db), formula, sampling=sampling)
            for _ in range(3)
        ]
        assert all(r.satisfiable == runs[0].satisfiable for r in runs)
        assert all(r.substitution == runs[0].substitution for r in runs)

    def test_different_seed_may_pick_different_witness(self, db):
        # Not asserting divergence (seeds can collide), only that every
        # seed still yields a *genuine* witness.
        formula = atom("Available", [1, S])
        for seed in range(5):
            result = sample_find_one(
                GroundingSearch(db),
                formula,
                sampling=SamplingConfig(threshold=1, samples=4, seed=seed),
            )
            assert result.satisfiable
            assert result.valuation()["s"] in {"1A", "1B", "1C"}

    def test_accepts_only_with_verified_grounding(self, db):
        result = sample_find_one(
            GroundingSearch(db),
            atom("Available", [2, S]),
            sampling=SamplingConfig(threshold=1, samples=8, seed=0),
        )
        assert not result.satisfiable  # no row, no lucky descent

    def test_samples_counter_moves(self, db):
        search = GroundingSearch(db)
        sample_find_one(
            search,
            atom("Available", [2, S]),
            sampling=SamplingConfig(threshold=1, samples=6, seed=0),
        )
        assert search.totals.samples == 6

    def test_dispatch_never_samples(self, db):
        # dispatch_find_one is the exact-search dispatcher; sampling engages
        # only at compute_admission's full-solve step, behind the explicit
        # SamplingConfig opt-in.
        config = AdmissionSearchConfig(
            strategy="bnb", sampling=SamplingConfig(threshold=1, samples=2, seed=0)
        )
        search = GroundingSearch(db)
        _result, method = dispatch_find_one(
            search, config, atom("Available", [1, S]), required=[S]
        )
        assert method in {"fastpath", "bnb"}
        assert search.totals.samples == 0
