"""Differential enumeration oracle for the search kernel.

A seeded generator builds formulas over the three flight tables — atoms
(repeated variables, a missing table), equalities that build alias
chains, negated equalities / conjunctions / atoms, nested disjunctions,
``TRUE`` / ``FALSE`` — and crosses them with ``initial``, ``required``,
``limit`` and ``node_budget``.  For every case the kernel must produce the
identical *sequence* of substitutions (binding for binding, in the same
order) and identical work counters as the seed interpreters preserved in
``reference_search.py``, under both strategies.
"""

from __future__ import annotations

import random

import pytest

from reference_search import ReferenceSearch, TrailBindings, TrailSearch
from reference_search import find_one_bnb as reference_find_one_bnb
from reference_search import verify_solution as reference_verify_solution
from repro.logic.atoms import Atom
from repro.logic.formula import (
    FALSE,
    TRUE,
    AtomFormula,
    Conjunction,
    Disjunction,
    Equality,
    Negation,
)
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.relational.database import Database
from repro.solver.grounding import GroundingSearch, GroundingStatistics
from repro.solver.kernel import Run, Scope, compile_formula, conjoin
from repro.workloads.flights import create_flight_tables

FLIGHT_VARS = [Variable(name) for name in ("f", "g")]
SEAT_VARS = [Variable(name) for name in ("a", "b", "c", "d")]
PASSENGER_VARS = [Variable("p")]
VARIABLES = FLIGHT_VARS + SEAT_VARS + PASSENGER_VARS
#: Variables no generated formula mentions: only ``initial`` alias chains
#: and ``required`` sets reach them.
OUTSIDERS = [Variable(name) for name in ("x", "y")]
FLIGHTS = (1, 2)
SEATS = ("1A", "1B", "1C", "2A", "2B")
PASSENGERS = ("Goofy", "Mickey", "Pluto")
COUNTERS = ("nodes", "rows_examined", "choice_points", "backtracks", "exhausted_budget")


@pytest.fixture(scope="module")
def db() -> Database:
    database = Database()
    create_flight_tables(database)
    for flight in FLIGHTS:
        for seat in SEATS[: 6 - flight]:
            database.insert("Available", (flight, seat))
        for left, right in (("1A", "1B"), ("1B", "1C"), ("2A", "2B")):
            database.insert("Adjacent", (flight, left, right))
            database.insert("Adjacent", (flight, right, left))
    database.insert("Bookings", ("Goofy", 1, "2B"))
    database.insert("Bookings", ("Mickey", 2, "1C"))
    database.insert("Bookings", ("Pluto", 2, "2A"))
    return database


# -- the generator ----------------------------------------------------------


def _term(rng: random.Random, variables, domain, constant: float = 0.15):
    """A variable of the position's type, now and then a constant — or,
    rarely, a variable of the wrong type (which then matches nothing)."""
    roll = rng.random()
    if roll < constant:
        return Constant(rng.choice(domain))
    if roll > 0.985:
        return rng.choice(VARIABLES)
    return rng.choice(variables)


def _atom(rng: random.Random) -> AtomFormula:
    relation = rng.choice(
        ["Available"] * 12 + ["Adjacent"] * 6 + ["Bookings"] * 3 + ["Ghost"]
    )
    flight = _term(rng, FLIGHT_VARS, FLIGHTS, 0.4)
    if relation == "Available":
        terms = [flight, _term(rng, SEAT_VARS, SEATS)]
    elif relation == "Adjacent":
        terms = [flight, _term(rng, SEAT_VARS, SEATS), _term(rng, SEAT_VARS, SEATS)]
    elif relation == "Bookings":
        terms = [
            _term(rng, PASSENGER_VARS, PASSENGERS, 0.3),
            flight,
            _term(rng, SEAT_VARS, SEATS),
        ]
    else:
        terms = [_term(rng, SEAT_VARS, SEATS)]
    return AtomFormula(Atom.body(relation, terms))


def _equality(rng: random.Random) -> Equality:
    roll = rng.random()
    if roll < 0.05:
        return Equality(Constant(rng.choice(SEATS[:2])), Constant(rng.choice(SEATS[:2])))
    if roll < 0.12:
        return Equality(rng.choice(FLIGHT_VARS), _term(rng, FLIGHT_VARS, FLIGHTS, 0.5))
    left = rng.choice(SEAT_VARS)
    return Equality(left, _term(rng, SEAT_VARS, SEATS, 0.3))


def _negation(rng: random.Random) -> Negation:
    roll = rng.random()
    if roll < 0.6:
        return Negation(_equality(rng))
    if roll < 0.8:
        return Negation(Conjunction((_equality(rng), _equality(rng))))
    if roll < 0.88:
        return Negation(Disjunction((_equality(rng), _equality(rng))))
    if roll < 0.93:
        return Negation(_negation(rng))  # cancels when compiled
    if roll < 0.95:
        return Negation(TRUE if rng.random() < 0.5 else FALSE)
    return Negation(_atom(rng))


def _formula(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 3 or roll < 0.3:
        return _atom(rng)
    if roll < 0.42:
        return _equality(rng)
    if roll < 0.6:
        return _negation(rng)
    if roll < 0.64:
        return TRUE if rng.random() < 0.8 else FALSE
    parts = tuple(_formula(rng, depth + 1) for _ in range(rng.randint(2, 3)))
    return Disjunction(parts) if roll < 0.85 else Conjunction(parts)


def _body(rng: random.Random) -> Conjunction:
    """A composed-body-like top level: a few atoms plus mixed constraints."""
    parts = [_atom(rng) for _ in range(rng.randint(1, 3))]
    parts += [_formula(rng, 1) for _ in range(rng.randint(0, 4))]
    rng.shuffle(parts)
    return Conjunction(tuple(parts))


def _composed(rng: random.Random) -> Conjunction:
    """The shape composition produces: bookings on one flight excluding
    each other's seats, with optional-atom factors rewritten against the
    earlier bookings' inserts."""
    flight = Constant(rng.choice(FLIGHTS))
    seats = rng.sample(SEAT_VARS, rng.randint(2, 4))
    parts: list = []
    for index, seat in enumerate(seats):
        parts.append(AtomFormula(Atom.body("Available", [flight, seat])))
        parts.extend(Negation(Equality(seat, earlier)) for earlier in seats[:index])
    for index, seat in enumerate(seats[1:], start=1):
        if rng.random() < 0.5:
            partner = PASSENGER_VARS[0] if rng.random() < 0.3 else Constant("Goofy")
            booked = AtomFormula(Atom.body("Bookings", [partner, flight, OUTSIDERS[0]]))
            parts.append(Disjunction((booked, Equality(OUTSIDERS[0], seats[index - 1]))))
            parts.append(AtomFormula(Atom.body("Adjacent", [flight, seat, OUTSIDERS[0]])))
    if rng.random() < 0.3:
        parts.append(_formula(rng, 1))
    return Conjunction(tuple(parts))


def _initial(rng: random.Random) -> Substitution | None:
    if rng.random() < 0.45:
        return None
    mapping: dict = {}
    pool = SEAT_VARS + OUTSIDERS
    for var in rng.sample(pool, rng.randint(1, 3)):
        if rng.random() < 0.5:
            mapping[var] = Constant(rng.choice(SEATS))
        else:
            # Alias only "forwards" so chains never close into cycles.
            later = pool[pool.index(var) + 1 :]
            if later:
                mapping[var] = rng.choice(later)
    if rng.random() < 0.3:
        mapping[rng.choice(FLIGHT_VARS)] = Constant(rng.choice(FLIGHTS))
    return Substitution(mapping)


def _required(rng: random.Random, formula) -> frozenset | None:
    roll = rng.random()
    if roll < 0.5:
        return None
    free = sorted(formula.simplify().free_variables(), key=lambda v: v.name)
    chosen = set(rng.sample(free, rng.randint(0, len(free)))) if free else set()
    if roll > 0.9:
        chosen.add(rng.choice(OUTSIDERS))
    return frozenset(chosen)


def _case(seed: int):
    rng = random.Random(seed)
    formula = _composed(rng) if seed % 3 == 0 else _body(rng)
    return (
        formula,
        _initial(rng),
        _required(rng, formula),
        rng.choice([None, None, 1, 3]),
        rng.choice([None, None, None, 2, 3, 5, 8, 13, 21, 34]),
    )


# -- comparison helpers -----------------------------------------------------


def _bindings(substitution: Substitution) -> list:
    return list(substitution.items())


def _counters(stats: GroundingStatistics, extra=()) -> dict:
    return {name: getattr(stats, name) for name in (*COUNTERS, *extra)}


def _assert_same_find(db, formula, initial, required, limit, budget):
    expected_stats = GroundingStatistics()
    reference = ReferenceSearch(db)
    expected = [
        _bindings(result.substitution)
        for result in reference.find(
            formula, required=required, initial=initial, limit=limit,
            node_budget=budget, statistics=expected_stats,
        )
    ]  # fmt: skip
    actual_stats = GroundingStatistics()
    search = GroundingSearch(db)
    actual = [
        _bindings(result.substitution)
        for result in search.find(
            formula, required=required, initial=initial, limit=limit,
            node_budget=budget, statistics=actual_stats,
        )
    ]  # fmt: skip
    assert actual == expected
    assert _counters(actual_stats) == _counters(expected_stats)
    assert search.searches == reference.searches
    assert _counters(search.totals) == _counters(reference.totals)


def _reference_leaves(db, formula, initial, required, budget, *, bnb: bool):
    """Every leaf the seed traversal reaches, before the close step."""
    stats = GroundingStatistics()
    simplified = formula.simplify()
    if simplified is FALSE:
        return [], stats, 0
    if not bnb:
        leaves = ReferenceSearch(db)._search(
            [simplified], initial or Substitution.empty(), [], stats, budget
        )
        return [_bindings(leaf) for leaf in leaves], stats, 0
    required_vars = (
        frozenset(required) if required is not None else simplified.free_variables()
    )
    bindings = TrailBindings(initial)
    engine = TrailSearch(db, bindings, stats, budget, required_vars)
    leaves = [_bindings(leaf) for leaf in engine.search([simplified], [])]
    return leaves, stats, bindings.trail.max_depth


def _kernel_leaves(db, formula, initial, required, budget, *, bnb: bool):
    stats = GroundingStatistics()
    program = compile_formula(formula, required=required)
    if program.is_false:
        return [], stats, 0
    run = Run(
        program, db, initial, stats, budget,
        strategy="bnb" if bnb else "backtracking",
    )  # fmt: skip
    leaves = [_bindings(run.snapshot()) for _leaf in run.solutions()]
    return leaves, stats, run.max_depth


# -- the differential suite ---------------------------------------------------


@pytest.mark.parametrize("seed", range(400))
def test_find_matches_seed_interpreter(db, seed):
    _assert_same_find(db, *_case(seed))


@pytest.mark.parametrize("bnb", [False, True], ids=["backtracking", "bnb"])
@pytest.mark.parametrize("seed", range(400))
def test_leaf_sequence_matches_seed_traversal(db, seed, bnb):
    formula, initial, required, _limit, budget = _case(seed)
    expected, expected_stats, expected_depth = _reference_leaves(
        db, formula, initial, required, budget, bnb=bnb
    )
    actual, actual_stats, actual_depth = _kernel_leaves(
        db, formula, initial, required, budget, bnb=bnb
    )
    assert actual == expected
    extra = ("prunes",) if bnb else ()
    assert _counters(actual_stats, extra) == _counters(expected_stats, extra)
    if bnb:
        assert actual_depth == expected_depth


@pytest.mark.parametrize("seed", range(200))
def test_find_one_bnb_matches_seed_trail_search(db, seed):
    formula, initial, required, _limit, budget = _case(seed)
    reference = ReferenceSearch(db)
    expected = reference_find_one_bnb(
        reference, formula, required=required, initial=initial, node_budget=budget
    )
    search = GroundingSearch(db)
    actual = search.find_one(
        formula, required=required, initial=initial, node_budget=budget, strategy="bnb"
    )
    assert actual.satisfiable == expected.satisfiable
    assert _bindings(actual.substitution) == _bindings(expected.substitution)
    extra = ("prunes", "undo_depth")
    assert _counters(actual.statistics, extra) == _counters(expected.statistics, extra)
    assert search.searches == reference.searches
    assert _counters(search.totals, extra) == _counters(reference.totals, extra)


@pytest.mark.parametrize("seed", range(150))
def test_conjoined_programs_match_compiling_the_conjunction(db, seed):
    """``conjoin`` of programs sharing a scope ≡ compiling the conjunction."""
    rng = random.Random(10_000 + seed)
    pieces = [_formula(rng, 1) for _ in range(rng.randint(1, 4))]
    initial = _initial(rng)
    budget = rng.choice([None, None, 5, 13])
    whole = Conjunction(tuple(pieces))
    scope = Scope()
    program = conjoin(compile_formula(piece, scope=scope) for piece in pieces)
    expected, actual = GroundingStatistics(), GroundingStatistics()
    separately = [
        _bindings(result.substitution)
        for result in GroundingSearch(db).find(
            whole, initial=initial, node_budget=budget, statistics=expected
        )
    ]
    conjoined = [
        _bindings(result.substitution)
        for result in GroundingSearch(db).find(
            program, initial=initial, node_budget=budget, statistics=actual
        )
    ]
    assert conjoined == separately
    assert _counters(actual) == _counters(expected)
    assert program.formula == whole.simplify()


@pytest.mark.parametrize("seed", range(150))
def test_holds_matches_formula_evaluation(db, seed):
    """``Program.holds`` ≡ the seed ``verify_solution`` of the simplified
    body: on found groundings, on perturbed ones, on partial ones."""
    rng = random.Random(20_000 + seed)
    formula = _composed(rng) if seed % 2 else _body(rng)
    simplified = formula.simplify()
    program = compile_formula(formula)
    candidates = [None, Substitution.empty(), _initial(rng)]
    for result in GroundingSearch(db).find(formula, limit=3):
        found = result.substitution
        candidates.append(found)
        for var in list(found)[:2]:
            candidates.append(found.restrict(set(found) - {var}))
            candidates.append(
                Substitution({**dict(found.items()), var: Constant(rng.choice(SEATS))})
            )
    for candidate in candidates:
        assert program.holds(db, candidate) == reference_verify_solution(
            db, simplified, candidate
        )


# -- named regressions --------------------------------------------------------

A, B, C = SEAT_VARS[:3]


def _available(flight, seat) -> AtomFormula:
    return AtomFormula(Atom.body("Available", [flight, seat]))


def test_alias_chain_negation_is_not_chased(db):
    """A negation sees only variables bound *directly* to a constant.

    ``b = a`` aliases ``b`` to ``a`` before ``a`` is ground, so ``b``'s
    binding stays an alias and ``¬(b = 1A)`` is never decidable — not
    mid-search, not at the leaf — and the leaf check rejects every
    candidate.  Chasing the chain would instead accept ``a = 1B``.
    """
    formula = Conjunction(
        (Equality(B, A), Negation(Equality(B, Constant("1A"))), _available(1, A))
    )
    assert formula.simplify().free_variables() == {A, B}
    _assert_same_find(db, formula, None, None, None, None)
    assert not GroundingSearch(db).exists(formula)
    # With the alias pointing the other way ``b`` is the representative,
    # is bound directly by the atom, and the negation decides normally.
    direct = Conjunction(
        (Equality(A, B), Negation(Equality(B, Constant("1A"))), _available(1, A))
    )
    _assert_same_find(db, direct, None, None, None, None)
    found = GroundingSearch(db).find_all(direct)
    seats = [result.substitution.apply_term(A).value for result in found]
    assert seats == [seat for seat in SEATS if seat != "1A"]


def test_leaf_negation_short_circuits_like_evaluate(db):
    """At a leaf an undecidable negation is *evaluated*, not rejected
    outright: ``¬(a = 1B ∧ c = 1A)`` with ``c`` never bound holds whenever
    the first conjunct is already false."""
    formula = Conjunction(
        (
            _available(1, A),
            Negation(Conjunction((Equality(A, Constant("1B")), Equality(C, Constant("1A"))))),
        )
    )
    _assert_same_find(db, formula, None, frozenset({A}), None, None)
    seats = [r.valuation()["a"] for r in GroundingSearch(db).find(formula, required=[A])]
    assert seats == [seat for seat in SEATS if seat != "1B"]


@pytest.mark.parametrize("strategy", ["backtracking", "bnb"])
@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 6, 8])
def test_budget_exhaustion_point_matches(db, strategy, budget):
    """Where the budget runs out decides groundings (COMBINED_NODE_BUDGET):
    the exhausted flag, and every counter past the exhaustion point, agree
    with the seed traversal of the same strategy."""
    formula = Conjunction(
        (
            _available(A, B),
            AtomFormula(Atom.body("Adjacent", [A, B, C])),
            _available(A, C),
            Negation(Equality(C, Constant("1A"))),
        )
    )
    bnb = strategy == "bnb"
    expected, expected_stats, _ = _reference_leaves(db, formula, None, None, budget, bnb=bnb)
    actual, actual_stats, _ = _kernel_leaves(db, formula, None, None, budget, bnb=bnb)
    assert actual == expected
    assert _counters(actual_stats, ("prunes",)) == _counters(expected_stats, ("prunes",))
    unbounded, _stats, _ = _kernel_leaves(db, formula, None, None, None, bnb=bnb)
    assert unbounded and (actual_stats.exhausted_budget or actual == unbounded)
    assert _kernel_leaves(db, formula, None, None, 1, bnb=bnb)[1].exhausted_budget
