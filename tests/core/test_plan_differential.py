"""Differential oracle for the grounding-plan path.

A plan used to re-derive its composition up to three times (reorder check,
prefix, suffix and optional factors); it now reads slices of one
:class:`~repro.core.composition.OrderComposition`, drops optional factors
an index probe proves unsatisfiable, and tries the remaining set at once
where that is provably the greedy loop's result.  The parent's functions
are preserved verbatim in ``reference_plan.py``; for named scenarios and a
seeded sweep over the flight tables the new path must yield the identical
``(plan, substitution, satisfied_atoms)`` and, once applied, the identical
successor ``composed_formula()``.
"""

from __future__ import annotations

import random

import pytest

import reference_plan
from repro.core import quantum_state
from repro.core.parser import parse_transaction
from repro.core.quantum_state import (
    QuantumState,
    compute_grounding_plan,
    provably_unsatisfiable,
)
from repro.core.serializability import SerializabilityMode
from repro.errors import TransactionRejected
from repro.logic.atoms import Atom
from repro.logic.formula import AtomFormula, Disjunction
from repro.logic.terms import Variable
from repro.relational.database import Database
from repro.workloads.flights import create_flight_tables

ROW_LETTERS = "ABC"
MODES = (SerializabilityMode.SEMANTIC, SerializabilityMode.STRICT)


def seat_labels(rows: int) -> list[str]:
    return [f"{row + 1}{letter}" for row in range(rows) for letter in ROW_LETTERS]


def flight_database(flights: dict[int, int]) -> Database:
    """The production flight schema (same indexes) with ``flight -> rows``."""
    database = Database()
    create_flight_tables(database)
    for flight, rows in flights.items():
        for seat in seat_labels(rows):
            database.insert("Available", (flight, seat))
        for row in range(rows):
            labels = [f"{row + 1}{letter}" for letter in ROW_LETTERS]
            for left, right in zip(labels, labels[1:]):
                database.insert("Adjacent", (flight, left, right))
                database.insert("Adjacent", (flight, right, left))
    return database


def book(database: Database, passenger: str, flight: int, seat: str) -> None:
    """Ground a booking directly in the store."""
    database.delete("Available", (flight, seat))
    database.insert("Bookings", (passenger, flight, seat))


# -- transaction shapes ------------------------------------------------------


def any_seat(passenger: str, flight: int) -> str:
    return (
        f"-Available({flight}, ?s), +Bookings('{passenger}', {flight}, ?s) "
        f":-1 Available({flight}, ?s)"
    )


def entangled(passenger: str, partner: str, flight: int) -> str:
    return (
        f"{any_seat(passenger, flight)}, "
        f"[Bookings('{partner}', {flight}, ?s2)], [Adjacent({flight}, ?s, ?s2)]"
    )


def pinned(passenger: str, flight: int, seat: str) -> str:
    return (
        f"-Available({flight}, '{seat}'), +Bookings('{passenger}', {flight}, '{seat}') "
        f":-1 Available({flight}, '{seat}')"
    )


def cancel(passenger: str, flight: int) -> str:
    """Cross-relation updates: frees the seat ``passenger`` holds."""
    return (
        f"-Bookings('{passenger}', {flight}, ?s), +Available({flight}, ?s) "
        f":-1 Bookings('{passenger}', {flight}, ?s)"
    )


def move(passenger: str, flight: int) -> str:
    """Two body atoms, both relations deleted from and inserted into."""
    return (
        f"-Bookings('{passenger}', {flight}, ?s), +Available({flight}, ?s), "
        f"-Available({flight}, ?t), +Bookings('{passenger}', {flight}, ?t) "
        f":-1 Bookings('{passenger}', {flight}, ?s), Available({flight}, ?t)"
    )


def any_flight(passenger: str) -> str:
    return (
        f"-Available(?f, ?s), +Bookings('{passenger}', ?f, ?s) :-1 Available(?f, ?s)"
    )


def near(passenger: str, flight: int, seat: str) -> str:
    """One optional atom with a constant: wants to sit next to ``seat``."""
    return f"{any_seat(passenger, flight)}, [Adjacent({flight}, ?s, '{seat}')]"


# -- the comparison ----------------------------------------------------------


def admit_all(database: Database, texts: list[str]) -> QuantumState:
    """A state holding every admissible transaction of ``texts``, pending."""
    state = QuantumState(database)
    for text in texts:
        try:
            state.admit(parse_transaction(text))
        except TransactionRejected:
            pass
    return state


def plan_key(plan) -> tuple:
    return (
        tuple(entry.transaction_id for entry in plan.to_ground),
        tuple(entry.transaction_id for entry in plan.remaining_order),
        plan.reordered,
    )


def assert_same_plan(state: QuantumState, partition, targets, mode) -> tuple:
    """Plan ``targets`` both ways; returns the (identical) plan key."""
    search = state.cache.search
    expected_plan, expected_substitution, expected_satisfied = (
        reference_plan.compute_grounding_plan(search, mode, partition, targets)
    )
    plan, composition, substitution, satisfied = compute_grounding_plan(
        search, mode, partition, targets
    )
    assert plan_key(plan) == plan_key(expected_plan)
    assert substitution == expected_substitution
    assert satisfied == expected_satisfied
    order = list(plan.to_ground) + list(plan.remaining_order)
    assert [t.transaction_id for t in composition.transactions] == [
        entry.transaction_id for entry in order
    ]
    assert composition.formula() == reference_plan.compose_sequence(
        [entry.renamed for entry in order]
    )
    return plan_key(plan)


def assert_same_successor(state: QuantumState, partition, targets, mode) -> None:
    """Apply the new plan; the remaining composed body is the parent's."""
    state.serializability = mode
    planned = state.plan_grounding(partition, targets)
    remaining = [entry.renamed for entry in planned.plan.remaining_order]
    state.apply_grounding(planned)
    assert partition.composed_formula() == reference_plan.compose_sequence(remaining)


def check(database: Database, texts: list[str], target_positions) -> dict:
    """Plan and apply under both modes on the (single) partition of ``texts``.

    Returns ``mode -> (to_ground positions, remaining positions, reordered)``.
    """
    keys = {}
    for mode in MODES:
        state = admit_all(database.copy(), texts)
        (partition,) = state.partitions.partitions
        assert len(partition) == len(texts), "a scenario transaction was rejected"
        pending = [entry.transaction_id for entry in partition.pending]
        targets = [partition.pending[position] for position in target_positions]
        to_ground, remaining, reordered = assert_same_plan(
            state, partition, targets, mode
        )
        keys[mode] = (
            [pending.index(i) for i in to_ground],
            [pending.index(i) for i in remaining],
            reordered,
        )
        assert_same_successor(state, partition, targets, mode)
    return keys


class TestNamedScenarios:
    def test_single_entry(self):
        check(flight_database({1: 2}), [any_seat("a", 1)], [0])

    def test_targets_at_the_head_reuse_the_resident_composition(self):
        database = flight_database({1: 2})
        state = admit_all(database, [any_seat(p, 1) for p in "abcd"])
        (partition,) = state.partitions.partitions
        targets = list(partition.pending[:2])
        plan, composition, _substitution, _satisfied = compute_grounding_plan(
            state.cache.search, SerializabilityMode.SEMANTIC, partition, targets
        )
        assert not plan.reordered
        assert composition is partition.composition()
        assert_same_plan(state, partition, targets, SerializabilityMode.SEMANTIC)

    def test_mid_order_target_is_fronted(self):
        keys = check(flight_database({1: 2}), [any_seat(p, 1) for p in "abcd"], [2])
        assert keys[SerializabilityMode.SEMANTIC][2] is True
        assert keys[SerializabilityMode.STRICT][2] is False

    def test_split_targets(self):
        keys = check(
            flight_database({1: 2}), [any_seat(p, 1) for p in "abcde"], [1, 3]
        )
        assert keys[SerializabilityMode.SEMANTIC][2] is True

    def test_refused_reorder_falls_back_to_strict(self):
        # The only seat b can get is the one a's cancellation frees: b
        # cannot be serialized before a.
        database = flight_database({1: 1})
        for passenger, seat in zip("xyz", seat_labels(1)):
            book(database, passenger, 1, seat)
        keys = check(database, [cancel("x", 1), any_seat("b", 1)], [1])
        to_ground, remaining, reordered = keys[SerializabilityMode.SEMANTIC]
        assert not reordered and len(to_ground) == 2 and not remaining

    def test_all_optionals_satisfiable(self):
        database = flight_database({1: 2})
        book(database, "q", 1, "1B")
        check(database, [entangled("a", "q", 1), any_seat("b", 1)], [0])

    def test_doomed_optional_of_the_first_partner(self):
        # a's [Bookings('b', 1, ?s2)] is rewritten against nothing and b
        # holds no seat: doomed.  b's is rewritten against a's insert.
        texts = [any_seat("c", 1), entangled("a", "b", 1), entangled("b", "a", 1)]
        check(flight_database({1: 2}), texts, [1, 2])

    def test_doomed_optional_of_a_forced_victim(self):
        texts = [entangled("a", "b", 1)] + [any_seat(p, 1) for p in "cde"]
        check(flight_database({1: 2}), texts, [0])

    def test_partner_already_grounded_in_the_store(self):
        database = flight_database({1: 2})
        book(database, "b", 1, "2B")
        check(database, [any_seat("c", 1), entangled("a", "b", 1)], [1])

    def test_partner_grounded_but_no_adjacent_seat_left(self):
        database = flight_database({1: 2})
        book(database, "b", 1, "2B")
        book(database, "x", 1, "2A")
        book(database, "y", 1, "2C")
        check(database, [entangled("a", "b", 1), any_seat("c", 1)], [0])

    def test_cross_relation_updates(self):
        database = flight_database({1: 2})
        book(database, "x", 1, "1A")
        texts = [move("x", 1), cancel("x", 1), any_seat("a", 1), pinned("b", 1, "1A")]
        for positions in ([0], [2], [3], [1, 3]):
            check(database, texts, positions)

    def test_optional_with_a_constant_and_pinned_suffix(self):
        texts = [pinned("p", 1, "1B"), near("a", 1, "1B"), any_seat("c", 1)]
        check(flight_database({1: 2}), texts, [1])

    def test_merged_partition_over_two_flights(self):
        texts = [any_seat("a", 1), any_seat("b", 2), any_flight("c"), any_seat("d", 2)]
        check(flight_database({1: 1, 2: 1}), texts, [2])


class TestDoomedFactorGuard:
    """The soundness guard of the doomed-factor probe."""

    def test_plain_indexed_atom_without_a_row_is_doomed(self):
        database = flight_database({1: 2})
        atom = AtomFormula(Atom.body("Bookings", ["b", 1, Variable("s2")]))
        assert provably_unsatisfiable(database, atom)
        book(database, "b", 1, "1A")
        assert not provably_unsatisfiable(database, atom)

    def test_factor_with_an_equality_alternative_is_not_judged_alone(self):
        # The second partner's factor: no Bookings row for 'a' exists, yet
        # the factor holds through the first partner's pending insert.
        database = flight_database({1: 2})
        state = admit_all(database, [entangled("a", "b", 1), entangled("b", "a", 1)])
        (partition,) = state.partitions.partitions
        second = partition.composition().optional_factors(1)[0]
        assert isinstance(second.formula, Disjunction)
        assert provably_unsatisfiable(database, second.formula.parts[0])
        assert not provably_unsatisfiable(database, second.formula)
        targets = partition.pending
        plan, _composition, _substitution, satisfied = compute_grounding_plan(
            state.cache.search, SerializabilityMode.SEMANTIC, partition, targets
        )
        first, partner = (entry.transaction_id for entry in plan.to_ground)
        assert satisfied == {first: 1, partner: 2}
        assert_same_plan(
            state, partition, partition.pending, SerializabilityMode.SEMANTIC
        )

    def test_atom_no_index_covers_is_not_probed(self, monkeypatch):
        # Only the flight is bound and Adjacent has no flight-only index:
        # the one possible probe is a scan of the relation, so the factor
        # is left to the search even though flight 7 has no adjacency.
        database = flight_database({1: 2})
        table = database.table("Adjacent")
        monkeypatch.setattr(
            table, "scan", lambda: pytest.fail("the probe scanned the relation")
        )
        atom = Atom.body("Adjacent", [7, Variable("s"), Variable("s2")])
        assert not provably_unsatisfiable(database, AtomFormula(atom))

    def test_unknown_relation_and_wrong_arity_are_left_to_the_search(self):
        database = flight_database({1: 1})
        assert not provably_unsatisfiable(
            database, AtomFormula(Atom.body("Window", [1, Variable("s")]))
        )
        assert not provably_unsatisfiable(
            database, AtomFormula(Atom.body("Bookings", ["b", 1]))
        )

    def test_maximal_set_is_not_trusted_over_a_budgeted_suffix(self, monkeypatch):
        # With the combined search starved, the greedy loop rejects every
        # single optional factor of the pair: the first eight prefix
        # candidates all put a on 1A, which the pinned suffix entry needs.
        # All live factors at once *would* succeed (adjacency prunes the
        # candidates down to ones that extend) — a result the loop never
        # reaches, so the plan must not shortcut to it.
        monkeypatch.setattr(quantum_state, "COMBINED_NODE_BUDGET", 1)
        monkeypatch.setattr(reference_plan, "COMBINED_NODE_BUDGET", 1)
        texts = [pinned("p", 1, "1A"), entangled("a", "b", 1), entangled("b", "a", 1)]
        database = flight_database({1: 4})
        state = admit_all(database, texts)
        (partition,) = state.partitions.partitions
        targets = list(partition.pending[1:])
        plan, _composition, _substitution, satisfied = compute_grounding_plan(
            state.cache.search, SerializabilityMode.SEMANTIC, partition, targets
        )
        assert plan.reordered and len(plan.remaining_order) == 1
        assert set(satisfied.values()) == {0}
        assert_same_plan(state, partition, targets, SerializabilityMode.SEMANTIC)

    def test_maximal_set_is_the_loop_result_without_a_suffix(self):
        database = flight_database({1: 2})
        state = admit_all(database, [entangled("a", "b", 1), entangled("b", "a", 1)])
        (partition,) = state.partitions.partitions
        search = state.cache.search
        before = search.searches
        assert_same_plan(
            state, partition, partition.pending, SerializabilityMode.SEMANTIC
        )
        reference_searches = 5  # all, [a1], [a2], [a2 b1], [a2 b1 b2]
        assert search.searches - before == reference_searches + 1


PASSENGERS = [f"p{i}" for i in range(8)]


def random_case(rng: random.Random) -> tuple[Database, list[str]]:
    """A seeded store and 1-6 transactions, mostly on one flight."""
    rows = rng.choice([1, 2, 2, 3])
    database = flight_database({1: rows, 2: 1})
    seats = seat_labels(rows)
    rng.shuffle(seats)
    passengers = PASSENGERS[:]
    rng.shuffle(passengers)
    booked = [passengers.pop() for _ in range(rng.randint(0, min(3, rows * 3 - 1)))]
    for passenger, seat in zip(booked, seats):
        book(database, passenger, 1, seat)
    texts = []
    for _ in range(rng.randint(1, 6)):
        passenger = rng.choice(passengers)
        shape = rng.random()
        if shape < 0.25:
            texts.append(any_seat(passenger, 1))
        elif shape < 0.55:
            partner = rng.choice(passengers + booked)
            texts.append(entangled(passenger, partner, 1))
        elif shape < 0.65:
            texts.append(pinned(passenger, 1, rng.choice(seat_labels(rows))))
        elif shape < 0.75 and booked:
            texts.append(cancel(rng.choice(booked), 1))
        elif shape < 0.82 and booked:
            texts.append(move(rng.choice(booked), 1))
        elif shape < 0.9:
            texts.append(near(passenger, 1, rng.choice(seat_labels(rows))))
        else:
            texts.append(any_flight(passenger))
    return database, texts


@pytest.mark.parametrize("seed", range(120))
def test_seeded_partitions_plan_identically(seed):
    rng = random.Random(seed)
    database, texts = random_case(rng)
    state = admit_all(database, texts)
    if not state.partitions.partitions:
        pytest.skip("every generated transaction was rejected")
    partition = max(state.partitions.partitions, key=len)
    pending = list(partition.pending)
    targets = rng.sample(pending, rng.randint(1, min(3, len(pending))))
    targets.sort(key=lambda entry: entry.sequence)
    for mode in MODES:
        assert_same_plan(state, partition, targets, mode)
    assert_same_successor(state, partition, targets, rng.choice(MODES))
