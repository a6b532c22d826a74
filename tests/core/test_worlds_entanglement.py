"""Tests for possible-world enumeration and entanglement bookkeeping."""

from __future__ import annotations

import pytest

from repro.core.entanglement import (
    EntangledResourceTransaction,
    EntanglementRegistry,
    make_adjacent_seat_request,
)
from repro.core.parser import parse_transaction
from repro.core.worlds import (
    distinct_extensional_states,
    enumerate_possible_worlds,
    max_optional_worlds,
)
from repro.errors import InvalidTransactionError
from repro.logic.atoms import Atom
from tests.conftest import make_tiny_flight_db

MICKEY = "-Available(123, ?s), +Bookings('Mickey', 123, ?s) :-1 Available(123, ?s)"
DONALD = "-Available(123, ?s), +Bookings('Donald', 123, ?s) :-1 Available(123, ?s)"
MINNIE = (
    "-Available(123, ?s), +Bookings('Minnie', 123, ?s) "
    ":-1 Available(123, ?s), Bookings('Mickey', 123, ?m), Adjacent(123, ?s, ?m)"
)


class TestPossibleWorlds:
    def test_figure2_world_counts(self):
        database = make_tiny_flight_db(seats=3)
        mickey = parse_transaction(MICKEY)
        donald = parse_transaction(DONALD)
        minnie = parse_transaction(MINNIE)

        after_mickey = enumerate_possible_worlds(database, [mickey])
        assert len(after_mickey) == 3

        after_donald = enumerate_possible_worlds(database, [mickey, donald])
        assert len(after_donald) == 6  # 3 × 2 orderings of the remaining seats

        after_minnie = enumerate_possible_worlds(database, [mickey, donald, minnie])
        # Minnie must sit next to Mickey: Mickey cannot be in the middle seat
        # taken scenario-by-scenario; exactly 4 worlds survive.
        assert len(after_minnie) == 4
        for world in after_minnie:
            bookings = {p: s for p, _f, s in world.table("Bookings")}
            assert {bookings["Mickey"], bookings["Minnie"]} in (
                {"1A", "1B"},
                {"1B", "1C"},
            )

    def test_empty_when_unsatisfiable(self):
        database = make_tiny_flight_db(seats=1)
        t1 = parse_transaction(MICKEY)
        t2 = parse_transaction(DONALD)
        assert enumerate_possible_worlds(database, [t1, t2]) == []

    def test_initial_database_unchanged(self):
        database = make_tiny_flight_db(seats=2)
        enumerate_possible_worlds(database, [parse_transaction(MICKEY)])
        assert len(database.table("Available")) == 2
        assert len(database.table("Bookings")) == 0

    def test_distinct_extensional_states(self):
        database = make_tiny_flight_db(seats=2)
        worlds = enumerate_possible_worlds(database, [parse_transaction(MICKEY)])
        assert distinct_extensional_states(worlds) == 2

    def test_max_worlds_guard(self):
        database = make_tiny_flight_db(seats=3)
        transactions = [parse_transaction(MICKEY.replace("Mickey", f"u{i}")) for i in range(3)]
        with pytest.raises(ValueError):
            enumerate_possible_worlds(database, transactions, max_worlds=3)

    def test_optional_satisfaction_tracked(self):
        database = make_tiny_flight_db(seats=3)
        database.insert("Bookings", ("Goofy", 123, "1B"))
        database.delete("Available", (123, "1B"))
        request = make_adjacent_seat_request("Mickey", "Goofy", flight=123)
        worlds = enumerate_possible_worlds(database, [request])
        assert len(worlds) == 2  # seats 1A and 1C remain
        best = max_optional_worlds(worlds)
        # Both remaining seats are adjacent to 1B, so both worlds satisfy the
        # preference fully (2 optional atoms each).
        assert len(best) == 2
        assert all(world.satisfied_optionals == 2 for world in best)


class TestEntanglement:
    def test_requires_client_and_partner(self):
        with pytest.raises(InvalidTransactionError):
            EntangledResourceTransaction(
                body=(Atom.body("Available", [1]),),
                updates=(Atom.delete("Available", [1]),),
                client="Mickey",
                partner=None,
            )

    def test_registry_matches_reverse_pair(self):
        registry = EntanglementRegistry()
        mickey = make_adjacent_seat_request("Mickey", "Goofy")
        goofy = make_adjacent_seat_request("Goofy", "Mickey")
        assert registry.register(mickey) is None
        assert len(registry.waiting) == 1
        match = registry.register(goofy)
        assert match is not None
        assert match.transaction_ids() == (mickey.transaction_id, goofy.transaction_id)
        assert not registry.waiting

    def test_registry_ignores_plain_transactions(self):
        registry = EntanglementRegistry()
        plain = parse_transaction(MICKEY)
        assert registry.register(plain) is None
        assert not registry.waiting

    def test_withdraw(self):
        registry = EntanglementRegistry()
        mickey = make_adjacent_seat_request("Mickey", "Goofy")
        registry.register(mickey)
        registry.withdraw(mickey)
        assert not registry.waiting
        # A later Goofy arrival no longer matches.
        assert registry.register(make_adjacent_seat_request("Goofy", "Mickey")) is None

    def test_make_adjacent_seat_request_shape(self):
        request = make_adjacent_seat_request("Mickey", "Goofy", flight=7)
        assert request.client == "Mickey" and request.partner == "Goofy"
        assert len(request.hard_body) == 1
        assert len(request.optional_body) == 2
        assert {a.relation for a in request.updates} == {"Available", "Bookings"}
        # The flight is pinned as a hard constant.
        assert request.hard_body[0].terms[0].value == 7
