"""Tests for the flight database, arrival orders and workload generators."""

from __future__ import annotations

import pytest

from repro.core.worlds import enumerate_possible_worlds
from repro.workloads.arrival_orders import (
    ArrivalOrder,
    expected_max_pending,
    measured_max_pending,
    order_arrivals,
)
from repro.workloads.calendar import (
    CalendarSpec,
    build_calendar_database,
    make_meeting_request,
)
from repro.workloads.entangled_workload import generate_workload, make_pairs
from repro.workloads.flights import (
    FlightDatabaseSpec,
    booked_adjacent_pairs,
    build_flight_database,
)
from repro.workloads.mixed import OperationKind, generate_mixed_workload


class TestFlightDatabase:
    def test_paper_sizing_derivations(self):
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=34)
        assert spec.seats_per_flight == 102
        assert spec.max_coordinating_users_per_flight == 68
        ten_rows = FlightDatabaseSpec(num_flights=1, rows_per_flight=10)
        assert ten_rows.max_coordinating_users_per_flight == 20  # the paper's example

    def test_adjacency_pairs_per_row(self):
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=2)
        pairs = list(spec.adjacency_pairs())
        # "Each row has four possible adjacent pairs."
        assert len(pairs) == 8
        assert ("1A", "1B") in pairs and ("1B", "1A") in pairs
        assert ("1A", "1C") not in pairs

    def test_populated_tables(self):
        spec = FlightDatabaseSpec(num_flights=2, rows_per_flight=3, first_flight_number=50)
        database = build_flight_database(spec)
        assert len(database.table("Available")) == 2 * 9
        assert len(database.table("Adjacent")) == 2 * 3 * 4
        assert len(database.table("Bookings")) == 0
        assert spec.flight_numbers() == (50, 51)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            FlightDatabaseSpec(num_flights=0)
        with pytest.raises(ValueError):
            FlightDatabaseSpec(seats_per_row=5)

    def test_booked_adjacent_pairs(self):
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=1)
        database = build_flight_database(spec)
        flight = spec.flight_numbers()[0]
        database.insert("Bookings", ("Mickey", flight, "1A"))
        database.insert("Bookings", ("Goofy", flight, "1B"))
        database.insert("Bookings", ("Pluto", flight, "1C"))
        pairs = booked_adjacent_pairs(database)
        assert frozenset({"Mickey", "Goofy"}) in pairs
        assert frozenset({"Goofy", "Pluto"}) in pairs
        assert frozenset({"Mickey", "Pluto"}) not in pairs


class TestArrivalOrders:
    def test_all_orders_are_permutations(self):
        for order in ArrivalOrder:
            arrivals = order_arrivals(5, order)
            assert sorted(arrivals) == list(range(10))

    def test_alternate_partners_adjacent(self):
        arrivals = order_arrivals(4, ArrivalOrder.ALTERNATE)
        assert arrivals == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_in_order_partner_lag(self):
        arrivals = order_arrivals(3, ArrivalOrder.IN_ORDER)
        assert arrivals == [0, 2, 4, 1, 3, 5]

    def test_reverse_order(self):
        arrivals = order_arrivals(3, ArrivalOrder.REVERSE_ORDER)
        assert arrivals == [0, 2, 4, 5, 3, 1]

    def test_expected_bounds_match_table1(self):
        assert expected_max_pending(51, ArrivalOrder.ALTERNATE) == 1
        assert expected_max_pending(51, ArrivalOrder.RANDOM) == 51
        assert expected_max_pending(51, ArrivalOrder.IN_ORDER) == 51
        assert expected_max_pending(51, ArrivalOrder.REVERSE_ORDER) == 51

    def test_measured_max_pending(self):
        assert measured_max_pending(order_arrivals(6, ArrivalOrder.ALTERNATE)) == 1
        assert measured_max_pending(order_arrivals(6, ArrivalOrder.IN_ORDER)) == 6
        assert measured_max_pending(order_arrivals(6, ArrivalOrder.REVERSE_ORDER)) == 6
        random_max = measured_max_pending(order_arrivals(6, ArrivalOrder.RANDOM))
        assert 1 <= random_max <= 6


class TestEntangledWorkload:
    def test_pairs_fill_flights(self):
        spec = FlightDatabaseSpec(num_flights=2, rows_per_flight=2)
        pairs = make_pairs(spec)
        assert len(pairs) == 2 * 3  # 6 seats per flight → 3 pairs per flight
        assert {p.flight for p in pairs} == set(spec.flight_numbers())

    def test_workload_contents(self):
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=2)
        workload = generate_workload(spec, ArrivalOrder.ALTERNATE)
        assert len(workload) == 6
        assert workload.max_possible_coordinations == 4  # 2 rows → 2 users each
        clients = [t.client for t in workload]
        partners = [t.partner for t in workload]
        assert clients[0] == partners[1] and clients[1] == partners[0]

    def test_flight_pinning_optional(self):
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=2)
        pinned = generate_workload(spec, ArrivalOrder.RANDOM).transactions[0]
        flexible = generate_workload(spec, ArrivalOrder.RANDOM, pin_flight=False).transactions[0]
        assert pinned.hard_body[0].is_ground() is False  # seat still a variable
        assert pinned.hard_body[0].terms[0].value == spec.flight_numbers()[0]
        assert not flexible.hard_body[0].constants()

    def test_random_order_deterministic_per_seed(self):
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=3)
        first = [t.client for t in generate_workload(spec, ArrivalOrder.RANDOM, seed=5)]
        second = [t.client for t in generate_workload(spec, ArrivalOrder.RANDOM, seed=5)]
        assert first == second


class TestMixedWorkload:
    def test_read_fraction(self):
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=4)
        workload = generate_mixed_workload(spec, 50.0)
        assert workload.resource_count == 12
        assert abs(workload.read_count - workload.resource_count) <= 1

    def test_zero_percent_reads(self):
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=4)
        workload = generate_mixed_workload(spec, 0.0)
        assert workload.read_count == 0

    def test_reads_target_earlier_clients(self):
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=4)
        workload = generate_mixed_workload(spec, 40.0, seed=3)
        seen: set[str] = set()
        for operation in workload:
            if operation.kind is OperationKind.RESOURCE:
                assert operation.transaction is not None
                seen.add(operation.transaction.client)
            else:
                assert operation.read_client in seen

    def test_fixed_total_operations(self):
        spec = FlightDatabaseSpec(num_flights=2, rows_per_flight=4)
        workload = generate_mixed_workload(spec, 25.0, total_operations=32)
        assert len(workload) == 32
        assert workload.read_count == 8

    def test_invalid_percentage(self):
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=4)
        with pytest.raises(ValueError):
            generate_mixed_workload(spec, 100.0)


class TestCalendarWorkload:
    def test_database_population(self):
        spec = CalendarSpec(people=("A", "B"), days=2, slots_per_day=2)
        database = build_calendar_database(spec, busy=[("A", 1, 1)])
        assert len(database.table("FreeSlot")) == 2 * 4 - 1

    def test_meeting_request_shape(self):
        request = make_meeting_request("offsite", "Mickey", "Donald")
        assert len(request.hard_body) == 2
        assert len(request.optional_body) == 0
        assert len(request.updates) == 4

    def test_possible_placements_match_free_slots(self):
        spec = CalendarSpec(people=("A", "B"), days=1, slots_per_day=3)
        database = build_calendar_database(spec, busy=[("A", 1, 2)])
        worlds = enumerate_possible_worlds(
            database, [make_meeting_request("m1", "A", "B")]
        )
        placements = {
            (valuation["day"], valuation["slot"])
            for valuation in (dict(world.groundings[0][1]) for world in worlds)
        }
        assert placements == {(1, 1), (1, 3)}
