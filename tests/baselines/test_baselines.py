"""Tests for the intelligent-social baseline."""

from __future__ import annotations


from repro.baselines.intelligent_social import IntelligentSocialClient
from tests.conftest import make_tiny_flight_db


class TestIntelligentSocial:
    def test_books_adjacent_when_partner_present(self):
        database = make_tiny_flight_db(seats=3)
        client = IntelligentSocialClient(database)
        first = client.book("Goofy", "Mickey", flight=123)
        assert first.succeeded and not first.adjacent_to_partner
        second = client.book("Mickey", "Goofy", flight=123)
        assert second.adjacent_to_partner
        assert client.coordinated_pairs() == 2
        assert client.coordination_percentage() == 100.0

    def test_keeps_neighbour_free_when_partner_absent(self):
        database = make_tiny_flight_db(seats=3)
        client = IntelligentSocialClient(database)
        booking = client.book("Goofy", "Mickey", flight=123)
        # The chosen seat must still have a free adjacent seat.
        free = {row["seat"] for row in database.table("Available")}
        adjacent = {
            row["seat2"]
            for row in database.table("Adjacent")
            if row["seat1"] == booking.seat
        }
        assert adjacent & free

    def test_falls_back_to_any_seat(self):
        database = make_tiny_flight_db(seats=2)
        client = IntelligentSocialClient(database)
        client.book("A", None, flight=123)
        client.book("B", None, flight=123)
        # Flight now full: a partnered user books nothing.
        result = client.book("C", "A", flight=123)
        assert not result.succeeded

    def test_early_booker_can_lose_coordination(self):
        # The paper's motivating failure: without deferral, an interloper can
        # take the seat the early booker was keeping for their friend.
        database = make_tiny_flight_db(seats=3)
        client = IntelligentSocialClient(database)
        first = client.book("Goofy", "Mickey", flight=123)
        # An unrelated walk-up takes the seat adjacent to Goofy.
        adjacent = next(
            row["seat2"]
            for row in database.table("Adjacent")
            if row["seat1"] == first.seat
            and database.table("Available").get((123, row["seat2"])) is not None
        )
        with database.begin() as txn:
            txn.delete("Available", (123, adjacent))
            txn.insert("Bookings", ("Walkup", 123, adjacent))
        second = client.book("Mickey", "Goofy", flight=123)
        assert second.succeeded
        coordination = client.coordination_percentage()
        assert coordination < 100.0

    def test_works_without_flight_pinning(self):
        database = make_tiny_flight_db(seats=3)
        client = IntelligentSocialClient(database)
        booking = client.book("Mickey", None)
        assert booking.succeeded and booking.flight == 123

