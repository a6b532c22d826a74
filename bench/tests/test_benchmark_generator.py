"""The generator is a pure function of the seed."""

from bench import generator as gen
from bench.settings import SEATS_PER_FLIGHT

FLIGHTS = gen.flight_numbers(4)

#: Pinned digests: a change here changes every later comparison's load.
GOLDEN_BOOKINGS = "ed00713e80cf0a5c4473fd3202a26417e77967735d09c8eece6d20a536c967be"
GOLDEN_MIXED = "3b50edf947f8a10fdc2faa760c4e38dab8c726b4950de493fb492aac0ca66f78"


def test_same_seed_gives_the_pinned_streams():
    assert gen.stream_hash(gen.booking_streams(7, FLIGHTS, 2)) == GOLDEN_BOOKINGS
    assert gen.stream_hash(gen.mixed_streams(7, FLIGHTS, 2)) == GOLDEN_MIXED


def test_another_seed_gives_other_streams():
    assert gen.stream_hash(gen.booking_streams(8, FLIGHTS, 2)) != GOLDEN_BOOKINGS
    assert gen.store_rows(7, 0, 5) != gen.store_rows(8, 0, 5)
    assert gen.store_rows(7, 0, 5) == gen.store_rows(7, 0, 5)


def per_flight(streams):
    order = {}
    for stream in streams:
        for op in stream:
            if op.kind == "book":
                order.setdefault(op.booking.flight, []).append(op.booking)
    return order


def test_flight_order_does_not_depend_on_the_connection_count():
    one = per_flight(gen.booking_streams(7, FLIGHTS, 1))
    two = per_flight(gen.booking_streams(7, FLIGHTS, 2))
    mixed = per_flight(gen.mixed_streams(7, FLIGHTS, 2))
    assert one == two == mixed
    assert all(len(bookings) == SEATS_PER_FLIGHT for bookings in one.values())


def test_every_flight_is_filled_by_complete_pairs():
    for bookings in per_flight(gen.booking_streams(3, FLIGHTS, 2)).values():
        wishes = {(b.client, b.partner) for b in bookings}
        assert all((partner, client) in wishes for client, partner in wishes)


def test_mixed_extras_refer_to_earlier_bookings_of_the_same_stream():
    for stream in gen.mixed_streams(5, FLIGHTS, 2):
        booked = set()
        for position, op in enumerate(stream):
            if op.kind == "book":
                booked.add(op.booking.client)
            elif op.kind == "read":
                assert op.name in booked
            elif op.kind == "check_in":
                assert op.index < position and stream[op.index].kind == "book"


def test_store_transactions_replace_the_oldest_rows():
    rows = gen.store_rows(1, 0, 40)
    transactions = gen.store_transactions(1, rows, 3)
    assert [row for deletes, _ in transactions for row in deletes] == rows[:30]
    fresh = [row[0] for _, inserts in transactions for row in inserts]
    assert fresh == list(range(40, 70))
