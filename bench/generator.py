"""Seeded input generator: plain data only, nothing imported from ``repro``.

The program under test receives table rows, resource transactions in the
documented text form, read terms and write tuples — so a later change
under ``src/repro/workloads`` cannot alter the load.  Every stream is a
pure function of the seed; a flight's booking order depends only on
``(seed, flight)``, never on how flights are spread over connections.
"""

from __future__ import annotations

import hashlib
import random
from typing import NamedTuple, Sequence

from bench.settings import (
    EXTRA_SEAT,
    LOOKUPS_PER_COMMIT,
    MIX_CHECK_IN,
    MIX_READ,
    MIX_WRITE,
    ROWS_PER_FLIGHT,
    SEAT_LETTERS,
    STORE_PAYLOAD_CHARS,
    STORE_ROWS_PER_TXN,
)

FIRST_FLIGHT = 100


class Booking(NamedTuple):
    """One entangled booking: the transaction text plus the pair's names."""

    text: str
    client: str
    partner: str
    flight: int


class Op(NamedTuple):
    """One operation of a connection's stream.

    ``kind`` is ``book`` (``booking`` set), ``read``/``lookup`` (passenger
    in ``name``; a lookup also carries the expected ``flight``/``seat``),
    ``check_in`` (``index`` of an earlier ``book`` of the same stream) or
    ``write`` (blind insert+delete of ``seat`` on ``flight``).
    """

    kind: str
    booking: Booking | None = None
    name: str | None = None
    flight: int | None = None
    seat: str | None = None
    index: int | None = None


def seat_labels() -> list[str]:
    """Seat labels of one flight, row-major (``1A``, ``1B``, ...)."""
    return [
        f"{row + 1}{letter}"
        for row in range(ROWS_PER_FLIGHT)
        for letter in SEAT_LETTERS
    ]


def flight_numbers(count: int) -> list[int]:
    return list(range(FIRST_FLIGHT, FIRST_FLIGHT + count))


def available_rows(flights: Sequence[int]) -> list[tuple[int, str]]:
    return [(flight, seat) for flight in flights for seat in seat_labels()]


def adjacent_rows(flights: Sequence[int]) -> list[tuple[int, str, str]]:
    """Both directions of every within-row neighbour pair."""
    rows = []
    for flight in flights:
        for row in range(ROWS_PER_FLIGHT):
            labels = [f"{row + 1}{letter}" for letter in SEAT_LETTERS]
            for left, right in zip(labels, labels[1:]):
                rows.append((flight, left, right))
                rows.append((flight, right, left))
    return rows


def passenger(flight: int, index: int) -> str:
    return f"u{flight}_{index}"


def booking(client: str, partner: str, flight: int) -> Booking:
    """The paper's running example, pinned to ``flight``."""
    text = (
        f"-Available({flight}, ?s), +Bookings('{client}', {flight}, ?s) "
        f":-1 Available({flight}, ?s), "
        f"[Bookings('{partner}', {flight}, ?s2)], "
        f"[Adjacent({flight}, ?s, ?s2)]"
    )
    return Booking(text, client, partner, flight)


def flight_bookings(seed: int, flight: int) -> list[Booking]:
    """All twelve bookings of one flight, in Random arrival order.

    Six coordination pairs fill the flight exactly, so every booking is
    satisfiable in any order and every pair could sit together.
    """
    rng = random.Random(f"{seed}/flight/{flight}")
    seats = len(seat_labels())
    arrivals = []
    for first in range(0, seats, 2):
        a, b = passenger(flight, first), passenger(flight, first + 1)
        arrivals.append(booking(a, b, flight))
        arrivals.append(booking(b, a, flight))
    rng.shuffle(arrivals)
    return arrivals


def owned_flights(flights: Sequence[int], connection: int, connections: int):
    """Flights whose index is ``connection`` modulo ``connections``."""
    return [f for i, f in enumerate(flights) if i % connections == connection]


def booking_streams(
    seed: int, flights: Sequence[int], connections: int
) -> list[list[Op]]:
    """Per connection: its flights' bookings merged in a random order.

    Each flight keeps its own arrival order inside the merge, so every
    partition sees the same operation sequence however the connections'
    requests interleave at the server.
    """
    streams = []
    for connection in range(connections):
        queues = [
            flight_bookings(seed, flight)
            for flight in owned_flights(flights, connection, connections)
        ]
        rng = random.Random(f"{seed}/merge/{connection}")
        order = [i for i, queue in enumerate(queues) for _ in queue]
        rng.shuffle(order)
        cursors = [0] * len(queues)
        stream = []
        for i in order:
            stream.append(Op("book", booking=queues[i][cursors[i]]))
            cursors[i] += 1
        streams.append(stream)
    return streams


def mixed_streams(
    seed: int, flights: Sequence[int], connections: int
) -> list[list[Op]]:
    """Booking streams with reads, check-ins and blind writes mixed in.

    After each booking one extra operation may follow: a collapse read of
    a passenger this stream booked earlier, a check-in of an earlier
    booking, or a blind insert+delete of an extra seat on an owned flight
    (always acceptable: no other stream touches that flight in between).
    """
    streams = []
    for connection, base in enumerate(booking_streams(seed, flights, connections)):
        rng = random.Random(f"{seed}/mix/{connection}")
        owned = owned_flights(flights, connection, connections)
        stream: list[Op] = []
        booked: list[int] = []  # indices (in `stream`) of earlier bookings
        for op in base:
            booked.append(len(stream))
            stream.append(op)
            draw = rng.random()
            if draw < MIX_READ:
                earlier = stream[rng.choice(booked)].booking
                stream.append(
                    Op("read", name=earlier.client, flight=earlier.flight)
                )
            elif draw < MIX_READ + MIX_CHECK_IN:
                stream.append(Op("check_in", index=rng.choice(booked)))
            elif draw < MIX_READ + MIX_CHECK_IN + MIX_WRITE:
                stream.append(
                    Op("write", flight=rng.choice(owned), seat=EXTRA_SEAT)
                )
        streams.append(stream)
    return streams


def booked_rows(seed: int, flights: Sequence[int]) -> list[tuple[str, int, str]]:
    """``Bookings`` rows of fully pre-booked flights (set-up data)."""
    rows = []
    for flight in flights:
        seats = seat_labels()
        random.Random(f"{seed}/booked/{flight}").shuffle(seats)
        rows.extend(
            (passenger(flight, i), flight, seat) for i, seat in enumerate(seats)
        )
    return rows


def lookup_streams(
    seed: int,
    booked: Sequence[tuple[str, int, str]],
    open_flights: Sequence[int],
    connections: int,
) -> list[list[Op]]:
    """Point lookups of pre-booked passengers around sparse live bookings.

    The number of lookups before each booking varies around
    ``LOOKUPS_PER_COMMIT``: with equal gaps the connections would commit
    in lockstep, and no lookup would ever queue behind a commit.
    """
    streams = []
    for connection, bookings in enumerate(
        booking_streams(seed, open_flights, connections)
    ):
        rng = random.Random(f"{seed}/lookup/{connection}")
        stream = []
        for op in bookings:
            gap = rng.randint(LOOKUPS_PER_COMMIT // 2, 3 * LOOKUPS_PER_COMMIT // 2)
            for _ in range(gap):
                name, flight, seat = rng.choice(booked)
                stream.append(Op("lookup", name=name, flight=flight, seat=seat))
            stream.append(op)
        streams.append(stream)
    return streams


def store_rows(seed: int, first: int, count: int) -> list[tuple[int, str]]:
    """``count`` rows ``(id, payload)`` with ids from ``first`` upwards."""
    rng = random.Random(f"{seed}/rows/{first}")
    bits = STORE_PAYLOAD_CHARS * 4
    return [
        (first + i, f"{rng.getrandbits(bits):0{STORE_PAYLOAD_CHARS}x}")
        for i in range(count)
    ]


def store_transactions(seed: int, rows: Sequence[tuple[int, str]], count: int):
    """``count`` transactions, each replacing the oldest live rows.

    Returns ``(deletes, inserts)`` pairs; the store must hold at least
    ``count * STORE_ROWS_PER_TXN`` rows so that every delete hits a row
    of the initial load.
    """
    if len(rows) < count * STORE_ROWS_PER_TXN:
        raise ValueError("store too small for the requested churn")
    fresh = store_rows(seed, rows[-1][0] + 1, count * STORE_ROWS_PER_TXN)
    step = STORE_ROWS_PER_TXN
    return [
        (rows[i * step : (i + 1) * step], fresh[i * step : (i + 1) * step])
        for i in range(count)
    ]


def stream_hash(streams) -> str:
    """A digest of generated data, for the determinism tests."""
    return hashlib.sha256(repr(streams).encode()).hexdigest()
