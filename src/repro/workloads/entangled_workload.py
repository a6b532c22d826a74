"""Entangled seat-booking workloads (Section 5.2).

"We created a workload of simulated entangled resource transactions to
model the output of the front-end social travel application ... Our
workload simulates users desiring to coordinate with their friends on
flights and to sit in adjacent seats."

The workload generator produces coordination pairs of users, assigns each
pair to a flight so that every user can get a seat (and every pair *could*
sit together — "in all our workloads, all coordination partners arrive in
the system at some point so full coordination is theoretically achievable"),
and emits the per-user entangled resource transactions in the requested
arrival order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.core.entanglement import (
    EntangledResourceTransaction,
    make_adjacent_seat_request,
)
from repro.workloads.arrival_orders import ArrivalOrder, order_arrivals
from repro.workloads.flights import FlightDatabaseSpec


@dataclass(frozen=True)
class CoordinationPair:
    """A pair of users who want to sit next to each other.

    Attributes:
        first / second: user names.
        flight: the flight both users request (a hard constraint, which is
            what lets the quantum database partition per flight).
    """

    first: str
    second: str
    flight: int

    def members(self) -> tuple[str, str]:
        """Both user names."""
        return (self.first, self.second)


@dataclass
class EntangledWorkload:
    """A generated workload: pairs, arrival order and the transaction stream.

    Attributes:
        spec: the flight database the workload was sized for.
        order: the arrival order used.
        pairs: all coordination pairs.
        transactions: the entangled resource transactions in arrival order.
    """

    spec: FlightDatabaseSpec
    order: ArrivalOrder
    pairs: tuple[CoordinationPair, ...]
    transactions: tuple[EntangledResourceTransaction, ...]

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[EntangledResourceTransaction]:
        return iter(self.transactions)

    @property
    def max_possible_coordinations(self) -> int:
        """Users that can possibly end up adjacent to their partner.

        Bounded both by the workload (2 users per pair) and by the seating
        geometry (2 coordinating users per row).
        """
        return min(2 * len(self.pairs), self.spec.max_coordinating_users)


def make_pairs(
    spec: FlightDatabaseSpec,
    *,
    pairs_per_flight: int | None = None,
    name_prefix: str = "user",
) -> list[CoordinationPair]:
    """Create coordination pairs, assigning each pair a specific flight.

    By default every flight receives as many pairs as it has seats for
    (``seats_per_flight // 2``), so that "upon completion of all
    transactions each user has a seat and all available seats are booked"
    as in the scalability experiment.
    """
    per_flight = (
        pairs_per_flight
        if pairs_per_flight is not None
        else spec.seats_per_flight // 2
    )
    pairs: list[CoordinationPair] = []
    counter = 0
    for flight in spec.flight_numbers():
        for _ in range(per_flight):
            first = f"{name_prefix}{counter}"
            second = f"{name_prefix}{counter + 1}"
            counter += 2
            pairs.append(CoordinationPair(first, second, flight))
    return pairs


def generate_workload(
    spec: FlightDatabaseSpec,
    order: ArrivalOrder,
    *,
    pairs_per_flight: int | None = None,
    seed: int = 0,
    pin_flight: bool = True,
) -> EntangledWorkload:
    """Generate an entangled workload for ``spec`` in the given arrival order.

    Args:
        spec: flight database sizing.
        order: arrival order (Table 1).
        pairs_per_flight: override the default (fill every seat).
        seed: RNG seed for the Random arrival order.
        pin_flight: when True (default) each transaction names its flight
            explicitly — the property that lets the system keep one
            partition per flight; when False users accept any flight.
    """
    pairs = make_pairs(spec, pairs_per_flight=pairs_per_flight)
    users: list[tuple[str, str, int]] = []
    for pair in pairs:
        users.append((pair.first, pair.second, pair.flight))
        users.append((pair.second, pair.first, pair.flight))
    arrivals = order_arrivals(len(pairs), order, rng=random.Random(seed))
    transactions = []
    for index in arrivals:
        client, partner, flight = users[index]
        transactions.append(
            make_adjacent_seat_request(
                client, partner, flight=flight if pin_flight else None
            )
        )
    return EntangledWorkload(
        spec=spec,
        order=order,
        pairs=tuple(pairs),
        transactions=tuple(transactions),
    )
