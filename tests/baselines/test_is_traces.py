"""The intelligent-social baseline's decisions, pinned to goldens.

Every IS query is a ``LIMIT 1`` join asked of the search kernel
(``GroundingSearch.find_one`` over a conjunction of body atoms), so the
first grounding it finds decides which seat a user gets.  The goldens in
``is_trace_goldens.json`` hold each booking (client, flight, seat, adjacent
to the partner) and the coordination count for every arrival order (Random
under seeds 0-2) on one and three flights of ten rows, with each user's
flight pinned and free.  They were recorded from the store's former
conjunctive-query executor, so they also pin the kernel to the decisions
that engine made.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.intelligent_social import IntelligentSocialClient
from repro.workloads.arrival_orders import ArrivalOrder
from repro.workloads.entangled_workload import generate_workload
from repro.workloads.flights import FlightDatabaseSpec, build_flight_database

GOLDENS = json.loads(
    (Path(__file__).parent / "is_trace_goldens.json").read_text(encoding="utf-8")
)


def trace(flights: int, rows: int, order: ArrivalOrder, seed: int, pinned: bool):
    spec = FlightDatabaseSpec(num_flights=flights, rows_per_flight=rows)
    workload = generate_workload(spec, order, seed=seed)
    flight_of = {}
    for pair in workload.pairs:
        flight_of[pair.first] = flight_of[pair.second] = pair.flight
    client = IntelligentSocialClient(build_flight_database(spec))
    for transaction in workload.transactions:
        flight = flight_of[transaction.client] if pinned else None
        client.book(transaction.client, transaction.partner, flight=flight)
    return {
        "bookings": [
            [b.client, b.flight, b.seat, b.adjacent_to_partner] for b in client.bookings
        ],
        "coordinated": client.coordinated_pairs(),
    }


@pytest.mark.parametrize("case", GOLDENS)
def test_is_trace_matches_its_golden(case):
    size, order, seed, pinning = case.split("/")
    flights, rows = map(int, size.split("x"))
    got = trace(flights, rows, ArrivalOrder[order], int(seed), pinning == "pinned")
    assert got == GOLDENS[case]


def test_goldens_cover_every_order_size_and_pinning():
    cases = {tuple(case.split("/")) for case in GOLDENS}
    for size in ("1x10", "3x10"):
        for pinning in ("pinned", "free"):
            for order in ArrivalOrder:
                seeds = ("0", "1", "2") if order is ArrivalOrder.RANDOM else ("0",)
                for seed in seeds:
                    assert (size, order.name, seed, pinning) in cases
