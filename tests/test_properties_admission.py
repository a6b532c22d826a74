"""Property-based tests for the incremental admission fast path.

A deterministic, seeded workload generator produces mixed streams of
resource transactions (flexible, flight-pinned and seat-pinned bookings),
blind writes (inserts and deletes on ``Available``), collapsing reads and
explicit check-ins.  Two properties are asserted over many seeds:

* **consistency** — after admitting a stream and grounding everything,
  the extensional database is consistent: every committed booking holds
  exactly one seat, no booked seat is still available, physical capacity
  is respected, and the pending-transactions table is empty;
* **fast path ≡ slow path** — the witness cache is a pure fast path: with
  it enabled and disabled the same stream produces identical accept/reject
  decisions (for transactions *and* blind writes) and an identical final
  extensional state.

The generator uses ``random.Random(seed)`` only — no global RNG state — so
every failure reproduces from its seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

import pytest

from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.errors import ReproError
from repro.relational.database import Database

FLIGHTS = (1, 2)


@dataclass(frozen=True)
class Op:
    """One step of a generated workload stream."""

    kind: str  # "book" | "insert" | "delete" | "read" | "check_in"
    client: str | None = None
    flight: Any = None
    seat: Any = None
    #: For "check_in": index (into the stream so far) of the booking to fix.
    target: int | None = None


def generate_stream(seed: int, *, length: int = 18) -> tuple[int, list[Op]]:
    """A deterministic mixed stream; returns ``(seats_per_flight, ops)``."""
    rng = random.Random(seed)
    seats_per_flight = rng.randint(2, 4)
    seats = [f"S{i}" for i in range(seats_per_flight)]
    ops: list[Op] = []
    bookings = 0
    for index in range(length):
        roll = rng.random()
        if roll < 0.55:
            client = f"u{bookings}"
            bookings += 1
            mode = rng.random()
            if mode < 0.4:  # any seat on any flight
                ops.append(Op("book", client=client))
            elif mode < 0.8:  # any seat on a specific flight
                ops.append(Op("book", client=client, flight=rng.choice(FLIGHTS)))
            else:  # a specific seat
                ops.append(
                    Op(
                        "book",
                        client=client,
                        flight=rng.choice(FLIGHTS),
                        seat=rng.choice(seats),
                    )
                )
        elif roll < 0.7:
            ops.append(
                Op("delete", flight=rng.choice(FLIGHTS), seat=rng.choice(seats))
            )
        elif roll < 0.8:
            # Always a brand-new seat: re-inserting an existing label could
            # re-open a seat that is already booked, which no consistent
            # seat-map workload would do (and which the key constraint on
            # Bookings would later reject).
            ops.append(Op("insert", flight=rng.choice(FLIGHTS), seat=f"X{index}"))
        elif roll < 0.9:
            ops.append(Op("read", flight=rng.choice(FLIGHTS)))
        else:
            ops.append(Op("check_in", target=rng.randrange(max(bookings, 1))))
    return seats_per_flight, ops


def seat_database(seats_per_flight: int) -> Database:
    database = Database()
    database.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    database.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    for flight in FLIGHTS:
        for index in range(seats_per_flight):
            database.insert("Available", (flight, f"S{index}"))
    return database


def booking_text(op: Op) -> str:
    flight = op.flight if op.flight is not None else "?f"
    seat = f"'{op.seat}'" if op.seat is not None else "?s"
    return (
        f"-Available({flight}, {seat}), "
        f"+Bookings('{op.client}', {flight}, {seat}) "
        f":-1 Available({flight}, {seat})"
    )


def run_stream(
    seed: int, *, witness: bool
) -> tuple[list[tuple[str, str]], QuantumDatabase, list[str]]:
    """Drive one stream; returns (decisions, qdb, committed clients)."""
    seats_per_flight, ops = generate_stream(seed)
    qdb = QuantumDatabase(
        seat_database(seats_per_flight), QuantumConfig(witness_cache=witness)
    )
    decisions: list[tuple[str, str]] = []
    committed: list[str] = []
    booking_ids: list[int] = []
    for op in ops:
        if op.kind == "book":
            result = qdb.execute(booking_text(op))
            if result.committed:
                committed.append(op.client)
                booking_ids.append(result.transaction_id)
            decisions.append(("book", "commit" if result.committed else "reject"))
        elif op.kind in ("insert", "delete"):
            try:
                if op.kind == "insert":
                    qdb.insert("Available", (op.flight, op.seat))
                else:
                    qdb.delete("Available", (op.flight, op.seat))
                decisions.append((op.kind, "ok"))
            except ReproError as exc:
                decisions.append((op.kind, type(exc).__name__))
        elif op.kind == "read":
            rows = qdb.read("Bookings", [None, op.flight, None])
            decisions.append(("read", str(len(rows))))
        else:  # check_in
            if booking_ids:
                target = booking_ids[op.target % len(booking_ids)]
                record = qdb.check_in(target)
                decisions.append(
                    ("check_in", "none" if record is None else "grounded")
                )
            else:
                decisions.append(("check_in", "skipped"))
    return decisions, qdb, committed


def snapshot(qdb: QuantumDatabase) -> dict[str, set]:
    return {
        "Available": set(qdb.table("Available").snapshot()),
        "Bookings": set(qdb.table("Bookings").snapshot()),
    }


SEEDS = range(25)


class TestAdmissionConsistency:
    """Property (a): admit-then-ground-all yields a consistent store."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ground_all_consistent(self, seed):
        decisions, qdb, committed = run_stream(seed, witness=True)
        qdb.ground_all()
        assert qdb.pending_count == 0
        assert not qdb.pending_store.pending_ids()

        bookings = qdb.table("Bookings").snapshot()
        available = set(qdb.table("Available").snapshot())
        # Every committed transaction got exactly the one seat it was
        # guaranteed at commit time.
        booked_clients = [passenger for passenger, _f, _s in bookings]
        assert sorted(booked_clients) == sorted(committed)
        assert len(booked_clients) == len(set(booked_clients))
        # A booked seat is no longer available (the delete executed).
        for _passenger, flight, seat in bookings:
            assert (flight, seat) not in available
        # The per-key uniqueness of (flight, seat) is enforced physically.
        seats = [(flight, seat) for _p, flight, seat in bookings]
        assert len(seats) == len(set(seats))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_committed_guarantees_survive_writes(self, seed):
        """No accepted write may strand a committed transaction."""
        _decisions, qdb, committed = run_stream(seed, witness=True)
        records = qdb.ground_all()
        for record in records:
            # Every executed statement really landed (a fully pinned
            # transaction has an empty valuation, so check effects instead).
            if record.transaction.variables():
                assert record.valuation, record
        booked = {p for p, _f, _s in qdb.table("Bookings").snapshot()}
        assert set(committed) <= booked


class TestFastPathEquivalence:
    """Property (b): the witness cache never changes any decision."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_identical_decisions_and_state(self, seed):
        fast_decisions, fast_qdb, fast_committed = run_stream(seed, witness=True)
        slow_decisions, slow_qdb, slow_committed = run_stream(seed, witness=False)
        assert fast_decisions == slow_decisions
        assert fast_committed == slow_committed
        fast_qdb.ground_all()
        slow_qdb.ground_all()
        assert snapshot(fast_qdb) == snapshot(slow_qdb)
        # The fast path must actually be consulted (the equivalence would be
        # vacuous otherwise).  Hits only count *successful* extensions, so a
        # stream of mutually conflicting requests can legitimately have none.
        stats = fast_qdb.cache_statistics
        if len(fast_committed) > 2:
            assert stats.witness_hits + stats.witness_misses > 0
        assert slow_qdb.cache_statistics.witness_hits == 0
        assert (
            stats.composed_body_passes()
            <= slow_qdb.cache_statistics.composed_body_passes()
        )
