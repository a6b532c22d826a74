"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.relational.database import Database
from repro.relational.wal import encode_frame, scan_frames
from repro.workloads.flights import (
    FlightDatabaseSpec,
    build_flight_database,
)


def first_frames(dump: bytes, count: int) -> bytes:
    """The first ``count`` frames of a ``WriteAheadLog.dump()``.

    What a crash right after the log's ``count``-th record leaves behind:
    cut at a frame boundary, so :meth:`WriteAheadLog.load` reads it whole.
    """
    payloads = scan_frames(dump).payloads
    assert 0 <= count <= len(payloads)
    return b"".join(map(encode_frame, payloads[:count]))


@pytest.fixture
def flight_spec() -> FlightDatabaseSpec:
    """A small flight database: one flight, three rows (nine seats)."""
    return FlightDatabaseSpec(num_flights=1, rows_per_flight=3, first_flight_number=123)


@pytest.fixture
def flight_db(flight_spec: FlightDatabaseSpec) -> Database:
    """A populated flight database."""
    return build_flight_database(flight_spec)


@pytest.fixture
def quantum_db(flight_db: Database) -> QuantumDatabase:
    """A quantum database over the small flight database."""
    return QuantumDatabase(flight_db, QuantumConfig())


def make_tiny_flight_db(seats: int = 3, flight: int = 123) -> Database:
    """A single-row flight with ``seats`` seats (helper for focused tests)."""
    database = Database()
    database.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    database.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    database.create_table(
        "Adjacent", ["flight", "seat1", "seat2"], key=["flight", "seat1", "seat2"]
    )
    labels = [f"1{chr(ord('A') + i)}" for i in range(seats)]
    for label in labels:
        database.insert("Available", (flight, label))
    for left, right in zip(labels, labels[1:]):
        database.insert("Adjacent", (flight, left, right))
        database.insert("Adjacent", (flight, right, left))
    return database


@pytest.fixture
def tiny_flight_db() -> Database:
    """A single flight with one row of three seats."""
    return make_tiny_flight_db()
