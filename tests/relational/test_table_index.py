"""Tests for tables (key enforcement, indexes, lookups, snapshots)."""

from __future__ import annotations

import pytest

from repro.errors import KeyViolationError, MissingRowError
from repro.relational.index import HashIndex
from repro.relational.schema import TableSchema
from repro.relational.table import Table


@pytest.fixture
def bookings() -> Table:
    table = Table(TableSchema("Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]))
    table.insert(("Mickey", 1, "1A"))
    table.insert(("Goofy", 1, "1B"))
    table.insert(("Donald", 2, "1A"))
    return table


class TestTableBasics:
    def test_insert_and_len(self, bookings):
        assert len(bookings) == 3

    def test_key_violation(self, bookings):
        with pytest.raises(KeyViolationError):
            bookings.insert(("Pluto", 1, "1A"))

    def test_get_by_key(self, bookings):
        row = bookings.get((1, "1B"))
        assert row is not None and row["passenger"] == "Goofy"
        assert bookings.get((9, "9Z")) is None

    def test_contains(self, bookings):
        row = bookings.get((1, "1A"))
        assert row in bookings

    def test_delete(self, bookings):
        bookings.delete(("Mickey", 1, "1A"))
        assert len(bookings) == 2
        assert bookings.get((1, "1A")) is None

    def test_delete_removes_the_row_its_key_names(self, bookings):
        # Deletes are by key: the non-key values of the statement are not
        # compared, and the stored row is what comes back.
        removed = bookings.delete(("Nobody", 2, "1A"))
        assert removed["passenger"] == "Donald"
        assert bookings.get((2, "1A")) is None

    def test_delete_missing(self, bookings):
        with pytest.raises(MissingRowError):
            bookings.delete(("Nobody", 7, "7A"))

    def test_insert_mapping(self, bookings):
        bookings.insert({"passenger": "Minnie", "flight": 3, "seat": "2C"})
        assert bookings.get((3, "2C"))["passenger"] == "Minnie"

    def test_clear(self, bookings):
        bookings.clear()
        assert len(bookings) == 0


class TestLookupAndIndexes:
    def test_lookup_without_index_scans(self, bookings):
        rows = list(bookings.lookup(["passenger"], ["Goofy"]))
        assert len(rows) == 1 and rows[0]["seat"] == "1B"

    def test_lookup_with_secondary_index(self, bookings):
        index = bookings.create_index(["flight"])
        assert len(index) == 3
        rows = list(bookings.lookup(["flight"], [1]))
        assert {r["passenger"] for r in rows} == {"Mickey", "Goofy"}

    def test_index_maintained_on_mutation(self, bookings):
        bookings.create_index(["flight"])
        bookings.insert(("Minnie", 1, "1C"))
        bookings.delete(("Mickey", 1, "1A"))
        rows = list(bookings.lookup(["flight"], [1]))
        assert {r["passenger"] for r in rows} == {"Goofy", "Minnie"}

    def test_primary_key_lookup_uses_unique_index(self, bookings):
        rows = list(bookings.lookup(["flight", "seat"], [2, "1A"]))
        assert len(rows) == 1 and rows[0]["passenger"] == "Donald"

    def test_plan_prefers_more_columns(self, bookings):
        flight_index = bookings.create_index(["flight"])
        best = bookings.plan(0b110).index
        assert best is not None and set(best.columns) == {"flight", "seat"}
        assert bookings.plan(0b010).index is flight_index
        assert bookings.plan(0b001).index is None

    def test_create_index_idempotent(self, bookings):
        first = bookings.create_index(["flight"])
        second = bookings.create_index(["flight"])
        assert first is second

    def test_index_covers(self):
        schema = TableSchema("T", ["a", "b"])
        index = HashIndex(schema, ["a"])
        assert index.covers({"a", "b"})
        assert not index.covers({"b"})


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self, bookings):
        snapshot = bookings.snapshot()
        bookings.delete(("Mickey", 1, "1A"))
        bookings.restore(snapshot)
        assert len(bookings) == 3
        assert bookings.get((1, "1A"))["passenger"] == "Mickey"

    def test_copy_is_independent(self, bookings):
        clone = bookings.copy()
        clone.delete(("Mickey", 1, "1A"))
        assert len(bookings) == 3
        assert len(clone) == 2

    def test_copy_preserves_secondary_indexes(self, bookings):
        bookings.create_index(["flight"])
        clone = bookings.copy()
        rows = list(clone.lookup(["flight"], [1]))
        assert len(rows) == 2
