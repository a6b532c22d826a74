"""``Table.probe`` against the frozen name-based lookup, row for row.

Every equality lookup — the search kernel's candidate rows and membership
tests, the query executor's, ``provably_unsatisfiable`` and
``Table.lookup`` — goes through ``Table.probe(mask, values)``, which
resolves its access plan once per bound-position mask.  These tests hold
it, for every mask of each table below and for value vectors that match
one row, many rows or none, to the index choice and the lookup the table
had before (``reference_lookup.py``): the same index, and the same rows in
the same order.
"""

from __future__ import annotations

import itertools

import pytest
import reference_lookup

from repro.relational.schema import TableSchema
from repro.relational.table import Table
from repro.workloads.flights import FlightDatabaseSpec, build_flight_database

#: A value no table below stores, so a vector holding it matches nothing.
MISSING = "missing"


def flight_tables() -> dict[str, Table]:
    """The three flight tables, populated, with a few bookings."""
    database = build_flight_database(FlightDatabaseSpec(num_flights=3, rows_per_flight=2))
    available = database.table("Available")
    bookings = database.table("Bookings")
    for passenger, row in zip(["Mickey", "Goofy", "Donald", "Mickey"], available.rows()[::3]):
        available.delete(row)
        bookings.insert((passenger, *row.values))
    return {name: database.table(name) for name in ("Available", "Bookings", "Adjacent")}


def bookings_table(*, flight_index: bool = False) -> Table:
    """``test_table_index.py``'s table (primary key only, or with its
    secondary ``flight`` index)."""
    table = Table(TableSchema("Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]))
    table.insert(("Mickey", 1, "1A"))
    table.insert(("Goofy", 1, "1B"))
    table.insert(("Donald", 2, "1A"))
    if flight_index:
        table.create_index(["flight"])
    return table


def unindexed_table() -> Table:
    """Only the all-column primary key: every other mask scans."""
    table = Table(TableSchema("Wide", ["a", "b", "c"], key=["a", "b", "c"]))
    for values in itertools.product([1, 2], ["x", "y"], [True, False]):
        table.insert(values)
    return table


def tied_table() -> Table:
    """Two one-column secondary indexes: the first declared wins ties."""
    table = Table(TableSchema("Tied", ["k", "b", "c"], key=["k"]))
    table.create_index(["b"])
    table.create_index(["c"])
    for key, (b, c) in enumerate(itertools.product([1, 2, 3], ["p", "q"])):
        table.insert((key, b, c))
    return table


def tables() -> dict[str, Table]:
    return {
        **flight_tables(),
        "test_table_index": bookings_table(),
        "test_table_index+flight": bookings_table(flight_index=True),
        "unindexed": unindexed_table(),
        "tied": tied_table(),
    }


TABLE_NAMES = list(tables())


def vectors(table: Table) -> list[tuple]:
    """Every combination of a stored value (or :data:`MISSING`) per position."""
    columns = [
        sorted({row.values[position] for row in table} | {MISSING}, key=repr)
        for position in range(table.schema.arity)
    ]
    return list(itertools.product(*columns))


def assert_agrees(table: Table, mask: int, values: tuple) -> None:
    names = table.schema.column_names
    positions = [position for position in range(len(names)) if mask >> position & 1]
    columns = [names[position] for position in positions]
    bound = [values[position] for position in positions]
    expected = [id(row) for row in reference_lookup.lookup(table, columns, bound)]
    assert [id(row) for row in table.probe(mask, values)] == expected
    assert [id(row) for row in table.lookup(columns, bound)] == expected
    # Column order does not matter to the wrapper.
    assert [id(row) for row in table.lookup(columns[::-1], bound[::-1])] == expected
    assert table.plan(mask).index is reference_lookup.best_index(table, columns)


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_every_mask_agrees_with_the_name_based_lookup(name):
    table = tables()[name]
    for mask in range(1 << table.schema.arity):
        for values in vectors(table):
            assert_agrees(table, mask, values)


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_cached_plans_agree_after_rows_change(name):
    table = tables()[name]
    for mask in range(1 << table.schema.arity):
        table.plan(mask)
    rows = table.rows()
    for row in rows[::2]:
        table.delete(row)
    for row in rows[::4]:
        table.insert(row)
    for mask in range(1 << table.schema.arity):
        for values in vectors(table):
            assert_agrees(table, mask, values)


def test_some_masks_scan_and_some_filter():
    # The oracle above covers all three shapes of plan.
    wide = unindexed_table()
    assert wide.plan(0b011).index is None and not wide.plan(0b011).exact
    assert wide.plan(0).index is None and wide.plan(0).exact
    bookings = flight_tables()["Bookings"]
    plan = bookings.plan(0b111)
    assert plan.index.columns == ("flight", "seat") and plan.residual == (0,)
    assert bookings.plan(0b110).exact
    assert tied_table().plan(0b110).index.columns == ("b",)


def test_create_index_replaces_a_cached_plan():
    table = bookings_table()
    flight = 0b010
    assert table.plan(flight).index is None  # the scan, cached
    assert_agrees(table, flight, ("x", 1, "x"))
    index = table.create_index(["flight"])
    assert table.plan(flight).index is index
    for values in vectors(table):
        assert_agrees(table, flight, values)
    # A wider index takes over the masks it covers, and only those.
    passenger_flight = 0b011
    before = table.plan(passenger_flight).index
    assert before is index
    wider = table.create_index(["passenger", "flight"])
    assert table.plan(passenger_flight).index is wider
    assert table.plan(flight).index is index
    for mask in range(1 << table.schema.arity):
        for values in vectors(table):
            assert_agrees(table, mask, values)


def test_an_exact_plan_returns_the_bucket_without_a_generator():
    table = bookings_table()
    rows = table.probe(0b110, ("ignored", 1, "1B"))
    assert not hasattr(rows, "__next__")
    assert [row["passenger"] for row in rows] == ["Goofy"]
    assert list(table.probe(0b110, ("ignored", 9, "9Z"))) == []
