"""``Table.restore`` and ``Table.copy`` against per-row ``insert``.

A restore fills the row map in snapshot order and rebuilds each secondary
index once; a copy shares the rows and copies the row map and the buckets.
Neither goes through :meth:`Table.insert`, so these tests hold both to it:
for seeded random snapshots and edit histories, with and without secondary
indexes and for several key shapes, the scan order, the row order of every
index bucket and the answer of every probe mask must be what inserting the
same rows one at a time gives.  A repeated key and an ill-typed value must
raise what the per-row path raised.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.errors import KeyViolationError, SchemaError, TypeMismatchError
from repro.relational.datatypes import DataType
from repro.relational.index import PrimaryKeyIndex
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table

#: Key shapes: a reordered compound key, one column, the whole row.
KEYS = {"b,a": ["b", "a"], "c": ["c"], "row": None}
#: Secondary index sets, none included.
SECONDARY = {"none": [], "a": [["a"]], "a+c,b": [["a"], ["c", "b"]]}

A, B, C = range(3), ["x", "y", "z"], [True, False, 1.5, None]


def schema(key) -> TableSchema:
    return TableSchema(
        "T",
        [Column("a", DataType.INTEGER), "b", Column("c", DataType.ANY)],
        key=key,
    )


def empty(key, secondary) -> Table:
    table = Table(schema(key))
    for columns in secondary:
        table.create_index(columns)
    return table


def random_rows(rng: random.Random, key) -> list[tuple]:
    """Distinct-key rows of every shape, in a random order."""
    rows: dict[tuple, tuple] = {}
    key_of = schema(key).key_of
    for _ in range(rng.randrange(0, 40)):
        values = (rng.choice(A), rng.choice(B), rng.choice(C))
        rows.setdefault(key_of(values), values)
    ordered = list(rows.values())
    rng.shuffle(ordered)
    return ordered


def inserted(key, secondary, rows) -> Table:
    """The reference: ``rows`` inserted one at a time into a fresh table."""
    table = empty(key, secondary)
    for values in rows:
        table.insert(values)
    return table


def edited(rng: random.Random, key, secondary) -> Table:
    """A table with a history of inserts and deletes (buckets emptied and
    refilled, so its outer bucket order is not its row order)."""
    table = empty(key, secondary)
    for values in random_rows(rng, key) + random_rows(rng, key):
        if table.get(table.schema.key_of(values)) is None:
            table.insert(values)
        if len(table) and rng.random() < 0.4:
            table.delete(rng.choice(table.rows()))
    return table


def assert_same(table: Table, reference: Table) -> None:
    """Same rows in the same scan order, same bucket order in every index,
    the same answer to every probe mask."""
    assert [row.values for row in table.scan()] == [row.values for row in reference.scan()]
    assert [index.columns for index in table.indexes()] == [
        index.columns for index in reference.indexes()
    ]
    for index, expected in zip(table.indexes(), reference.indexes()):
        assert len(index) == len(expected)
        for row in reference.scan():
            key = tuple(row.values[position] for position in expected.positions)
            assert [r.values for r in index.bucket(key)] == [
                r.values for r in expected.bucket(key)
            ]
    arity = table.schema.arity
    columns = [sorted({*A, "missing"}, key=repr), [*B, "missing"], [*C, "missing"]]
    for mask in range(1 << arity):
        for values in itertools.product(*columns):
            assert [row.values for row in table.probe(mask, values)] == [
                row.values for row in reference.probe(mask, values)
            ]


@pytest.mark.parametrize("secondary", SECONDARY, ids=list(SECONDARY))
@pytest.mark.parametrize("key", KEYS, ids=list(KEYS))
@pytest.mark.parametrize("seed", range(6))
def test_restore_equals_per_row_insert(seed, key, secondary):
    rng = random.Random(seed)
    key, secondary = KEYS[key], SECONDARY[secondary]
    rows = random_rows(rng, key)
    # Restore over a table that already holds other rows and history.
    table = edited(rng, key, secondary)
    table.restore(rows)
    assert_same(table, inserted(key, secondary, rows))


@pytest.mark.parametrize("secondary", SECONDARY, ids=list(SECONDARY))
@pytest.mark.parametrize("key", KEYS, ids=list(KEYS))
@pytest.mark.parametrize("seed", range(6))
def test_copy_equals_per_row_insert(seed, key, secondary):
    rng = random.Random(seed)
    key, secondary = KEYS[key], SECONDARY[secondary]
    table = edited(rng, key, secondary)
    clone = table.copy()
    assert_same(clone, inserted(key, secondary, [row.values for row in table.scan()]))
    assert all(a is b for a, b in zip(clone.scan(), table.scan()))
    # The copy is independent: editing either leaves the other whole.
    before = [row.values for row in table.scan()]
    for row in clone.rows()[::2]:
        clone.delete(row)
    clone.insert((99, "new", "new"))
    assert [row.values for row in table.scan()] == before
    assert_same(table, inserted(key, secondary, before))
    assert_same(clone, inserted(key, secondary, [row.values for row in clone.scan()]))


@pytest.mark.parametrize("secondary", SECONDARY, ids=list(SECONDARY))
def test_a_repeated_key_raises_and_leaves_the_rows_before_it(secondary):
    secondary = SECONDARY[secondary]
    table = empty(["a"], secondary)
    with pytest.raises(KeyViolationError, match="already contains key"):
        table.restore([(1, "x", None), (2, "y", None), (1, "z", None), (3, "w", None)])
    assert_same(table, inserted(["a"], secondary, [(1, "x", None), (2, "y", None)]))


@pytest.mark.parametrize(
    "bad",
    [("one", "x", None), (1, "x", [1]), (1, "x"), (1, "x", None, 4)],
    ids=["ill-typed", "unsupported", "short", "long"],
)
def test_an_invalid_row_raises_what_insert_raises(bad):
    with pytest.raises(SchemaError) as per_row:
        inserted(["a"], [], [(0, "x", None), bad])
    table = empty(["a"], [["b"]])
    with pytest.raises(SchemaError) as bulk:
        table.restore([(0, "x", None), bad])
    assert type(bulk.value) is type(per_row.value)
    assert str(bulk.value) == str(per_row.value)
    assert_same(table, inserted(["a"], [["b"]], [(0, "x", None)]))


def test_restore_coerces_as_insert_does():
    table = Table(TableSchema("F", [Column("f", DataType.FLOAT)]))
    table.restore([(1,)])
    (row,) = table.rows()
    assert type(row.values[0]) is float and table.get((1.0,)) is row
    with pytest.raises(TypeMismatchError):
        table.restore([(True,)])


class TestPrimaryKeyView:
    def test_the_row_map_is_the_primary_index(self):
        table = inserted(["b", "a"], [["a"]], [(1, "x", None), (2, "x", True)])
        primary = table.indexes()[0]
        assert isinstance(primary, PrimaryKeyIndex)
        assert primary.columns == ("b", "a") and primary.positions == (1, 0)
        row = table.get(("x", 2))
        assert primary.bucket(("x", 2)) == (row,)
        assert primary.bucket(("x", 3)) == ()
        assert list(primary.lookup(["x", 2])) == [row]
        assert primary.count(["x", 2]) == 1 and primary.count(["x", 3]) == 0
        assert primary.covers({"a", "b", "c"}) and not primary.covers({"a"})
        assert row.key == ("x", 2) and len(primary) == 2
        table.delete(row)
        assert primary.bucket(("x", 2)) == () and len(primary) == 1
        table.clear()
        assert len(primary) == 0

    def test_a_row_carries_its_key(self):
        table = Table(schema(["b", "a"]))
        row = table.insert((1, "x", None))
        assert row.key == ("x", 1)
        # A key of every column, in order, is the value tuple itself.
        whole = Table(schema(None)).insert((1, "x", None))
        assert whole.key is whole.values

    def test_delete_by_values_or_mapping_finds_the_stored_row(self):
        table = inserted(["b", "a"], [["c"]], [(1, "x", None), (2, "x", True)])
        stored = table.get(("x", 1))
        assert table.delete({"a": 1, "b": "x", "c": "ignored"}) is stored
        assert table.delete((2, "x", False)).values == (2, "x", True)
        assert len(table) == 0 and list(table.lookup(["c"], [True])) == []
        with pytest.raises(SchemaError):
            table.delete(("one", "x", None))
