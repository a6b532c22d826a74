"""``TableSchema.validate_values`` against the per-column reference.

The schema decides a row with one exact type test per value and falls back
to :meth:`Column.validate` for anything that test does not pass.  Here the
row check must agree with mapping ``Column.validate`` over the values — the
same tuple, value types included, or the same exception type — for every
data type, nullability and a set of values chosen to sit on the edges
(``bool`` is an ``int``, ``int`` coerces to ``float``, subclasses, NaN).
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro.errors import TypeMismatchError
from repro.relational import Database, recover_database
from repro.relational.datatypes import DataType
from repro.relational.schema import Column, TableSchema
from repro.relational.wal import LogRecord, LogRecordType, WriteAheadLog


class Name(str):
    pass


class Count(int):
    pass


VALUES = [None, True, 1, 1.5, float("nan"), "x", Name("y"), Count(3), [1]]
COLUMNS = [
    Column("c", datatype, nullable)
    for datatype in DataType
    for nullable in (True, False)
]


def reference(columns, values):
    """What the row check must return or raise: the per-column mapping."""
    try:
        return tuple(column.validate(v) for column, v in zip(columns, values))
    except Exception as exc:  # noqa: BLE001 - compared by type below
        return type(exc)


def observed(schema, values):
    try:
        return schema.validate_values(values)
    except Exception as exc:  # noqa: BLE001 - compared by type below
        return type(exc)


def typed(outcome):
    """An outcome with every value's exact type, NaN made comparable."""
    if isinstance(outcome, type):
        return outcome
    return tuple(
        (type(v), "nan" if isinstance(v, float) and math.isnan(v) else v)
        for v in outcome
    )


@pytest.mark.parametrize("column", COLUMNS, ids=repr)
def test_one_column_matches_column_validate(column):
    schema = TableSchema("T", [column])
    for value in VALUES:
        assert typed(observed(schema, [value])) == typed(reference([column], [value]))


@pytest.mark.parametrize("first", COLUMNS, ids=repr)
def test_two_columns_match_column_validate(first):
    # A first value the type test passes followed by one it must hand to
    # ``Column.validate``, and the reverse.
    for second, values in itertools.product(
        COLUMNS, itertools.product(VALUES, repeat=2)
    ):
        columns = [first, Column("d", second.datatype, second.nullable)]
        schema = TableSchema("T", columns)
        assert typed(observed(schema, values)) == typed(reference(columns, values))


def test_a_tuple_passes_as_is_and_a_list_becomes_a_tuple():
    schema = TableSchema("T", [Column("a", DataType.INTEGER), Column("b")])
    row = (1, "x")
    assert schema.validate_values(row) == row
    assert schema.validate_values([1, "x"]) == row
    assert type(schema.validate_values([1, "x"])) is tuple


def test_a_bool_in_an_integer_column_fails_checkpoint_restore():
    def schema() -> Database:
        database = Database()
        database.create_table(
            "Seats", [Column("flight", DataType.INTEGER), Column("seat")]
        )
        return database

    checkpoint = LogRecord(
        lsn=1,
        record_type=LogRecordType.CHECKPOINT,
        transaction_id=0,
        snapshot={"Seats": [(1, "1A"), (True, "1B")]},
    )
    with pytest.raises(TypeMismatchError, match="boolean"):
        recover_database(schema, WriteAheadLog.load(checkpoint.to_json()))
