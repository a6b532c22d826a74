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
from repro.relational.row import Row, restored_rows
from repro.relational.schema import Column, TableSchema
from repro.relational.wal import LogRecord, LogRecordType, WriteAheadLog, encode_frame


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


def built(schema, rows):
    """Each row's typed values and key, or the type of what building raised."""
    try:
        return [
            (type(row.values), typed(row.values), typed(row.key))
            for row in rows
            if row.schema is schema
        ]
    except Exception as exc:  # noqa: BLE001 - compared by type below
        return type(exc)


@pytest.mark.parametrize("first", COLUMNS, ids=repr)
def test_a_restore_builds_what_row_by_row_validation_builds(first):
    # A snapshot of rows that all pass the type test unchanged is decided
    # a column at a time; any other row sends the whole snapshot through
    # ``Row``.  Both must give what ``Row`` gives row by row.
    for second in COLUMNS:
        columns = [first, Column("d", second.datatype, second.nullable)]
        schema = TableSchema("T", columns)
        pairs = list(itertools.product(VALUES, repeat=2))
        unchanged = [p for p in pairs if typed(observed(schema, p)) == typed(p)]
        assert schema.exact_rows(unchanged)
        snapshots = [unchanged, [list(p) for p in unchanged], [*unchanged, (1,)]]
        snapshots += [[*unchanged, p] for p in pairs]
        for snapshot in snapshots:
            assert built(schema, restored_rows(schema, snapshot)) == built(
                schema, (Row(schema, values) for values in snapshot)
            )


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
        recover_database(
            schema, WriteAheadLog.load(encode_frame(checkpoint.to_bytes()))
        )
