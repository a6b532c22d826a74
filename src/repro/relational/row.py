"""Immutable row representation used throughout the relational engine."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.relational.schema import TableSchema


class Row:
    """An immutable tuple of column values tied to a table schema.

    Rows compare and hash by (table name, values), which is what key
    enforcement and possible-world comparisons need.  ``key`` is the
    primary-key projection of ``values``, computed once here; a table's row
    map is keyed by this same tuple.
    """

    __slots__ = ("schema", "values", "key")

    def __init__(self, schema: TableSchema, values: Sequence[Any]) -> None:
        self.schema = schema
        self.values: tuple[Any, ...] = schema.validate_values(values)
        self.key: tuple[Any, ...] = schema.key_of(self.values)

    # -- access -------------------------------------------------------------

    def __getitem__(self, column: str | int) -> Any:
        if isinstance(column, int):
            return self.values[column]
        return self.values[self.schema.position(column)]

    def get(self, column: str, default: Any = None) -> Any:
        """Return the value of ``column`` or ``default`` if it is unknown."""
        if not self.schema.has_column(column):
            return default
        return self[column]

    def as_dict(self) -> dict[str, Any]:
        """Return the row as a column-name → value mapping."""
        return dict(zip(self.schema.column_names, self.values))

    @property
    def table_name(self) -> str:
        """Name of the table this row belongs to."""
        return self.schema.name

    def replace(self, **updates: Any) -> "Row":
        """Return a copy of the row with the given columns replaced."""
        data = self.as_dict()
        data.update(updates)
        return Row(self.schema, self.schema.values_from_mapping(data))

    # -- dunder -------------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.schema.name == other.schema.name and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.schema.name, self.values))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"{self.table_name}({inner})"


def restored_rows(
    schema: TableSchema, snapshot: Iterable[Sequence[Any]]
) -> Iterator[Row]:
    """The rows of ``snapshot``, each validated as :class:`Row` validates it.

    A snapshot whose value tuples all pass unchanged
    (:meth:`TableSchema.exact_rows`, decided a column at a time) builds
    its rows without validating each one again; any other goes through
    :class:`Row` row by row, which coerces or raises.
    """
    snapshot = tuple(snapshot)
    if not schema.exact_rows(snapshot):
        for values in snapshot:
            yield Row(schema, values)
        return
    key_of = schema.key_of
    new = Row.__new__
    for values in snapshot:
        row = new(Row)
        row.schema = schema
        row.values = values
        row.key = key_of(values)
        yield row
