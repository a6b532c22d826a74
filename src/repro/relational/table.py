"""Key-enforced heap tables with incremental index maintenance."""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import KeyViolationError, MissingRowError, SchemaError
from repro.relational.index import HashIndex
from repro.relational.row import Row
from repro.relational.schema import TableSchema


class Table:
    """A single relation: a set of rows plus its indexes.

    Tables enforce set semantics through the schema's primary key, which is
    the assumption the composition theorem of the paper relies on (Section
    3.2.1): the tuple deleted by one pending transaction can never be the
    tuple another pending transaction's body grounds on, unless they unify.

    The table keeps a unique index on the primary key and any number of
    secondary hash indexes, all maintained incrementally on insert/delete.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[tuple[Any, ...], Row] = {}
        self._primary = HashIndex(schema, schema.key, unique=True)
        self._secondary: dict[tuple[str, ...], HashIndex] = {}

    # -- metadata -----------------------------------------------------------

    @property
    def name(self) -> str:
        """Table name."""
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def __contains__(self, row: Row) -> bool:
        existing = self._rows.get(row.key)
        return existing is not None and existing == row

    # -- index management ---------------------------------------------------

    def create_index(self, columns: Sequence[str]) -> HashIndex:
        """Create (or return an existing) secondary index on ``columns``."""
        key = tuple(columns)
        if key in self._secondary:
            return self._secondary[key]
        index = HashIndex(self.schema, key)
        index.rebuild(self._rows.values())
        self._secondary[key] = index
        return index

    def indexes(self) -> tuple[HashIndex, ...]:
        """All indexes on this table, primary first."""
        return (self._primary, *self._secondary.values())

    def best_index(self, bound_columns: Iterable[str]) -> HashIndex | None:
        """Return the most selective index usable given ``bound_columns``.

        An index is usable when all its columns appear in ``bound_columns``;
        the index with the largest number of columns is preferred.
        """
        bound = set(bound_columns)
        best: HashIndex | None = None
        for index in self.indexes():
            if index.covers(bound):
                if best is None or len(index.columns) > len(best.columns):
                    best = index
        return best

    # -- mutation -----------------------------------------------------------

    def make_row(self, values: Sequence[Any] | Mapping[str, Any]) -> Row:
        """Build a :class:`Row` for this table from positional or named values."""
        if isinstance(values, Mapping):
            return Row(self.schema, self.schema.values_from_mapping(values))
        return Row(self.schema, values)

    def insert(self, values: Sequence[Any] | Mapping[str, Any] | Row) -> Row:
        """Insert a row, enforcing the primary key.

        Raises:
            KeyViolationError: if a row with the same key already exists.
        """
        row = values if isinstance(values, Row) else self.make_row(values)
        if row.schema is not self.schema and row.schema != self.schema:
            raise SchemaError(
                f"row for table {row.table_name!r} inserted into {self.name!r}"
            )
        if row.key in self._rows:
            raise KeyViolationError(
                f"table {self.name!r} already contains key {row.key!r}"
            )
        self._rows[row.key] = row
        self._primary.add(row)
        for index in self._secondary.values():
            index.add(row)
        return row

    def delete(self, values: Sequence[Any] | Mapping[str, Any] | Row) -> Row:
        """Delete the row identified by the given values' key.

        Raises:
            MissingRowError: if no row with that key exists.
        """
        row = values if isinstance(values, Row) else self.make_row(values)
        existing = self._rows.pop(row.key, None)
        if existing is None:
            raise MissingRowError(
                f"table {self.name!r} has no row with key {row.key!r}"
            )
        self._primary.remove(existing)
        for index in self._secondary.values():
            index.remove(existing)
        return existing

    def delete_by_key(self, key: Sequence[Any]) -> Row:
        """Delete the row with primary key ``key``."""
        existing = self._rows.pop(tuple(key), None)
        if existing is None:
            raise MissingRowError(
                f"table {self.name!r} has no row with key {tuple(key)!r}"
            )
        self._primary.remove(existing)
        for index in self._secondary.values():
            index.remove(existing)
        return existing

    def clear(self) -> None:
        """Remove every row."""
        self._rows.clear()
        self._primary.clear()
        for index in self._secondary.values():
            index.clear()

    # -- lookup -------------------------------------------------------------

    def get(self, key: Sequence[Any]) -> Row | None:
        """Return the row with primary key ``key``, or None."""
        return self._rows.get(tuple(key))

    def contains_key(self, key: Sequence[Any]) -> bool:
        """True if a row with the given primary key exists."""
        return tuple(key) in self._rows

    def scan(self) -> Iterator[Row]:
        """Full scan over all rows (iteration order is insertion order)."""
        return iter(self._rows.values())

    def rows(self) -> list[Row]:
        """All rows as a list (convenience for tests and snapshots)."""
        return list(self._rows.values())

    def lookup(self, columns: Sequence[str], values: Sequence[Any]) -> Iterator[Row]:
        """Yield rows matching equality on ``columns`` = ``values``.

        Uses the best available index, otherwise falls back to a scan.
        """
        index = self.best_index(columns)
        pairs = dict(zip(columns, values))
        if index is not None and set(index.columns) == set(columns):
            key = tuple(pairs[c] for c in index.columns)
            yield from index.lookup(key)
            return
        if index is not None:
            key = tuple(pairs[c] for c in index.columns)
            candidates: Iterable[Row] = index.lookup(key)
        else:
            candidates = self.scan()
        remaining = {c: v for c, v in pairs.items()}
        for row in candidates:
            if all(row[c] == v for c, v in remaining.items()):
                yield row

    # -- snapshot support ---------------------------------------------------

    def snapshot(self) -> list[tuple[Any, ...]]:
        """Return all row value tuples (used by recovery and possible worlds)."""
        return [row.values for row in self._rows.values()]

    def restore(self, snapshot: Iterable[Sequence[Any]]) -> None:
        """Replace the table contents with ``snapshot``."""
        self.clear()
        for values in snapshot:
            self.insert(values)

    def copy(self) -> "Table":
        """Deep copy of the table (rows are immutable and shared)."""
        clone = Table(self.schema)
        for columns in self._secondary:
            clone.create_index(columns)
        for row in self._rows.values():
            clone.insert(row)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Table {self.name} rows={len(self)}>"
