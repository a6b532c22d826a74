"""Table indexes: the primary-key view over the row map and hash indexes.

The quantum database's satisfiability checks translate into many-way joins
over the ``Available``, ``Bookings`` and ``Adjacent`` relations.  The paper's
prototype relies on MySQL indexes ("appropriate indices are defined for each
relation"); our substitute is a straightforward hash index keyed on one or
more columns, maintained incrementally by :class:`~repro.relational.table.Table`.
"""

from __future__ import annotations

from typing import Any, Collection, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.relational.row import Row
from repro.relational.schema import TableSchema, projection


class _Index:
    """What every index answers from its columns and its :meth:`bucket`."""

    schema: TableSchema
    columns: tuple[str, ...]
    positions: tuple[int, ...]

    @property
    def name(self) -> str:
        """Human readable index name (table + columns)."""
        return f"{self.schema.name}({', '.join(self.columns)})"

    def bucket(self, key: tuple[Any, ...]) -> Collection[Row]:
        raise NotImplementedError

    def lookup(self, key: Sequence[Any]) -> Iterator[Row]:
        """Yield all rows whose indexed columns equal ``key``."""
        yield from self.bucket(tuple(key))

    def count(self, key: Sequence[Any]) -> int:
        """Number of rows stored under ``key``."""
        return len(self.bucket(tuple(key)))

    def covers(self, columns: Iterable[str]) -> bool:
        """True if this index's columns are a subset of ``columns``."""
        return set(self.columns) <= set(columns)


class PrimaryKeyIndex(_Index):
    """The primary-key index of a table: a view over its row map.

    A table keys its rows by their primary key, so its row map already is
    the unique index on that key; this view only gives it the surface the
    access planner and lookups read.  It holds no copy of its own.

    Args:
        schema: schema of the table.
        rows: the table's row map (primary key → row), read live.
    """

    def __init__(self, schema: TableSchema, rows: Mapping[tuple[Any, ...], Row]) -> None:
        self.schema = schema
        self.columns: tuple[str, ...] = schema.key
        self.positions: tuple[int, ...] = schema.key_positions
        self._rows = rows

    def bucket(self, key: tuple[Any, ...]) -> tuple[Row, ...]:
        """The row stored under ``key`` as a 1-tuple (or an empty tuple)."""
        row = self._rows.get(key)
        return () if row is None else (row,)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PrimaryKeyIndex {self.name} entries={len(self)}>"


class HashIndex(_Index):
    """An equality index on one or more columns of a table.

    Args:
        schema: schema of the indexed table.
        columns: the indexed column names, in order.
    """

    def __init__(self, schema: TableSchema, columns: Sequence[str]) -> None:
        if not columns:
            raise SchemaError("an index needs at least one column")
        self.schema = schema
        self.columns: tuple[str, ...] = tuple(columns)
        self.positions: tuple[int, ...] = tuple(schema.position(c) for c in columns)
        self._project = projection(self.positions)
        # Buckets are insertion-ordered (dict-as-ordered-set) so that lookup
        # order — and therefore every LIMIT 1 query and grounding-search
        # choice built on top of it — is deterministic across processes
        # regardless of PYTHONHASHSEED.
        self._buckets: dict[tuple[Any, ...], dict[Row, None]] = {}

    # -- maintenance --------------------------------------------------------

    def add(self, row: Row) -> None:
        """Register ``row`` with the index."""
        key = self._project(row.values)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = {row: None}
        else:
            bucket[row] = None

    def remove(self, row: Row) -> None:
        """Remove ``row`` from the index (no-op if absent)."""
        key = self._project(row.values)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.pop(row, None)
        if not bucket:
            del self._buckets[key]

    def clear(self) -> None:
        """Drop all entries."""
        self._buckets.clear()

    def rebuild(self, rows: Iterable[Row]) -> None:
        """Rebuild the index from scratch over ``rows``, in their order."""
        self._buckets.clear()
        add = self.add
        for row in rows:
            add(row)

    def copy(self) -> "HashIndex":
        """An index with the same buckets, in the same order (rows shared)."""
        clone = HashIndex(self.schema, self.columns)
        clone._buckets = {key: bucket.copy() for key, bucket in self._buckets.items()}
        return clone

    # -- lookup -------------------------------------------------------------

    def bucket(self, key: tuple[Any, ...]) -> Collection[Row]:
        """The rows stored under ``key``: the live bucket (or an empty tuple)."""
        return self._buckets.get(key, ())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HashIndex {self.name} entries={len(self)}>"
