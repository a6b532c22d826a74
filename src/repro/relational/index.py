"""Secondary hash indexes over tables.

The quantum database's satisfiability checks translate into many-way joins
over the ``Available``, ``Bookings`` and ``Adjacent`` relations.  The paper's
prototype relies on MySQL indexes ("appropriate indices are defined for each
relation"); our substitute is a straightforward hash index keyed on one or
more columns, maintained incrementally by :class:`~repro.relational.table.Table`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relational.row import Row
from repro.relational.schema import TableSchema


class HashIndex:
    """An equality index on one or more columns of a table.

    Args:
        schema: schema of the indexed table.
        columns: the indexed column names, in order.
        unique: when True, at most one row may exist per key (used to back
            primary keys).
    """

    def __init__(
        self, schema: TableSchema, columns: Sequence[str], *, unique: bool = False
    ) -> None:
        if not columns:
            raise SchemaError("an index needs at least one column")
        self.schema = schema
        self.columns: tuple[str, ...] = tuple(columns)
        self.positions: tuple[int, ...] = tuple(schema.position(c) for c in columns)
        self.unique = unique
        # Buckets are insertion-ordered (dict-as-ordered-set) so that lookup
        # order — and therefore every LIMIT 1 query and grounding-search
        # choice built on top of it — is deterministic across processes
        # regardless of PYTHONHASHSEED.
        self._buckets: dict[tuple[Any, ...], dict[Row, None]] = {}

    @property
    def name(self) -> str:
        """Human readable index name (table + columns)."""
        return f"{self.schema.name}({', '.join(self.columns)})"

    def key_for(self, row: Row) -> tuple[Any, ...]:
        """Project ``row`` onto the indexed columns."""
        return tuple(row.values[p] for p in self.positions)

    # -- maintenance --------------------------------------------------------

    def add(self, row: Row) -> None:
        """Register ``row`` with the index."""
        key = self.key_for(row)
        bucket = self._buckets.setdefault(key, {})
        if self.unique and bucket and row not in bucket:
            raise SchemaError(
                f"unique index {self.name} already contains key {key!r}"
            )
        bucket[row] = None

    def remove(self, row: Row) -> None:
        """Remove ``row`` from the index (no-op if absent)."""
        key = self.key_for(row)
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
        """Rebuild the index from scratch over ``rows``."""
        self.clear()
        for row in rows:
            self.add(row)

    # -- lookup -------------------------------------------------------------

    def lookup(self, key: Sequence[Any]) -> Iterator[Row]:
        """Yield all rows whose indexed columns equal ``key``."""
        yield from self._buckets.get(tuple(key), ())

    def bucket(self, key: tuple[Any, ...]) -> Iterable[Row]:
        """The rows stored under ``key``: the live bucket (or an empty tuple)."""
        return self._buckets.get(key, ())

    def count(self, key: Sequence[Any]) -> int:
        """Number of rows stored under ``key``."""
        return len(self._buckets.get(tuple(key), ()))

    def covers(self, columns: Iterable[str]) -> bool:
        """True if this index's columns are a subset of ``columns``."""
        return set(self.columns) <= set(columns)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "unique " if self.unique else ""
        return f"<{kind}HashIndex {self.name} entries={len(self)}>"
