"""Key-enforced heap tables with incremental index maintenance."""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.errors import KeyViolationError, MissingRowError, SchemaError
from repro.relational.index import HashIndex, PrimaryKeyIndex
from repro.relational.row import Row, restored_rows
from repro.relational.schema import TableSchema, projection


class AccessPlan(NamedTuple):
    """How :meth:`Table.probe` serves one set of bound positions.

    ``index`` is the widest index whose positions are all bound (the first
    declared wins ties), or ``None`` for a scan; ``key`` projects a
    position-indexed value sequence onto its key; ``exact`` says the index
    covers every bound position, so its bucket is the answer; ``residual``
    lists the bound positions the index does not cover, which each
    candidate row is filtered on.
    """

    index: PrimaryKeyIndex | HashIndex | None
    key: Callable[[Sequence[Any]], tuple[Any, ...]] | None
    exact: bool
    residual: tuple[int, ...]


class Table:
    """A single relation: a set of rows plus its indexes.

    Tables enforce set semantics through the schema's primary key, which is
    the assumption the composition theorem of the paper relies on (Section
    3.2.1): the tuple deleted by one pending transaction can never be the
    tuple another pending transaction's body grounds on, unless they unify.

    Rows are kept in a map from primary key to row, which doubles as the
    primary-key index (:class:`PrimaryKeyIndex` is a view over it); any
    number of secondary hash indexes are maintained incrementally on
    insert/delete.
    Every equality lookup — the search kernel's candidate rows and
    membership tests, the query executor's, :meth:`lookup` — goes through
    :meth:`probe`, which resolves its :class:`AccessPlan` once per
    bound-position mask.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        #: Primary key → row, in insertion order.  The primary-key view
        #: reads this very dict, so it is filled and cleared, never rebound.
        self._rows: dict[tuple[Any, ...], Row] = {}
        self._primary = PrimaryKeyIndex(schema, self._rows)
        self._secondary: dict[tuple[str, ...], HashIndex] = {}
        #: Bound-position mask → its access plan; cleared by
        #: :meth:`create_index`, the only place the index set changes.
        self._plans: dict[int, AccessPlan] = {}

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
        self._plans.clear()
        return index

    def indexes(self) -> tuple[PrimaryKeyIndex | HashIndex, ...]:
        """All indexes on this table, primary first."""
        return (self._primary, *self._secondary.values())

    def best_index(
        self, bound_columns: Iterable[str]
    ) -> PrimaryKeyIndex | HashIndex | None:
        """Return the most selective index usable given ``bound_columns``.

        An index is usable when all its columns appear in ``bound_columns``;
        the index with the largest number of columns is preferred.  This is
        the :meth:`plan` of those columns' positions (names the table does
        not have bind nothing); the query planner's estimates read it.
        """
        mask = 0
        for column in bound_columns:
            if self.schema.has_column(column):
                mask |= 1 << self.schema.position(column)
        return self.plan(mask).index

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
        key = row.key
        if key in self._rows:
            raise KeyViolationError(f"table {self.name!r} already contains key {key!r}")
        self._rows[key] = row
        for index in self._secondary.values():
            index.add(row)
        return row

    def delete(self, values: Sequence[Any] | Mapping[str, Any] | Row) -> Row:
        """Delete the row identified by the given values' key.

        Raises:
            MissingRowError: if no row with that key exists.
        """
        if isinstance(values, Row):
            key = values.key
        elif isinstance(values, Mapping):
            key = self.schema.key_of(self.schema.values_from_mapping(values))
        else:
            key = self.schema.key_of(self.schema.validate_values(values))
        existing = self._rows.pop(key, None)
        if existing is None:
            raise MissingRowError(f"table {self.name!r} has no row with key {key!r}")
        for index in self._secondary.values():
            index.remove(existing)
        return existing

    def clear(self) -> None:
        """Remove every row."""
        self._rows.clear()
        for index in self._secondary.values():
            index.clear()

    # -- lookup -------------------------------------------------------------

    def get(self, key: Sequence[Any]) -> Row | None:
        """Return the row with primary key ``key``, or None."""
        return self._rows.get(tuple(key))

    def scan(self) -> Iterator[Row]:
        """Full scan over all rows (iteration order is insertion order)."""
        return iter(self._rows.values())

    def rows(self) -> list[Row]:
        """All rows as a list (convenience for tests and snapshots)."""
        return list(self._rows.values())

    def plan(self, mask: int) -> AccessPlan:
        """The access plan for the positions set in ``mask`` (cached)."""
        plan = self._plans.get(mask)
        if plan is None:
            plan = self._plans[mask] = self._resolve(mask)
        return plan

    def _resolve(self, mask: int) -> AccessPlan:
        """Choose the :class:`AccessPlan` of ``mask`` (see its fields)."""
        best: PrimaryKeyIndex | HashIndex | None = None
        for index in self.indexes():
            covered = all(mask >> position & 1 for position in index.positions)
            if covered and (best is None or len(index.positions) > len(best.positions)):
                best = index
        bound = [position for position in range(mask.bit_length()) if mask >> position & 1]
        if best is None:
            return AccessPlan(None, None, not bound, tuple(bound))
        positions = best.positions
        residual = tuple(position for position in bound if position not in positions)
        return AccessPlan(best, projection(positions), not residual, residual)

    def probe(self, mask: int, values: Sequence[Any]) -> Iterable[Row]:
        """Rows whose positions set in ``mask`` equal ``values`` there.

        ``values`` is indexed by position; positions outside ``mask`` are
        not read.  Rows come in the plan's index-bucket order (insertion
        order), or in scan order when no index is usable.  An exactly
        covered mask returns the index bucket itself — a live view, so
        iterate it before the table changes; otherwise the result is a
        lazy filter over the bucket or the scan.
        """
        plan = self._plans.get(mask)
        if plan is None:
            plan = self.plan(mask)
        if plan.index is None:
            rows: Iterable[Row] = self._rows.values()
        else:
            rows = plan.index.bucket(plan.key(values))
        if plan.exact:
            return rows
        residual = plan.residual
        if len(residual) == 1:
            (position,) = residual
            value = values[position]
            return (row for row in rows if row.values[position] == value)
        wanted = [(position, values[position]) for position in residual]
        return (
            row
            for row in rows
            if all(row.values[position] == value for position, value in wanted)
        )

    def lookup(self, columns: Sequence[str], values: Sequence[Any]) -> Iterator[Row]:
        """Yield rows matching equality on ``columns`` = ``values``.

        :meth:`probe` on the named columns' positions (a repeated column
        takes its last value).
        """
        mask = 0
        by_position = [None] * self.schema.arity
        for column, value in zip(columns, values):
            position = self.schema.position(column)
            mask |= 1 << position
            by_position[position] = value
        yield from self.probe(mask, by_position)

    # -- snapshot support ---------------------------------------------------

    def snapshot(self) -> list[tuple[Any, ...]]:
        """Return all row value tuples (used by recovery and possible worlds)."""
        return [row.values for row in self._rows.values()]

    def restore(self, snapshot: Iterable[Sequence[Any]]) -> None:
        """Replace the table contents with ``snapshot``, in its order.

        Each value tuple is validated as :meth:`insert` validates it (a
        column at a time when every value already has an exact type, see
        :func:`~repro.relational.row.restored_rows`), and the secondary
        indexes are rebuilt once at the end.  A repeated key raises
        :class:`KeyViolationError` (an ill-typed value,
        :class:`SchemaError`), leaving the rows before it.
        """
        rows = self._rows
        rows.clear()
        try:
            for row in restored_rows(self.schema, snapshot):
                if rows.setdefault(row.key, row) is not row:
                    raise KeyViolationError(
                        f"table {self.name!r} already contains key {row.key!r}"
                    )
        finally:
            for index in self._secondary.values():
                index.rebuild(rows.values())

    def copy(self) -> "Table":
        """Deep copy of the table (rows are immutable and shared)."""
        clone = Table(self.schema)
        clone._rows.update(self._rows)
        clone._secondary = {
            columns: index.copy() for columns, index in self._secondary.items()
        }
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Table {self.name} rows={len(self)}>"
