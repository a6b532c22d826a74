"""Table schemas: column declarations and key constraints.

The paper assumes (Section 3.2.1) that every relation appearing in the
``FOLLOWED BY`` clause of a resource transaction has a key, i.e. satisfies
set semantics.  Our schema objects make the key explicit: if a schema does
not declare a primary key, the whole row acts as the key (pure set
semantics), which is exactly the normalization fallback the paper mentions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from repro.errors import SchemaError, UnknownColumnError
from repro.relational.datatypes import DataType

#: Per data type, the exact value types :meth:`Column.validate` returns
#: unchanged (no coercion, no error).  A subclass, an ``int`` for a FLOAT
#: column or a ``bool`` for an INTEGER one is not among them.
_EXACT_TYPES: dict[DataType, frozenset[type]] = {
    DataType.INTEGER: frozenset((int,)),
    DataType.FLOAT: frozenset((float,)),
    DataType.TEXT: frozenset((str,)),
    DataType.BOOLEAN: frozenset((bool,)),
    DataType.ANY: frozenset((int, float, str, bool)),
}


def projection(positions: Sequence[int]) -> Callable[[Sequence[Any]], tuple[Any, ...]]:
    """A callable taking a position-indexed value sequence to the tuple of
    its values at ``positions`` (in that order)."""
    if len(positions) == 1:
        (position,) = positions
        return lambda values: (values[position],)
    return itemgetter(*positions)


@dataclass(frozen=True)
class Column:
    """A single column declaration.

    Attributes:
        name: column name, unique within its table.
        datatype: accepted value domain.
        nullable: whether NULL is admissible (key columns never are).
    """

    name: str
    datatype: DataType = DataType.ANY
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"invalid column name: {self.name!r}")

    def validate(self, value: Any) -> Any:
        """Validate ``value`` against this column's type and nullability."""
        if value is None and not self.nullable:
            raise SchemaError(f"column {self.name!r} is not nullable")
        return self.datatype.validate(value, column=self.name)


class TableSchema:
    """Schema of a single table: ordered columns plus an optional key.

    Args:
        name: table name, unique within a database catalog.
        columns: ordered column declarations.  Strings are accepted as a
            shorthand for ``Column(name)`` with type ``ANY``.
        key: names of the primary-key columns.  When omitted or empty the
            entire row is the key (set semantics).
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column | str],
        key: Sequence[str] | None = None,
    ) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(
            col if isinstance(col, Column) else Column(col) for col in columns
        )
        if not self.columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r} has duplicate column names: {names}")
        #: Names of all columns, in declaration order.
        self.column_names: tuple[str, ...] = tuple(names)
        #: Number of columns.
        self.arity: int = len(names)
        self._positions: dict[str, int] = {c.name: i for i, c in enumerate(self.columns)}
        #: Per column, the value types that pass it unchanged.
        self._exact_types: tuple[frozenset[type], ...] = tuple(
            _EXACT_TYPES[c.datatype] | ({type(None)} if c.nullable else set())
            for c in self.columns
        )

        key_names = tuple(key) if key else tuple(names)
        for k in key_names:
            if k not in self._positions:
                raise SchemaError(f"key column {k!r} not in table {name!r}")
        self.key: tuple[str, ...] = key_names
        self.key_positions: tuple[int, ...] = tuple(self._positions[k] for k in key_names)
        #: Project a validated value tuple onto the primary-key columns.  A
        #: key of every column in order is the value tuple itself.
        self.key_of: Callable[[Sequence[Any]], tuple[Any, ...]] = (
            tuple
            if self.key_positions == tuple(range(self.arity))
            else projection(self.key_positions)
        )

    # -- introspection ------------------------------------------------------

    def position(self, column: str) -> int:
        """Return the 0-based position of ``column``.

        Raises:
            UnknownColumnError: if the column does not exist.
        """
        try:
            return self._positions[column]
        except KeyError:
            raise UnknownColumnError(
                f"table {self.name!r} has no column {column!r}"
            ) from None

    def has_column(self, column: str) -> bool:
        """True if ``column`` is declared on this table."""
        return column in self._positions

    # -- validation ---------------------------------------------------------

    def validate_values(self, values: Sequence[Any]) -> tuple[Any, ...]:
        """Validate a positional value tuple against the schema.

        One exact type test per value decides the common case; a value it
        does not decide goes through :meth:`Column.validate`, which coerces
        or raises.
        """
        if len(values) != self.arity:
            raise SchemaError(
                f"table {self.name!r} expects {self.arity} values, got {len(values)}"
            )
        if all(map(frozenset.__contains__, self._exact_types, map(type, values))):
            return tuple(values)
        return tuple(col.validate(v) for col, v in zip(self.columns, values))

    def values_from_mapping(self, mapping: Mapping[str, Any]) -> tuple[Any, ...]:
        """Build a positional value tuple from a column-name mapping."""
        unknown = set(mapping) - set(self.column_names)
        if unknown:
            raise UnknownColumnError(
                f"table {self.name!r} has no columns {sorted(unknown)}"
            )
        return self.validate_values(
            tuple(mapping.get(name) for name in self.column_names)
        )

    # -- dunder -------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(c.name for c in self.columns)
        return f"TableSchema({self.name!r}, [{cols}], key={list(self.key)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.columns == other.columns
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.name, self.columns, self.key))
