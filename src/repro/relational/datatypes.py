"""Value domain of the relational substrate.

The quantum database only needs a small, SQL-ish set of scalar types:
integers, floats, strings, booleans and NULL.  ``Column`` declarations
carry a :class:`DataType`, which validates values on insert.  Literals in
textual resource transactions are parsed by :mod:`repro.core.parser`.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import TypeMismatchError

#: Python types admissible as column values, per DataType.
_PY_TYPES = {
    "INTEGER": (int,),
    "FLOAT": (float, int),
    "TEXT": (str,),
    "BOOLEAN": (bool,),
}

#: How a value of a subclass of a column type is stored: as the base type,
#: by the base's own conversion (an ``IntEnum`` member as its int, a
#: ``(str, Enum)`` member as its text), so the store holds only the exact
#: types the segmented log's codec writes.  ``bool`` has no subclasses.
_EXACT_TYPES = frozenset((bool, int, float, str))
_BASE_CONVERSIONS = (
    (int, int.__int__),
    (float, float.__float__),
    (str, str.__str__),
)


def _exact(value: Any) -> Any:
    """``value`` as an instance of its base column type itself."""
    if type(value) in _EXACT_TYPES:
        return value
    for base, convert in _BASE_CONVERSIONS:
        if isinstance(value, base):
            return convert(value)
    return value


class DataType(enum.Enum):
    """Scalar column types supported by the engine."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    #: ANY accepts any scalar value; used by tables created on the fly by
    #: workload generators and by the pending-transactions metadata table.
    ANY = "ANY"

    def validate(self, value: Any, *, column: str = "<anonymous>") -> Any:
        """Return ``value`` coerced to this type, or raise.

        ``None`` is always accepted (NULL).  ``FLOAT`` accepts ints and
        coerces them to float.  ``BOOLEAN`` is strict (no 0/1 coercion) so
        that key comparisons remain unambiguous.  A value of a subclass of
        the column's type is returned as the type itself.

        Raises:
            TypeMismatchError: if the value does not conform.
        """
        if value is None:
            return None
        if self is DataType.ANY:
            if isinstance(value, (int, float, str, bool)):
                return _exact(value)
            raise TypeMismatchError(
                f"column {column!r}: unsupported value type {type(value).__name__}"
            )
        allowed = _PY_TYPES[self.value]
        # bool is a subclass of int; keep the domains disjoint.
        if self is not DataType.BOOLEAN and isinstance(value, bool):
            raise TypeMismatchError(
                f"column {column!r}: boolean value supplied for {self.value} column"
            )
        if not isinstance(value, allowed):
            raise TypeMismatchError(
                f"column {column!r}: expected {self.value}, got "
                f"{type(value).__name__} ({value!r})"
            )
        if self is DataType.FLOAT:
            return float(value)
        return _exact(value)
