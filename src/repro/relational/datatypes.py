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
        that key comparisons remain unambiguous.

        Raises:
            TypeMismatchError: if the value does not conform.
        """
        if value is None:
            return None
        if self is DataType.ANY:
            if isinstance(value, (int, float, str, bool)):
                return value
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
        return value
