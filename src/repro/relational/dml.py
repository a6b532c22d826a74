"""Data-manipulation statements: Insert and Delete.

Resource transactions only write *blind* single-tuple inserts and deletes
(the ``FOLLOWED BY`` block of the paper), and so do the baselines and the
blind-write path.  Statements are plain descriptions; a
:class:`~repro.relational.transaction.Transaction` applies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping


@dataclass(frozen=True)
class Insert:
    """Insert a single row into ``table``.

    ``values`` may be positional (sequence) or named (mapping).
    """

    table: str
    values: tuple[Any, ...] | Mapping[str, Any]


@dataclass(frozen=True)
class Delete:
    """Delete the row of ``table`` with the key that ``values`` carries.

    ``values`` may be positional (sequence) or named (mapping); the row
    removed is the stored one with that key (see :meth:`Table.delete`).
    """

    table: str
    values: tuple[Any, ...] | Mapping[str, Any]


#: Union type accepted by Database.apply / Transaction.apply.
Statement = Insert | Delete
