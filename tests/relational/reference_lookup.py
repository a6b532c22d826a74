"""The table's index choice and equality lookup as they were written on names.

Frozen copies of ``Table.best_index`` and ``Table.lookup`` from before every
lookup went through ``Table.probe`` (one access plan per bound-position
mask).  ``test_probe_oracle.py`` holds the positional method to them, row
for row and in order.  They read only the table's public surface
(``indexes()``, ``scan()``, ``HashIndex.lookup``), so they share no code
with the method they check.  Do not edit them to match a change of
``Table``: a disagreement is a bug in the change.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence


def best_index(table, bound_columns: Iterable[str]):
    """Return the most selective index usable given ``bound_columns``.

    An index is usable when all its columns appear in ``bound_columns``;
    the index with the largest number of columns is preferred.
    """
    bound = set(bound_columns)
    best = None
    for index in table.indexes():
        if index.covers(bound):
            if best is None or len(index.columns) > len(best.columns):
                best = index
    return best


def lookup(table, columns: Sequence[str], values: Sequence[Any]) -> Iterator[Any]:
    """Yield rows matching equality on ``columns`` = ``values``.

    Uses the best available index, otherwise falls back to a scan.
    """
    index = best_index(table, columns)
    pairs = dict(zip(columns, values))
    if index is not None and set(index.columns) == set(columns):
        key = tuple(pairs[c] for c in index.columns)
        yield from index.lookup(key)
        return
    if index is not None:
        key = tuple(pairs[c] for c in index.columns)
        candidates: Iterable[Any] = index.lookup(key)
    else:
        candidates = table.scan()
    remaining = {c: v for c, v in pairs.items()}
    for row in candidates:
        if all(row[c] == v for c, v in remaining.items()):
            yield row
