"""Recovery entry points for the segmented durability engine.

Replay order:

1. **Chain** — the segments the manifest lists, then the writer's
   successors it does not list yet (generation 0, index at or past its
   ``next_segment_index``; seals do not save the manifest); a leftover
   ``MANIFEST.tmp`` from an interrupted update is discarded, orphan
   segment files from an interrupted compaction are removed.
2. **Base** — the newest surviving ``CHECKPOINT_BASE`` (or in-memory
   ``CHECKPOINT``) snapshot is restored.  A base synthesized off the
   writer by a compaction pass reuses the LSN of the newest delta it
   folded, so until compaction drops that delta's old record both can
   coexist on disk — the superseded delta is filtered out here.
3. **Delta chain** — every ``CHECKPOINT_DELTA`` after that base is
   applied in LSN order (per table: deletes, then inserts).
4. **Unsealed tail** — committed raw records past the newest checkpoint
   are redone; a torn trailing record in the unsealed tail (the chain's
   last segment) is truncated with a warning (CRC damage in a *sealed*
   segment raises
   :class:`~repro.errors.RecoveryError` — sealed bytes never change, so
   damage there is real corruption, not a crash artifact).

All of 1–4 happen when :class:`SegmentedWriteAheadLog` opens the
directory; :func:`recover` hands the opened engine to
:func:`repro.relational.recovery.recover_database`, the one replay every
log goes through.
"""

from __future__ import annotations

from typing import Callable

from repro.relational.database import Database
from repro.relational.recovery import recover_database
from repro.storage.config import DurabilityConfig
from repro.storage.engine import SegmentedWriteAheadLog


def recover(
    directory,
    schema_factory: Callable[[], Database],
    config: DurabilityConfig | None = None,
) -> Database:
    """Rebuild a database from a segmented-log directory.

    Args:
        directory: the engine directory (manifest + segments) that
            survived the crash.
        schema_factory: callable returning a fresh :class:`Database` with
            all schemas declared but no data (schemas are catalog
            metadata, exactly as for ``recover_database``).
        config: engine configuration override (thresholds, fsync); the
            default opens the directory with standard parameters.

    Returns:
        A database containing exactly the effects of committed
        transactions, wired to the (re-opened) segmented log so
        subsequent writes keep appending durably.

    Raises:
        RecoveryError: on corruption — a damaged sealed segment, a
            missing segment file, a delta chain without its base, or an
            impossible replay operation.
    """
    engine = SegmentedWriteAheadLog(directory, config)
    return recover_database(schema_factory, engine)
