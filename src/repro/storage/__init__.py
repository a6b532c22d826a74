"""The log-structured durability engine (PR 8).

Segmented write-ahead logging for the relational store underneath the
quantum database: CRC-framed records in sealed append-only segments, a
manifest with atomic rename-based updates, a checkpoint *lineage* (a
periodic full-snapshot ``CHECKPOINT_BASE`` chained with churn-sized
``CHECKPOINT_DELTA`` records), and a background compactor that rewrites
sealed segments without ever blocking the writer.  See
``docs/architecture.md`` ("Durability engine") for the design and the
pause-bound argument.  It is the only file-backed log: a store without it
keeps the in-memory :class:`~repro.relational.wal.WriteAheadLog`.

Quickstart::

    from repro.storage import DurabilityConfig, SegmentedWriteAheadLog, recover

    config = DurabilityConfig(directory="wal-dir")
    engine = SegmentedWriteAheadLog("wal-dir", config)   # fresh store
    engine.adopt(db.wal)
    db.wal = engine
    ...
    db2 = recover("wal-dir", make_schema)                # after a crash

or, for a server, pass the config::

    ServerConfig(durability=DurabilityConfig(directory="wal-dir"))

The in-memory log's ``WriteAheadLog.dump()`` is the same frame stream a
segment holds: ``recover_database(make_schema, WriteAheadLog.load(data))``,
then ``QuantumDatabase.recover``.
"""

from repro.storage.config import DurabilityConfig
from repro.storage.engine import SegmentedWriteAheadLog
from repro.storage.recovery import recover

__all__ = [
    "DurabilityConfig",
    "SegmentedWriteAheadLog",
    "recover",
]
