"""Sharded partition execution with a signature-based routing index.

This package is the scale layer between the quantum database and its
partitions (see ``docs/architecture.md``, "Sharded partition execution"):

* :class:`~repro.sharding.signature.SignatureIndex` — a conservative
  constant-set/wildcard index over each partition's atoms that prefilters
  ``merged_for`` candidates to near-O(1) on constant-pinned workloads,
  maintained incrementally on admit/ground/merge and falling back to the
  exhaustive scan when imprecise (decisions are bit-identical either way);
* :class:`~repro.sharding.shard.Shard` — a worker owning a disjoint set of
  partitions plus the thread pool the grounding plan phase fans out on;
* :class:`~repro.sharding.manager.ShardedPartitionManager` — the drop-in
  :class:`~repro.core.partition.PartitionManager` that routes admissions
  through the index, merges across shards, and keeps the shared
  :class:`~repro.sharding.manager.PendingTable` for global ``k``-bound
  accounting.

Enable it with ``QuantumConfig(shards=N)``.  Admission itself stays serial
on the writer; the shards' thread pools only run the read-only grounding
plans (``docs/architecture.md``, "Why admission is serial").  Threads are
the only shard executor.
"""

from repro.sharding.manager import (
    PendingRef,
    PendingTable,
    ShardedPartitionManager,
    ShardedPartitionStatistics,
)
from repro.sharding.shard import Shard
from repro.sharding.signature import SignatureIndex, SignatureIndexStatistics

__all__ = [
    "PendingRef",
    "PendingTable",
    "Shard",
    "ShardedPartitionManager",
    "ShardedPartitionStatistics",
    "SignatureIndex",
    "SignatureIndexStatistics",
]
