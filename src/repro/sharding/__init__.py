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
  through the index, serializes the rare cross-shard merge, and keeps the
  shared :class:`~repro.sharding.manager.PendingTable` for global
  ``k``-bound accounting;
* :mod:`repro.sharding.admission_lane` — the router-first concurrent
  admission pipeline: per-shard :class:`AdmissionLane` writers dispatched
  over a deterministic conflict ladder, with cross-shard arrivals as
  epoch barriers (decisions bit-identical to the serialized writer; see
  ``docs/architecture.md``, "Concurrent admission").

Enable it with ``QuantumConfig(shards=N)``; turn on lane-parallel
admission with ``QuantumConfig(admission_lanes=True)``.  Threads are the
only shard executor.
"""

from repro.sharding.admission_lane import (
    AdmissionController,
    AdmissionLane,
    AdmissionStatistics,
    ConflictRung,
)
from repro.sharding.manager import (
    PendingRef,
    PendingTable,
    ShardedPartitionManager,
    ShardedPartitionStatistics,
)
from repro.sharding.shard import Shard
from repro.sharding.signature import SignatureIndex, SignatureIndexStatistics

__all__ = [
    "AdmissionController",
    "AdmissionLane",
    "AdmissionStatistics",
    "ConflictRung",
    "PendingRef",
    "PendingTable",
    "Shard",
    "ShardedPartitionManager",
    "ShardedPartitionStatistics",
    "SignatureIndex",
    "SignatureIndexStatistics",
]
