"""Names kept for the repository benchmark; no sharding is left.

A quantum database has one partition manager,
:class:`~repro.core.partition.PartitionManager`, which routes every
admission through the :class:`~repro.core.signature.SignatureIndex` (a
conservative constant-set/wildcard index over each partition's atoms) and
plans and applies every grounding on the writer.  ``QuantumConfig.shards``
and ``shard_backend`` are accepted and ignored.

What is left here are aliases that ``bench/spans.py`` wraps by name:
:class:`~repro.sharding.manager.ShardedPartitionManager` (the partition
manager itself) and
:class:`~repro.sharding.admission_lane.AdmissionController`.
"""

from repro.sharding.manager import ShardedPartitionManager

__all__ = ["ShardedPartitionManager"]
