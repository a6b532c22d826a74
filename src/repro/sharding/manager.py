"""The name of the retired sharded partition manager.

There is one partition manager, :class:`repro.core.partition.PartitionManager`:
it routes every overlap query through the signature index and keeps the
transaction map, whatever ``QuantumConfig.shards`` says.  The shard objects,
their ownership map and their grounding-plan thread pools are gone — under
CPython's GIL the plan threads gained nothing over planning on the writer
(``docs/architecture.md``, "One partition manager, one writer").

``ShardedPartitionManager`` stays as another name for that class, only
because the repository benchmark's traced pass (``bench/spans.py``) wraps
``ShardedPartitionManager.merged_for`` and ``.plan_on_shards`` by name — just
as ``AdmissionController.commit_many`` stays in
:mod:`repro.sharding.admission_lane`.  Being the very class the database
builds, the wrapped ``merged_for`` times every admission's routing.
"""

from __future__ import annotations

from repro.core.partition import PartitionManager

ShardedPartitionManager = PartitionManager
