"""Sharded partition execution behind the signature-based router.

The paper's central property — partitions contain no pairwise-unifiable
atoms, so they are independent by construction — is exactly a sharding
invariant.  :class:`ShardedPartitionManager` exploits it: partitions are
split across N :class:`~repro.sharding.shard.Shard` workers (disjoint
ownership keyed by partition id; a partition's solution record is a field
of the partition, so it hands off between shards for free), and the
:class:`~repro.sharding.signature.SignatureIndex` doubles as the router
that sends an incoming transaction to the shard owning its matching
partition.

The manager is a drop-in :class:`~repro.core.partition.PartitionManager`:
``QuantumState`` keeps calling ``merged_for`` / ``find`` /
``drop_if_empty`` unchanged, and accept/reject decisions are bit-identical
to the unsharded scan — the index is a conservative prefilter and every
candidate is still exactly confirmed by pairwise unification.  What
changes is the work: on constant-pinned workloads ``merged_for`` scans one
candidate partition instead of all of them, and the read-only grounding
*plan* phase fans out per shard (:meth:`plan_on_shards`).

Cross-shard merges — a transaction whose atoms unify with partitions owned
by different shards, the rare case — keep the surviving partition with its
current owner, and the absorbed partitions' shards simply release
ownership.  A shared :class:`PendingTable` keeps the global
pending-transaction accounting (the ``k``-bound bookkeeping and O(1)
``find``) in one place regardless of how many shards exist.

Only the writer — the one thread that admits, grounds and applies — reads
or mutates the index, the ownership map, the pending table and the
partition list.  The shard pools run nothing but
``QuantumState.plan_grounding``, which reads partitions and the store and
never the manager, so none of this state takes a lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.core.futures import collect_plan_futures
from repro.core.partition import Partition, PartitionManager, PartitionStatistics
from repro.errors import QuantumError
from repro.logic.atoms import Atom
from repro.sharding.shard import Shard
from repro.sharding.signature import SignatureIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.quantum_state import PendingTransaction


@dataclass(frozen=True)
class PendingRef:
    """One row of the shared pending-transactions table.

    Attributes:
        transaction_id: id of the pending resource transaction.
        partition_id: partition currently holding it.
        shard_id: shard owning that partition.
        sequence: global arrival sequence (the serialization order key).
    """

    transaction_id: int
    partition_id: int
    shard_id: int
    sequence: int


class PendingTable:
    """Shared pending-transactions table for global ``k``-bound accounting.

    Every shard's partitions post to the same table (only the writer
    touches it); it answers "where is transaction X?" and "how much is
    pending, globally and per shard?" in O(1) without touching any
    partition.
    """

    def __init__(self) -> None:
        self._rows: dict[int, PendingRef] = {}
        self._by_partition: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def get(self, transaction_id: int) -> PendingRef | None:
        """The row for a pending transaction, if present."""
        return self._rows.get(transaction_id)

    def add(self, ref: PendingRef) -> None:
        """Insert (or move) one pending transaction."""
        existing = self._rows.get(ref.transaction_id)
        if existing is not None:
            self._by_partition.get(existing.partition_id, set()).discard(
                ref.transaction_id
            )
        self._rows[ref.transaction_id] = ref
        self._by_partition.setdefault(ref.partition_id, set()).add(
            ref.transaction_id
        )

    def rebuild_partition(
        self, partition: Partition, shard_id: int
    ) -> None:
        """Re-derive a partition's rows from its current pending sequence."""
        stale = self._by_partition.pop(partition.partition_id, set())
        for transaction_id in stale:
            self._rows.pop(transaction_id, None)
        for entry in partition:
            self.add(
                PendingRef(
                    transaction_id=entry.transaction_id,
                    partition_id=partition.partition_id,
                    shard_id=shard_id,
                    sequence=entry.sequence,
                )
            )

    def drop_partition(self, partition_id: int) -> None:
        """Forget every row of a partition (merged away or emptied)."""
        for transaction_id in self._by_partition.pop(partition_id, set()):
            self._rows.pop(transaction_id, None)

    def total(self) -> int:
        """Pending transactions across all shards (the global accounting)."""
        return len(self._rows)

    def by_shard(self) -> dict[int, int]:
        """Pending-transaction count per shard id."""
        counts: dict[int, int] = {}
        for ref in self._rows.values():
            counts[ref.shard_id] = counts.get(ref.shard_id, 0) + 1
        return counts

    def rows(self) -> Mapping[int, PendingRef]:
        """Read-only view of the table (transaction id → row)."""
        return self._rows


@dataclass
class ShardedPartitionStatistics(PartitionStatistics):
    """Partition counters plus the sharding/routing ones.

    Attributes:
        index_filtered: partitions skipped by the signature index without a
            single unification probe (the saved scan work).
        routed_single_shard: overlap queries whose candidates all lived on
            one shard (or were empty) — the common case.
        routed_cross_shard: overlap queries whose candidates spanned shards.
        cross_shard_merges: merges that combined partitions owned by
            different shards.
    """

    index_filtered: int = 0
    routed_single_shard: int = 0
    routed_cross_shard: int = 0
    cross_shard_merges: int = 0


class ShardedPartitionManager(PartitionManager):
    """A :class:`PartitionManager` split across N worker shards.

    Args:
        shards: number of worker shards (≥ 1).
        workers_per_shard: thread count of each shard's plan executor.
    """

    def __init__(self, shards: int = 1, *, workers_per_shard: int = 1) -> None:
        if shards < 1:
            raise QuantumError("a sharded partition manager needs at least 1 shard")
        super().__init__()
        self.statistics: ShardedPartitionStatistics = ShardedPartitionStatistics()
        self.index = SignatureIndex()
        self.shards: tuple[Shard, ...] = tuple(
            Shard(shard_id, workers=workers_per_shard) for shard_id in range(shards)
        )
        self.pending_table = PendingTable()
        #: partition id → owning shard (disjoint by construction).  The
        #: partition object itself is resolved through the owner's
        #: ``partitions`` dict, so there is exactly one ownership source.
        self._owner: dict[int, Shard] = {}

    # -- introspection -------------------------------------------------------

    @property
    def shard_count(self) -> int:
        """Number of worker shards."""
        return len(self.shards)

    def shard_for(self, partition_id: int) -> Shard | None:
        """The shard owning ``partition_id``, if any."""
        return self._owner.get(partition_id)

    def _partition_by_id(self, partition_id: int) -> Partition | None:
        """Resolve a partition through its owning shard (O(1))."""
        shard = self._owner.get(partition_id)
        if shard is None:
            return None
        return shard.partitions.get(partition_id)

    def pending_count(self) -> int:
        """Total pending transactions (from the shared pending table)."""
        return self.pending_table.total()

    def find(
        self, transaction_id: int
    ) -> tuple[Partition, "PendingTransaction"] | None:
        """Locate a pending transaction via the shared pending table."""
        ref = self.pending_table.get(transaction_id)
        if ref is None:
            return None
        partition = self._partition_by_id(ref.partition_id)
        if partition is not None:
            for entry in partition:
                if entry.transaction_id == transaction_id:
                    return partition, entry
        # The table should always be current (it is maintained from the
        # partitions' own structural-change hooks); scan as a safety net.
        return super().find(transaction_id)

    # -- routing -------------------------------------------------------------

    def route(self, atoms: Sequence[Atom]) -> tuple[Shard | None, frozenset[int]]:
        """Route a transaction's atoms to the shard owning its partition.

        Returns ``(shard, candidate partition ids)``: the single shard
        owning every candidate (``None`` for the cross-shard case), and the
        index's candidate set.  An empty candidate set routes to the shard
        that would receive the next fresh partition.
        """
        candidates = self.index.candidates(atoms)
        owners = {
            self._owner[pid].shard_id for pid in candidates if pid in self._owner
        }
        if not owners:
            return self._home_shard(), candidates
        if len(owners) == 1:
            return self.shards[owners.pop()], candidates
        return None, candidates

    def _home_shard(self) -> Shard:
        """The shard a fresh partition would be assigned to (least loaded)."""
        return min(self.shards, key=lambda shard: (len(shard), shard.shard_id))

    def overlapping_partitions(self, atoms: Sequence[Atom]) -> list[Partition]:
        """Index-prefiltered overlap scan (bit-identical to the full scan).

        Routing goes through :meth:`route`; each candidate partition is
        then confirmed with the exact pairwise-unification test.
        Candidates are visited in ascending partition-id order, which *is*
        partition-list order (partitions enter the list in id order and
        removals preserve it), so the result — including which partition
        survives a merge — matches the exhaustive scan exactly, without
        walking the whole partition list.
        """
        shard, candidates = self.route(atoms)
        self.statistics.index_filtered += len(self.partitions) - len(candidates)
        if shard is None:
            self.statistics.routed_cross_shard += 1
        else:
            self.statistics.routed_single_shard += 1
        scanned = [
            partition
            for pid in sorted(candidates)
            if (partition := self._partition_by_id(pid)) is not None
        ]
        self.statistics.scanned_partitions += len(scanned)
        return [p for p in scanned if p.overlaps_atoms(atoms, self.statistics)]

    # -- shard-parallel grounding plans --------------------------------------

    def plan_on_shards(
        self,
        groups: Sequence[tuple[Partition, Sequence["PendingTransaction"]]],
        plan: Callable[[Partition, Sequence["PendingTransaction"]], Any],
        *,
        timeout_s: float | None = None,
    ) -> list[Any]:
        """Fan the read-only grounding plan phase out per owning shard.

        Each group runs as ``plan(partition, entries)`` on the thread pool
        of the shard owning its partition (unowned partitions fall back to
        the home shard); results come back in group order, so the caller's
        serial apply phase is deterministic.  Partition independence makes
        the concurrent plans commute — see ``docs/architecture.md``
        ("Shard executors").

        Args:
            groups: ``(partition, entries)`` pairs to plan.
            plan: the plan callable, run on the shard's thread.
            timeout_s: per-future bound on collecting a plan result; on
                expiry every remaining future is cancelled (already-running
                plans finish and are discarded) and a
                :class:`~repro.errors.GroundingTimeout` is raised before
                the caller applied anything.

        Raises:
            GroundingTimeout: a plan future missed the ``timeout_s`` bound.
        """
        futures = []
        for partition, entries in groups:
            shard = self._owner.get(partition.partition_id) or self._home_shard()
            futures.append(shard.submit(plan, partition, entries))
        return collect_plan_futures(futures, timeout_s, what="shard plan")

    def close(self) -> None:
        """Shut down every shard's executor (idempotent)."""
        for shard in self.shards:
            shard.close()

    # -- lifecycle hooks (called by the base manager) ------------------------

    def _on_partition_created(self, partition: Partition) -> None:
        shard = self._home_shard()
        shard.own(partition)
        self._owner[partition.partition_id] = shard
        self.index.add(partition)
        partition.on_structural_change = self._handle_structural_change

    def _on_partitions_merging(
        self, merged: Partition, absorbed: Sequence[Partition]
    ) -> None:
        shards_involved = {
            self._owner[p.partition_id].shard_id
            for p in (merged, *absorbed)
            if p.partition_id in self._owner
        }
        if len(shards_involved) > 1:
            self.statistics.cross_shard_merges += 1
        # The surviving partition stays with its current owner.
        for partition in absorbed:
            self._forget(partition)
        # The caller assigns the merged pending sequence next, which fires
        # the structural-change hook and re-derives the merged partition's
        # signature and pending-table rows.

    def _on_partition_dropped(self, partition: Partition) -> None:
        self._forget(partition)

    def _forget(self, partition: Partition) -> None:
        pid = partition.partition_id
        shard = self._owner.pop(pid, None)
        if shard is not None:
            shard.disown(pid)
        self.index.discard(pid)
        self.pending_table.drop_partition(pid)
        if partition.on_structural_change == self._handle_structural_change:
            partition.on_structural_change = None

    # -- incremental maintenance (called by the partitions themselves) -------

    def _handle_structural_change(
        self, partition: Partition, entry: "PendingTransaction | None"
    ) -> None:
        shard = self._owner.get(partition.partition_id)
        shard_id = shard.shard_id if shard is not None else -1
        if entry is not None:
            # Append: signatures only grow, so post just the new entry.
            self.index.extend(partition, entry)
            self.pending_table.add(
                PendingRef(
                    transaction_id=entry.transaction_id,
                    partition_id=partition.partition_id,
                    shard_id=shard_id,
                    sequence=entry.sequence,
                )
            )
        else:
            # Removal or whole-sequence assignment: re-derive both views.
            self.index.refresh(partition)
            self.pending_table.rebuild_partition(partition, shard_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedPartitionManager shards={self.shard_count} "
            f"partitions={len(self.partitions)} pending={self.pending_count()}>"
        )
