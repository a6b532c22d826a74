"""Worker shards: disjoint partition ownership plus a plan executor.

Partitions are independent by construction — no atom of one unifies with
any atom of another — so the set of partitions can be split across worker
shards without any cross-shard coordination on the hot path.  A
:class:`Shard` owns a disjoint set of partitions (keyed by partition id;
each partition carries its own solution record, so that state hands off
between shards for free) and runs the read-only grounding
*plan* phase for its partitions on its own
:class:`~concurrent.futures.ThreadPoolExecutor`: plans share the writer's
heap and are submitted as plain closures (the GIL serializes the actual
search work).

The executor is created lazily, guarded by a lock: concurrent first
submissions must not race two executors into existence and leak one.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partition import Partition


class Shard:
    """One worker shard: a disjoint slice of the partition space.

    Attributes:
        shard_id: position of the shard in the manager's shard ring.
        partitions: the owned partitions, keyed by partition id.
    """

    def __init__(self, shard_id: int, *, workers: int = 1) -> None:
        self.shard_id = shard_id
        self.partitions: dict[int, "Partition"] = {}
        self._workers = max(1, workers)
        self._executor: ThreadPoolExecutor | None = None
        #: Guards lazy executor creation *and* close: without it two
        #: concurrent first submissions could each observe ``None`` and
        #: create two executors, leaking one and its threads.
        self._executor_lock = threading.Lock()

    # -- ownership -----------------------------------------------------------

    def own(self, partition: "Partition") -> None:
        """Take ownership of a partition (tagging it for lane assertions)."""
        self.partitions[partition.partition_id] = partition
        partition.owner_shard_id = self.shard_id

    def disown(self, partition_id: int) -> None:
        """Release ownership of a partition (merge or drop)."""
        partition = self.partitions.pop(partition_id, None)
        if partition is not None:
            partition.owner_shard_id = None

    def owns(self, partition_id: int) -> bool:
        """True when this shard owns the partition."""
        return partition_id in self.partitions

    def __len__(self) -> int:
        return len(self.partitions)

    def __iter__(self) -> Iterator["Partition"]:
        return iter(self.partitions.values())

    def pending_count(self) -> int:
        """Total pending transactions across the owned partitions."""
        return sum(len(p) for p in self.partitions.values())

    # -- execution -----------------------------------------------------------

    @property
    def started(self) -> bool:
        """True once the shard's executor has been created."""
        return self._executor is not None

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Run ``fn(*args)`` on this shard's worker (lazily started)."""
        executor = self._executor
        if executor is None:
            with self._executor_lock:
                if self._executor is None:
                    self._executor = self._create_executor()
                executor = self._executor
        return executor.submit(fn, *args)

    def _create_executor(self) -> ThreadPoolExecutor:
        """Build the shard's thread pool (callers hold the creation lock)."""
        return ThreadPoolExecutor(
            max_workers=self._workers,
            thread_name_prefix=f"repro-shard-{self.shard_id}",
        )

    def close(self) -> None:
        """Shut the shard's executor down (idempotent; ownership survives).

        Joins the worker threads before returning, so a closed shard never
        leaks a pool; the executor restarts lazily on the next
        :meth:`submit`.
        """
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Shard #{self.shard_id} partitions={len(self.partitions)} "
            f"pending={self.pending_count()}>"
        )
