"""Worker shards: disjoint partition ownership plus a plan executor.

Partitions are independent by construction — no atom of one unifies with
any atom of another — so the set of partitions can be split across worker
shards without any cross-shard coordination on the hot path.  A
:class:`Shard` owns a disjoint set of partitions (keyed by partition id;
each partition carries its own solution record, so that state hands off
between shards for free) and runs the read-only grounding
*plan* phase for its partitions on its own executor.

The executor is created lazily (guarded by a lock: concurrent first
submissions must not race two executors into existence and leak one) and
comes in two flavours, selected by
:class:`~repro.sharding.backend.ShardBackend`:

* ``THREAD`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; plans
  share the writer's heap and are submitted as plain closures, but the GIL
  serializes the actual search work.
* ``PROCESS`` — a :class:`~concurrent.futures.ProcessPoolExecutor`; plans
  arrive as pickled :class:`~repro.sharding.backend.PlanPayload` bytes and
  run truly in parallel (see :mod:`repro.sharding.backend` for the payload
  lifecycle).

Ownership is tracked purely by partition id and work is submitted as
``submit(fn, *args)`` either way — nothing on the interface exposes the
executor type.
"""

from __future__ import annotations

import threading
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.sharding.backend import ShardBackend

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partition import Partition


class Shard:
    """One worker shard: a disjoint slice of the partition space.

    Attributes:
        shard_id: position of the shard in the manager's shard ring.
        partitions: the owned partitions, keyed by partition id.
        backend: the executor strategy (thread pool or process pool).
    """

    def __init__(
        self,
        shard_id: int,
        *,
        workers: int = 1,
        backend: ShardBackend | str = ShardBackend.THREAD,
    ) -> None:
        self.shard_id = shard_id
        self.backend = ShardBackend.coerce(backend)
        self.partitions: dict[int, "Partition"] = {}
        self._workers = max(1, workers)
        self._executor: Executor | None = None
        #: Guards lazy executor creation *and* close: without it two
        #: concurrent first submissions could each observe ``None`` and
        #: create two executors, leaking one (and, for the process
        #: backend, its worker processes).
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

    def _create_executor(self) -> Executor:
        """Build the backend's executor (callers hold the creation lock)."""
        if self.backend is ShardBackend.PROCESS:
            return ProcessPoolExecutor(max_workers=self._workers)
        return ThreadPoolExecutor(
            max_workers=self._workers,
            thread_name_prefix=f"repro-shard-{self.shard_id}",
        )

    def warm(self) -> None:
        """Start the executor now and, for process pools, spawn its workers.

        Idempotent.  The lane-parallel admission pipeline ships witness
        searches to the process pool on its hot path; without warming, the
        first shipped admission of each shard would pay the worker-process
        spawn inside the latency-sensitive window (and inside benchmark
        timing sections).  One trivial round-trip per worker forces the
        pool to its full size up front.
        """
        from repro.sharding.backend import worker_ready

        if self.backend is not ShardBackend.PROCESS:
            with self._executor_lock:
                if self._executor is None:
                    self._executor = self._create_executor()
            return
        futures = [self.submit(worker_ready) for _ in range(self._workers)]
        for future in futures:
            future.result()

    def close(self) -> None:
        """Shut the shard's executor down (idempotent; ownership survives).

        Joins the workers — threads or processes — before returning, so a
        closed shard never leaks a pool; the executor restarts lazily on
        the next :meth:`submit`.
        """
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Shard #{self.shard_id} backend={self.backend.value} "
            f"partitions={len(self.partitions)} pending={self.pending_count()}>"
        )
