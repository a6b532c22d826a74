"""The asyncio quantum-database server: sessions, queue, writer.

This module is the concurrency boundary of the reproduction: every mutation
of the shared :class:`~repro.core.quantum_database.QuantumDatabase` runs on
the server's event loop, one synchronous step at a time, while any number
of client sessions submit work concurrently.  The design follows directly
from the paper's model (see ``docs/architecture.md``):

* **Only commits queue.**  A commit item carries the list of transactions
  it admits (one for :meth:`Session.commit`, the whole batch for
  :meth:`Session.commit_batch`), each already built and checked; one
  writer task dequeues the items and admits them through the ordinary
  synchronous path, so accept/reject decisions are *identical* to calling
  :meth:`QuantumDatabase.execute` in the same arrival order — concurrency
  changes only the arrival interleaving, never the semantics.  Every
  other operation (a read, a check-in or ground, a blind write,
  ``ground_all``, ``checkpoint``) is the same
  :class:`~repro.core.quantum_database.QuantumDatabase` call, made on the
  caller: every writer step runs synchronously on the loop, its sync
  included, so the caller runs between two steps and sees the durable
  state.  A session runs its own operations one at a time, in the order
  they were issued (:class:`~repro.server.session.Session`).  The PR-1
  witness cache is what makes this single writer viable: the admission
  critical section is a witness-extension search, not a recomposition.

* **Group commit.**  When several commit items are queued (concurrent
  sessions), the writer drains them together and admits the run — a
  batch's transactions contiguous and in order within it — via one
  :meth:`QuantumDatabase.commit_batch`, which is *one store transaction*:
  the groundings the run forces, the deletion of their pending rows and
  the rows of the run's still-pending admissions reach the log under one
  COMMIT record and, with ``DurabilityConfig(fsync=True)``, one fsync
  issued by the COMMIT append itself.  The
  submitters' futures are resolved only after that commit returned, so a
  client never sees an acknowledgement — and, grounding notifications
  being delivered through the loop, never a grounding — that is not yet
  on stable storage.

* **Grounding on the loop.**  Explicit grounding requests — however
  many partitions they span — are planned and applied in one synchronous
  call, like everything else: every partition a request touches is
  planned before any plan is applied, so a request is all-or-nothing.
  The server starts no thread of its own; the only other thread in the
  process is the durability engine's compactor, which never touches the
  quantum state.

* **Graceful shutdown.**  ``shutdown()`` stops accepting work, drains the
  queue (every already-enqueued commit completes), resolves still-waiting
  grounding futures with cancellation, flushes the WAL and folds it into a
  snapshot checkpoint so recovery work stays bounded.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.core.quantum_database import QuantumDatabase
from repro.core.quantum_state import GroundedTransaction
from repro.core.resource_transaction import ResourceTransaction
from repro.errors import (
    DurabilityError,
    QuantumError,
    TenantBackpressure,
    TransactionError,
)
from repro.server.session import GroundingTarget, Session
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog


T = TypeVar("T")


@dataclass
class WorkItem:
    """One queued commit plus the future its submitter awaits.

    Its ``transactions`` join the drain's group-commit run, and its future
    receives their results, in order.  ``counter`` names the
    :class:`ServerStatistics` field they count into.
    """

    counter: str
    future: "asyncio.Future[Any]"
    transactions: list[ResourceTransaction]


#: Sentinel that tells the writer loop to exit after draining.
_SHUTDOWN = object()

#: Upper bound on how many queued items the writer drains per cycle; the
#: items of a drain are admitted as one group commit.
MAX_BATCH = 64


@dataclass(frozen=True)
class CheckpointPolicy:
    """When a long-running server should checkpoint its WAL.

    Graceful shutdown always folds the WAL into a snapshot checkpoint; a
    server that runs for days must not wait that long, or recovery replay
    grows without bound.  The policy triggers a checkpoint at the writer's
    drain boundaries — a natural serialization point where no store
    transaction is active — whenever either threshold is exceeded.  A
    checkpoint that still finds transactions active is refused (counted,
    never fatal) and retried at the next boundary, exactly like the
    shutdown path refuses today.

    Attributes:
        max_wal_records: checkpoint once this many WAL records accumulated
            since the last checkpoint (``None``: no record-count trigger).
        max_interval_s: checkpoint once this much wall-clock time passed
            since the last checkpoint (``None``: no time trigger).
    """

    max_wal_records: int | None = None
    max_interval_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_wal_records is None and self.max_interval_s is None:
            raise QuantumError(
                "a CheckpointPolicy needs max_wal_records and/or "
                "max_interval_s; for no periodic checkpoints leave "
                "ServerConfig.checkpoint_policy as None"
            )
        if self.max_wal_records is not None and self.max_wal_records < 1:
            raise QuantumError(
                "CheckpointPolicy.max_wal_records must be at least 1"
            )
        if self.max_interval_s is not None and self.max_interval_s < 0:
            raise QuantumError(
                "CheckpointPolicy.max_interval_s must not be negative"
            )

    def due(self, records_since: int, elapsed_s: float) -> bool:
        """True when either threshold has been reached.

        Never due with zero new records: a checkpoint then would rewrite
        the same snapshot (an O(database) no-op for recovery), so
        read-only traffic does not churn the WAL.
        """
        if records_since <= 0:
            return False
        if self.max_wal_records is not None and records_since >= self.max_wal_records:
            return True
        if self.max_interval_s is not None and elapsed_s >= self.max_interval_s:
            return True
        return False


@dataclass(frozen=True)
class ServerConfig:
    """Configuration of a :class:`QuantumServer`.

    Attributes:
        queue_depth: admission queue capacity in commit items; enqueues
            beyond it apply backpressure (the session's coroutine waits).
            A session holds at most one slot: it runs its operations one
            at a time.
        tenant_quota: cap on the queued commit items of every session
            opened with the same ``tenant`` identity, summed (the first
            rung of the backpressure ladder).  A tenant that opens many
            sessions — e.g. many network connections — cannot multiply its
            share of the admission queue: beyond the quota, commits get a
            typed :class:`~repro.errors.TenantBackpressure`.  Sessions
            without a tenant are exempt.  ``None`` (default) disables the
            cap.
        checkpoint_policy: periodic WAL checkpointing for long-running
            servers (see :class:`CheckpointPolicy`); ``None`` checkpoints
            only on graceful shutdown.
        checkpoint_on_shutdown: fold the WAL into a snapshot checkpoint
            during graceful shutdown, bounding later recovery work.
        durability: makes the store durable.  ``None`` keeps the
            database's log as it is — in memory unless the database
            already runs on the segmented engine.  With
            ``DurabilityConfig(directory=...)`` the server attaches a
            :class:`~repro.storage.SegmentedWriteAheadLog` on startup
            (segments + manifest under the directory, one base snapshot
            and delta checkpoints after it) and runs its compactor, the
            one storage thread, which synthesizes later bases off the
            writer and is joined on shutdown.  The
            directory must be fresh: an existing segmented log is
            recovery input (``repro.storage.recover``), so ``start()``
            refuses to adopt over it.  See
            :class:`~repro.storage.DurabilityConfig`.
    """

    queue_depth: int = 1024
    tenant_quota: int | None = None
    checkpoint_policy: CheckpointPolicy | None = None
    checkpoint_on_shutdown: bool = True
    durability: DurabilityConfig | None = None

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise QuantumError(
                "ServerConfig.queue_depth must be at least 1: asyncio reads "
                "a zero bound as no bound at all"
            )
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise QuantumError(
                "ServerConfig.tenant_quota must be at least 1 (or None): a "
                "zero quota would reject every submission forever"
            )


@dataclass
class ServerStatistics:
    """Server-level counters (exposed via ``statistics_report()``).

    Attributes:
        items: commit items processed by the writer.
        commits: single-commit items admitted.
        batch_commits: transactions admitted through batch items.
        commit_runs: group commits performed (one per drain that admitted
            anything).
        max_commit_run: most transactions in one group commit.
        drains: writer drain cycles.
        max_drain: most items drained in one cycle.
        queue_high_water: deepest observed queue.
        reads / writes / grounds: reads, blind writes and groundings
            (check-ins, grounds and ``ground_all``) answered on the caller.
        cancelled_before_admission: commits withdrawn before admission,
            in the queue, while waiting on the full queue, or while waiting
            for their session's turn.
        cancelled_after_admission: commits whose ack was cancelled after
            the admission already happened (the commit stands).
        grounding_futures_resolved: grounding notifications delivered.
        tenant_rejections: commits refused because their tenant's queued
            commit items reached the tenant quota.
        policy_checkpoints: checkpoints taken by the periodic policy.
        checkpoints_refused: policy checkpoints refused because a store
            transaction was still active; each refusal arms (or consumes)
            a bounded retry at a later drain boundary.  Surfaced as
            ``durability.checkpoint_deferred`` in ``statistics_report()``
            as well, so a policy that keeps losing the race is visible,
            never a silent skip.
    """

    items: int = 0
    commits: int = 0
    batch_commits: int = 0
    commit_runs: int = 0
    max_commit_run: int = 0
    drains: int = 0
    max_drain: int = 0
    queue_high_water: int = 0
    reads: int = 0
    writes: int = 0
    grounds: int = 0
    cancelled_before_admission: int = 0
    cancelled_after_admission: int = 0
    grounding_futures_resolved: int = 0
    tenant_rejections: int = 0
    policy_checkpoints: int = 0
    checkpoints_refused: int = 0


class QuantumServer:
    """An asyncio session layer over one :class:`QuantumDatabase`.

    Usable as an async context manager::

        qdb = QuantumDatabase()
        ...schema + data...
        async with QuantumServer(qdb) as server:
            async with server.session(client="mickey") as session:
                result = await session.commit(request)

    All sessions share the server's event loop; the server owns one writer
    task, which admits every commit.
    """

    def __init__(
        self, qdb: QuantumDatabase, config: ServerConfig | None = None
    ) -> None:
        self.qdb = qdb
        self.config = config or ServerConfig()
        self.statistics = ServerStatistics()
        self._queue: asyncio.Queue[WorkItem | object] | None = None
        self._writer_task: asyncio.Task | None = None
        self._sessions: dict[int, Session] = {}
        self._session_ids = 0
        #: Queued-but-unprocessed commit items per tenant (the tenant-quota
        #: rung of the backpressure ladder); entries vanish at zero.
        self._tenant_in_flight: dict[str, int] = {}
        self._closed = False
        self._started = False
        #: The server's event loop (set by start()); grounding notifications
        #: are marshalled onto it, since asyncio futures must only be
        #: resolved from their loop's thread.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._grounding_waiters: list[tuple[GroundingTarget, asyncio.Future]] = []
        # Periodic-checkpoint bookkeeping (see CheckpointPolicy): WAL length
        # and wall clock at the last checkpoint (or at startup), plus the
        # bounded retry budget armed when a due checkpoint gets refused.
        self._records_at_checkpoint = len(qdb.database.wal)
        self._last_checkpoint = time.monotonic()
        self._checkpoint_retries = 0

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once the server no longer accepts new work."""
        return self._closed

    async def start(self) -> "QuantumServer":
        """Start the writer task (idempotent).

        Validation happens before any resource is created, so a failed
        start leaves the server fully un-started (a retry with a fixed
        configuration works; nothing leaks or hangs).
        """
        if self._started:
            return self
        durability = self.config.durability
        if durability is not None:
            wal = self.qdb.database.wal
            if not isinstance(wal, SegmentedWriteAheadLog):
                # Adopting seeds the segments from the in-memory log, so a
                # directory that already holds a durable segmented log is
                # recovery input, never something to write over.
                engine = SegmentedWriteAheadLog(durability.directory, durability)
                try:
                    engine.adopt(wal)
                except DurabilityError:
                    engine.close()
                    raise QuantumError(
                        f"segment directory {durability.directory!r} already "
                        "holds a durable log; recover from it "
                        "(repro.storage.recover + QuantumDatabase.recover) or "
                        "point the server at a fresh directory"
                    ) from None
                self.qdb.database.wal = wal = engine
            wal.start_compactor()
        self._queue = asyncio.Queue(maxsize=self.config.queue_depth)
        self._loop = asyncio.get_running_loop()
        # After the database's own listener (entanglement withdrawal);
        # shutdown() removes it.
        self.qdb.state.grounding_listeners.append(self._handle_grounded)
        self._writer_task = self._loop.create_task(
            self._writer_loop(), name="repro-admission-writer"
        )
        self._started = True
        return self

    async def shutdown(self) -> None:
        """Graceful shutdown: drain the queue, flush + checkpoint the WAL.

        Already-enqueued commits complete (FIFO order guarantees the
        shutdown sentinel is processed last); any later operation,
        including a commit still waiting for its session's turn, raises
        :class:`~repro.errors.QuantumError`.  Pending resource transactions
        stay pending — they are durable in the pending-transactions table,
        which the checkpoint snapshot preserves for recovery.
        """
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        assert self._queue is not None
        try:
            await self._queue.put(_SHUTDOWN)
            if self._writer_task is not None:
                await self._writer_task
        finally:
            # The writer is done: the database outlives the server and must
            # not funnel future groundings through a dead instance.
            self.qdb.state.grounding_listeners.remove(self._handle_grounded)
        for session in list(self._sessions.values()):
            session._closed = True
        self._sessions.clear()
        for _target, waiter in self._grounding_waiters:
            if not waiter.done():
                waiter.cancel()
        self._grounding_waiters.clear()
        if self.config.checkpoint_on_shutdown:
            self.qdb.checkpoint()
        wal = self.qdb.database.wal
        if isinstance(wal, SegmentedWriteAheadLog):
            # A durability point, one deterministic final sweep (the
            # shutdown checkpoint just superseded the pre-checkpoint
            # segments), then stop (and join) the compactor thread.  The
            # engine itself stays open: the database outlives the server,
            # and post-shutdown synchronous mutations must keep landing in
            # the durable log for recovery to stay complete.
            wal.flush()
            wal.compact_now()
            wal.stop_compactor()

    async def __aenter__(self) -> "QuantumServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    # -- sessions -----------------------------------------------------------

    def session(
        self, client: str | None = None, *, tenant: str | None = None
    ) -> Session:
        """Open a new client session.

        Args:
            client: requesting user name (defaulted into parsed
                transactions and entanglement bookkeeping).
            tenant: quota group this session bills against when
                ``ServerConfig.tenant_quota`` is set; sessions without a
                tenant are exempt from the tenant rung.
        """
        if self._closed:
            raise QuantumError("server is shut down")
        self._session_ids += 1
        session = Session(self, self._session_ids, client, tenant=tenant)
        self._sessions[session.session_id] = session
        return session

    def _forget_session(self, session: Session) -> None:
        self._sessions.pop(session.session_id, None)

    def _release_tenant(self, tenant: str) -> None:
        """Return a tenant quota slot once a queued item is resolved."""
        remaining = self._tenant_in_flight.get(tenant, 0) - 1
        if remaining > 0:
            self._tenant_in_flight[tenant] = remaining
        else:
            self._tenant_in_flight.pop(tenant, None)

    @property
    def session_count(self) -> int:
        """Number of currently open sessions."""
        return len(self._sessions)

    # -- submission (called by sessions) ------------------------------------

    def _require_accepting(self) -> None:
        if self._closed or not self._started:
            raise QuantumError(
                "server is not accepting work (not started or shut down)"
            )

    def _run(self, counter: str | None, call: Callable[[], T]) -> T:
        """Make a :class:`QuantumDatabase` call that is not a commit, here,
        on the caller.

        Every writer step runs synchronously on this loop, its sync
        included, so the call runs between two steps: it reads the durable
        state, and what it writes is committed (and synced) before it
        returns.  ``counter`` names the :class:`ServerStatistics` field it
        bumps, or is ``None``.
        """
        self._require_accepting()
        if counter is not None:
            setattr(self.statistics, counter, getattr(self.statistics, counter) + 1)
        return call()

    async def _enqueue(
        self,
        session: Session,
        counter: str,
        transactions: list[ResourceTransaction],
    ) -> list[Any]:
        """Queue a commit item (see :class:`WorkItem`) and await its
        results."""
        self._require_accepting()
        assert self._queue is not None
        # The tenant quota is the first rung of the backpressure ladder; it
        # is checked before its counter moves, so a refusal leaks nothing.
        tenant_quota = self.config.tenant_quota
        tenant = session.tenant if tenant_quota is not None else None
        if tenant is not None:
            in_flight = self._tenant_in_flight.get(tenant, 0)
            if in_flight >= tenant_quota:
                self.statistics.tenant_rejections += 1
                raise TenantBackpressure(
                    f"tenant {tenant!r} has {in_flight} commits queued across "
                    f"its sessions (quota {tenant_quota}); retry after they "
                    "complete"
                )
        session._unqueued = 0
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        if tenant is not None:
            # Counted for the item's whole queued lifetime, including time
            # spent waiting on the global bound.
            self._tenant_in_flight[tenant] = in_flight + 1
            future.add_done_callback(
                lambda _future, tenant=tenant: self._release_tenant(tenant)
            )
        try:
            await self._queue.put(WorkItem(counter, future, transactions))
        except BaseException as exc:
            # Never enqueued: cancelling the future runs the registered
            # release callback, returning the quota slot.  A commit
            # cancelled while it waits on the full queue is withdrawn, as
            # if cancelled in it.
            if isinstance(exc, asyncio.CancelledError):
                self.statistics.cancelled_before_admission += 1
            future.cancel()
            raise
        depth = self._queue.qsize()
        if depth > self.statistics.queue_high_water:
            self.statistics.queue_high_water = depth
        return await future

    async def ground_all(self) -> list[GroundedTransaction]:
        """Ground every pending transaction (e.g. end of the booking day).

        Runs between two writer steps, all or nothing.
        """
        return self._run("grounds", self.qdb.ground_all)

    async def checkpoint(self) -> None:
        """Checkpoint the WAL between two writer steps."""
        self._run(None, self.qdb.checkpoint)

    # -- the single-writer loop ---------------------------------------------

    async def _writer_loop(self) -> None:
        assert self._queue is not None
        shutting_down = False
        # With a time-based checkpoint policy, an idle server must still
        # reach its drain boundary: bound the queue wait by the policy
        # interval so `_maybe_checkpoint` runs even when no work arrives.
        policy = self.config.checkpoint_policy
        idle_wait = policy.max_interval_s if policy is not None else None
        while not shutting_down:
            if idle_wait is None:
                item = await self._queue.get()
            else:
                try:
                    item = await asyncio.wait_for(
                        self._queue.get(), timeout=max(idle_wait, 0.05)
                    )
                except asyncio.TimeoutError:
                    self._maybe_checkpoint()
                    continue
            drained: list[WorkItem] = []
            while True:
                if item is _SHUTDOWN:
                    shutting_down = True
                else:
                    drained.append(item)  # type: ignore[arg-type]
                if shutting_down or len(drained) >= MAX_BATCH:
                    break
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            if drained:
                self._process_drained(drained)
                self._maybe_checkpoint()
            # Yield so acked clients resume (and refill the queue) before
            # the next drain; without this the writer would starve them.
            await asyncio.sleep(0)

    #: Drain boundaries a refused-but-due checkpoint keeps retrying at,
    #: even if the policy itself would no longer fire (e.g. an external
    #: fold shrank the record count below the threshold in between).
    _CHECKPOINT_RETRY_BUDGET = 3

    def _maybe_checkpoint(self) -> None:
        """Run the periodic checkpoint policy at a drain boundary.

        Drain boundaries are writer serialization points, so normally no
        store transaction is active; if one somehow is (an application
        holding a synchronous ``db.begin()`` open across the boundary),
        the checkpoint is refused — counted in ``checkpoints_refused`` and
        armed for a bounded retry at the next drain boundaries, so a
        policy losing the race is never a silent skip.
        """
        policy = self.config.checkpoint_policy
        if policy is None:
            return
        # An external fold (the application calling qdb.checkpoint()
        # directly) shrinks the WAL below our baseline; clamp so the
        # policy keeps counting fresh records instead of going silent.
        wal_length = len(self.qdb.database.wal)
        if wal_length < self._records_at_checkpoint:
            self._records_at_checkpoint = wal_length
        records_since = wal_length - self._records_at_checkpoint
        elapsed = time.monotonic() - self._last_checkpoint
        due = policy.due(records_since, elapsed)
        if not due and self._checkpoint_retries <= 0:
            return
        try:
            self.qdb.checkpoint()
        except TransactionError:
            self.statistics.checkpoints_refused += 1
            if due:
                self._checkpoint_retries = self._CHECKPOINT_RETRY_BUDGET
            else:
                self._checkpoint_retries -= 1
            return
        self._checkpoint_retries = 0
        self.statistics.policy_checkpoints += 1
        self._records_at_checkpoint = len(self.qdb.database.wal)
        self._last_checkpoint = time.monotonic()

    def _process_drained(self, drained: list[WorkItem]) -> None:
        """Admit one drain's commit items as one group commit."""
        self.statistics.drains += 1
        if len(drained) > self.statistics.max_drain:
            self.statistics.max_drain = len(drained)
        self._process_commit_run(drained)

    def _process_commit_run(self, run: list[WorkItem]) -> None:
        """Admit a run of commit items as one group commit.

        Each item's transactions stay contiguous and in order; an item
        cancelled before the run starts is withdrawn whole.
        """
        statistics = self.statistics
        live = []
        transactions: list[ResourceTransaction] = []
        for item in run:
            statistics.items += 1
            if item.future.cancelled():
                # Withdrawn before admission: its transactions never enter
                # the system, exactly as if they had not been submitted.
                statistics.cancelled_before_admission += 1
                continue
            live.append(item)
            transactions.extend(item.transactions)
            setattr(
                statistics,
                item.counter,
                getattr(statistics, item.counter) + len(item.transactions),
            )
        if not live:
            return
        statistics.commit_runs += 1
        if len(transactions) > statistics.max_commit_run:
            statistics.max_commit_run = len(transactions)
        try:
            # One store transaction: commit_batch returns after its COMMIT
            # record is stable, and the futures below resolve only then, so
            # acknowledgement implies stable storage.
            results = self.qdb.commit_batch(transactions)
        except Exception as exc:  # pragma: no cover - defensive
            for item in live:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        start = 0
        for item in live:
            end = start + len(item.transactions)
            if item.future.cancelled():
                # Too late to withdraw: the admission already happened and
                # the commit guarantee stands (it remains durable and will
                # be grounded normally); only the acknowledgement is lost.
                statistics.cancelled_after_admission += 1
            else:
                item.future.set_result(results[start:end])
            start = end

    # -- grounding notifications --------------------------------------------

    def _register_grounding_waiter(
        self, target: GroundingTarget
    ) -> "asyncio.Future[GroundedTransaction]":
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        if isinstance(target, int):
            record = self.qdb.state.grounded_results.get(target)
            if record is not None:
                future.set_result(record)
                self.statistics.grounding_futures_resolved += 1
                return future
        self._grounding_waiters.append((target, future))
        return future

    @staticmethod
    def _matches(target: GroundingTarget, record: GroundedTransaction) -> bool:
        if isinstance(target, int):
            return record.transaction_id == target
        if isinstance(target, str):
            return any(
                statement.table == target for statement in record.statements
            )
        return bool(target(record))

    def _handle_grounded(self, record: GroundedTransaction) -> None:
        if not self._grounding_waiters:
            return
        # Waiters are resolved by a callback on the server's loop, never
        # inline: asyncio futures are not thread-safe (a database driven
        # directly may ground on another thread), and the loop runs no
        # callback before the writer step that grounded the record has
        # returned — that is, before the operation's store transaction is
        # committed and synced — so a client cannot observe a grounding
        # that a crash could still undo.
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._resolve_grounding_waiters, record)
        else:
            self._resolve_grounding_waiters(record)

    def _resolve_grounding_waiters(self, record: GroundedTransaction) -> None:
        """Resolve matching grounding futures (loop thread only)."""
        remaining: list[tuple[GroundingTarget, asyncio.Future]] = []
        for target, waiter in self._grounding_waiters:
            if waiter.done():
                continue
            if self._matches(target, record):
                waiter.set_result(record)
                self.statistics.grounding_futures_resolved += 1
            else:
                remaining.append((target, waiter))
        self._grounding_waiters = remaining

    # -- reporting -----------------------------------------------------------

    def statistics_report(self) -> dict[str, Any]:
        """The database's flattened counters plus the server's own.

        Extends :meth:`QuantumDatabase.statistics_report` with a
        ``server.*`` section, so benchmarks can diff concurrent against
        synchronous runs with one mapping.
        """
        report = self.qdb.statistics_report()
        for name, value in vars(self.statistics).items():
            report[f"server.{name}"] = value
        report["server.sessions_open"] = self.session_count
        # The durability section is the database's (the log's own
        # counters); the deferred-checkpoint counter is server-side
        # bookkeeping, folded in here where the rest of the section lives.
        report["durability.checkpoint_deferred"] = (
            self.statistics.checkpoints_refused
        )
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("running" if self._started else "new")
        return (
            f"<QuantumServer {state} sessions={self.session_count} "
            f"items={self.statistics.items}>"
        )
