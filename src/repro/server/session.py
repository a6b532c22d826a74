"""Per-client sessions over a :class:`~repro.server.service.QuantumServer`.

A :class:`Session` is one client's view of the quantum database: its own
stream of resource transactions, its own statistics, and awaitable
grounding notifications.  Sessions never touch the database directly —
every operation is enqueued on the server's single-writer admission queue
and the session suspends until the writer has processed it, which is what
gives concurrent clients the exact semantics of the synchronous
:class:`~repro.core.quantum_database.QuantumDatabase` API (see
``docs/architecture.md``, "The session layer").

Read results are isolated: the dictionaries a session receives are fresh
copies produced at the writer's serialization point, so no later commit or
grounding can mutate what a client already holds.

Typical usage::

    server = QuantumServer(qdb)
    async with server:
        async with server.session(client="mickey") as session:
            result = await session.commit(
                "-Available(?f, ?s), +Bookings('Mickey', ?f, ?s)"
                " :-1 Available(?f, ?s)"
            )
            assert result.committed
            grounded = await session.on_grounding(result.transaction_id)
            print(grounded.valuation)
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.quantum_database import CommitResult
from repro.core.quantum_state import GroundedTransaction
from repro.core.reads import ReadMode, ReadRequest
from repro.core.resource_transaction import ResourceTransaction
from repro.errors import QuantumError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.service import QuantumServer

#: Something :meth:`Session.on_grounding` can wait for: a transaction id,
#: a relation name (any grounding that wrote to it), or a predicate over
#: the grounded record.
GroundingTarget = int | str | Callable[[GroundedTransaction], bool]


@dataclass(frozen=True)
class AdmissionResult:
    """Client-facing outcome of submitting one resource transaction.

    The asynchronous analogue of
    :class:`~repro.core.quantum_database.CommitResult`: ``committed=True``
    is the same guarantee — a consistent value assignment will exist
    whenever grounding is forced — made durable (the pending-transactions
    table write is logged and group-commit flushed) before the session's
    ``commit`` coroutine resumes.

    Attributes:
        transaction: the submitted transaction.
        committed: True if the transaction was admitted.
        pending: True if its values are still deferred.
        grounded: transactions grounded as a side effect of this admission
            (partner pairs, ``k``-bound victims).
        rejection_reason: populated when ``committed`` is False.
        session_sequence: this session's submission counter for the commit.
        method: which admission search decided the submission (``"witness"``,
            ``"backtracking"`` or ``"sampled"``).
        exact: False only when the decision came from the opt-in sampling
            estimator (approximate admission).
    """

    transaction: ResourceTransaction
    committed: bool
    pending: bool = False
    grounded: tuple[GroundedTransaction, ...] = ()
    rejection_reason: str | None = None
    session_sequence: int = 0
    method: str = "backtracking"
    exact: bool = True

    @property
    def transaction_id(self) -> int:
        """Id of the submitted transaction."""
        return self.transaction.transaction_id

    def __bool__(self) -> bool:
        return self.committed

    @classmethod
    def from_commit(
        cls, result: CommitResult, session_sequence: int
    ) -> "AdmissionResult":
        """Wrap a synchronous :class:`CommitResult` for a session."""
        return cls(
            transaction=result.transaction,
            committed=result.committed,
            pending=result.pending,
            grounded=result.grounded,
            rejection_reason=result.rejection_reason,
            session_sequence=session_sequence,
            method=result.method,
            exact=result.exact,
        )


@dataclass
class SessionStatistics:
    """Per-session counters.

    Attributes:
        submitted: resource transactions submitted (commit + batch items).
        accepted / rejected: admission outcomes observed by this session.
        batches: ``commit_batch`` calls.
        reads: read queries answered.
        writes: blind inserts/deletes issued.
        grounding_waits: ``on_grounding`` futures requested.
        grounding_events: grounding notifications delivered.
        cancelled: commits cancelled before the writer admitted them.
        backpressure: submissions refused because the session exceeded its
            queue quota (:class:`~repro.errors.SessionBackpressure`).
        tenant_backpressure: submissions refused because the session's
            tenant exceeded its combined quota
            (:class:`~repro.errors.TenantBackpressure`).
    """

    submitted: int = 0
    accepted: int = 0
    rejected: int = 0
    batches: int = 0
    reads: int = 0
    writes: int = 0
    grounding_waits: int = 0
    grounding_events: int = 0
    cancelled: int = 0
    backpressure: int = 0
    tenant_backpressure: int = 0


class Session:
    """One client's transaction stream over the shared quantum database.

    Created via :meth:`QuantumServer.session`; usable as an async context
    manager.  All methods may be called concurrently with other sessions' —
    the server's single-writer queue serializes them.
    """

    def __init__(
        self,
        server: "QuantumServer",
        session_id: int,
        client: str | None,
        *,
        tenant: str | None = None,
    ) -> None:
        self._server = server
        self.session_id = session_id
        self.client = client
        #: Quota group this session bills against under
        #: ``ServerConfig.tenant_quota`` (None: exempt from the tenant rung).
        self.tenant = tenant
        self.statistics = SessionStatistics()
        self._sequence = 0
        self._closed = False
        #: Items this session has enqueued but the writer has not finished;
        #: bounded by ``ServerConfig.session_quota`` (see the server's
        #: ``_enqueue``), which raises
        #: :class:`~repro.errors.SessionBackpressure` beyond the quota.
        self._in_flight = 0

    def _release_in_flight(self, _future: "asyncio.Future") -> None:
        """Return a quota slot once a queued item is resolved (or cancelled)."""
        if self._in_flight > 0:
            self._in_flight -= 1

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once the session (or its server) no longer accepts work."""
        return self._closed or self._server.closed

    async def close(self) -> None:
        """Close the session; in-flight operations still complete."""
        self._closed = True
        self._server._forget_session(self)

    async def __aenter__(self) -> "Session":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def _require_open(self) -> None:
        if self.closed:
            raise QuantumError(
                f"session #{self.session_id} is closed (server shut down?)"
            )

    # -- resource transactions ---------------------------------------------

    async def commit(
        self, transaction: ResourceTransaction | str, **parse_kwargs: Any
    ) -> AdmissionResult:
        """Submit one resource transaction and await its admission outcome.

        The coroutine resumes once the writer has decided (and, for
        admissions, durably persisted) the transaction; grounding may still
        be pending — await :meth:`on_grounding` for the value assignment.

        Cancelling the coroutine *before* the writer picks the item up
        withdraws the transaction (it is never admitted); once the writer
        has started, the admission stands even if the ack is cancelled.
        """
        self._require_open()
        parsed = self._server._parse(transaction, parse_kwargs, client=self.client)
        self._sequence += 1
        sequence = self._sequence
        self.statistics.submitted += 1
        try:
            result = await self._server._submit_commit(parsed, self)
        except asyncio.CancelledError:
            self.statistics.cancelled += 1
            raise
        self._record(result)
        return AdmissionResult.from_commit(result, sequence)

    async def commit_batch(
        self,
        transactions: Sequence[ResourceTransaction | str],
        **parse_kwargs: Any,
    ) -> list[AdmissionResult]:
        """Pipeline a stream of resource transactions as one batch.

        Pass-through to :meth:`QuantumDatabase.commit_batch`: the whole
        sequence is admitted back-to-back at one serialization point (no
        other session's commit interleaves), with a single durability write
        for the batch.  Semantically identical to awaiting :meth:`commit`
        for each element in order.
        """
        self._require_open()
        parsed = [
            self._server._parse(t, parse_kwargs, client=self.client)
            for t in transactions
        ]
        self.statistics.batches += 1
        self.statistics.submitted += len(parsed)
        results = await self._server._submit_batch(parsed, self)
        wrapped = []
        for result in results:
            self._sequence += 1
            self._record(result)
            wrapped.append(AdmissionResult.from_commit(result, self._sequence))
        return wrapped

    def _record(self, result: CommitResult) -> None:
        if result.committed:
            self.statistics.accepted += 1
        else:
            self.statistics.rejected += 1

    # -- reads and blind writes ---------------------------------------------

    async def read(
        self,
        request: ReadRequest | str,
        terms: Sequence[Any] | None = None,
        *,
        mode: ReadMode | None = None,
        select: Sequence[str] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Answer a read query at a writer serialization point.

        Same semantics as :meth:`QuantumDatabase.read` (COLLAPSE grounds
        exactly the pending transactions the read touches); the returned
        dictionaries are fresh copies owned by the caller.
        """
        self._require_open()
        self.statistics.reads += 1
        return await self._server._submit_read(
            request, terms, mode=mode, select=select, limit=limit, session=self
        )

    async def insert(self, table: str, values: Sequence[Any]) -> None:
        """Blind insert, admission-checked against pending transactions."""
        self._require_open()
        self.statistics.writes += 1
        await self._server._submit_write("insert", table, values, session=self)

    async def delete(self, table: str, values: Sequence[Any]) -> None:
        """Blind delete, admission-checked against pending transactions."""
        self._require_open()
        self.statistics.writes += 1
        await self._server._submit_write("delete", table, values, session=self)

    # -- grounding -----------------------------------------------------------

    def on_grounding(self, target: GroundingTarget) -> "asyncio.Future[GroundedTransaction]":
        """A future resolved when a matching grounding happens.

        Args:
            target: a transaction id (resolves when that transaction is
                grounded — immediately if it already was), a relation name
                (resolves on the next grounding that writes to it), or a
                predicate over :class:`GroundedTransaction`.

        Returns:
            An awaitable future yielding the grounded record.
        """
        self._require_open()
        self.statistics.grounding_waits += 1
        future = self._server._register_grounding_waiter(target)
        future.add_done_callback(self._count_grounding_event)
        return future

    def _count_grounding_event(self, future: "asyncio.Future") -> None:
        if not future.cancelled():
            self.statistics.grounding_events += 1

    async def ground(self, transaction_ids: Sequence[int]) -> list[GroundedTransaction]:
        """Explicitly collapse specific pending transactions."""
        self._require_open()
        return await self._server._submit_ground(
            list(transaction_ids), session=self
        )

    async def check_in(self, transaction_id: int) -> GroundedTransaction | None:
        """Collapse one transaction and return its assignment (or None).

        Grounding the target may ground earlier same-partition transactions
        with it (the serialization prefix), so the requested record is
        looked up by id rather than taken from the grounding results.
        """
        self._require_open()
        await self._server._submit_ground([transaction_id], session=self)
        return self._server.qdb.state.grounded_results.get(transaction_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Session #{self.session_id} client={self.client!r} "
            f"submitted={self.statistics.submitted}>"
        )
