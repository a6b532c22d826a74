"""Per-client sessions over a :class:`~repro.server.service.QuantumServer`.

A :class:`Session` is one client's view of the quantum database: its own
stream of resource transactions and awaitable grounding notifications.
Every operation that changes the database is enqueued on the server's
single-writer admission queue and the session suspends until the writer
has processed it, which is what gives concurrent clients the exact
semantics of the synchronous
:class:`~repro.core.quantum_database.QuantumDatabase` API (see
``docs/architecture.md``, "The session/queue model").

An operation that needs no writer step is answered at once instead: a
COLLAPSE read that touches nothing pending
(:meth:`QuantumServer.read_untouched
<repro.server.service.QuantumServer.read_untouched>`), and a check-in or
ground that names no pending transaction
(:meth:`QuantumServer.nothing_to_ground
<repro.server.service.QuantumServer.nothing_to_ground>`).  It is answered
between two writer steps, since every step runs synchronously on the
loop, and only while the session has nothing queued, so it never
overtakes the session's own earlier commit.  Such answers never suspend,
so a session yields the loop once after :data:`YIELD_EVERY` of them in a
row.

Read results are isolated: the dictionaries a session receives are fresh
copies, so no later commit or grounding can mutate what a client already
holds.

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
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.parser import parse_transaction
from repro.core.quantum_database import CommitResult
from repro.core.quantum_state import GroundedTransaction
from repro.core.reads import ReadMode, ReadRequest, read_request
from repro.core.resource_transaction import ResourceTransaction
from repro.errors import QuantumError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.service import QuantumServer

#: Answers a session (or a connection) makes in a row without suspending
#: before it yields the event loop once, so that a caller looping on
#: operations answered at once cannot delay other sessions and the writer
#: by more than this many answers.
YIELD_EVERY = 64

#: Something :meth:`Session.on_grounding` can wait for: a transaction id,
#: a relation name (any grounding that wrote to it), or a predicate over
#: the grounded record.
GroundingTarget = int | str | Callable[[GroundedTransaction], bool]


class Session:
    """One client's transaction stream over the shared quantum database.

    Created via :meth:`QuantumServer.session`; usable as an async context
    manager.  All methods may be called concurrently with other sessions' —
    the server's single-writer queue serializes them, and an operation
    answered without the queue reads between two of its steps.
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
        self._closed = False
        #: Items this session has enqueued but the writer has not finished.
        #: An operation is answered without the queue only while this is
        #: zero; under ``ServerConfig.session_quota`` the server's
        #: ``_enqueue`` raises :class:`~repro.errors.SessionBackpressure`
        #: beyond the quota.
        self._in_flight = 0
        #: Answers made in a row without queueing (reset by ``_enqueue``).
        self._unqueued = 0

    def _release_in_flight(self, _future: "asyncio.Future") -> None:
        """Count a queued item out once it is resolved (or cancelled)."""
        if self._in_flight > 0:
            self._in_flight -= 1

    async def _answered(self) -> None:
        """Count an answer made without queueing; every
        :data:`YIELD_EVERY`-th in a row yields the loop once."""
        self._unqueued += 1
        if self._unqueued >= YIELD_EVERY:
            self._unqueued = 0
            await asyncio.sleep(0)

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
    ) -> CommitResult:
        """Submit one resource transaction and await its admission outcome.

        A batch of one (:meth:`commit_batch`): the transaction is built and
        checked here, then joins the group-commit run of the writer's drain.
        The coroutine resumes once the writer has decided (and, for
        admissions, durably persisted) the transaction, with the writer's
        :class:`~repro.core.quantum_database.CommitResult`; grounding may
        still be pending — await :meth:`on_grounding` for the value
        assignment.

        Cancelling the coroutine *before* the writer picks the item up
        withdraws the transaction (it is never admitted); once the writer
        has started, the admission stands even if the ack is cancelled.
        """
        self._require_open()
        (result,) = await self._submit(
            [self._build(transaction, parse_kwargs)], "commits"
        )
        return result

    async def commit_batch(
        self,
        transactions: Sequence[ResourceTransaction | str],
        **parse_kwargs: Any,
    ) -> list[CommitResult]:
        """Pipeline a stream of resource transactions as one batch.

        Each transaction is built and checked here.  The batch is one queue
        item: it joins the group-commit run of the writer's drain, its
        transactions contiguous and in order (no other session's commit
        interleaves), under the run's one store transaction and fsync.
        Semantically identical to awaiting :meth:`commit` for each element
        in order.  Cancelling it before the writer picks it up withdraws the
        whole batch.
        """
        self._require_open()
        built = [self._build(t, parse_kwargs) for t in transactions]
        return await self._submit(built, "batch_commits")

    def _build(
        self, transaction: ResourceTransaction | str, parse_kwargs: dict[str, Any]
    ) -> ResourceTransaction:
        """``transaction``, parsed with this session's client as the default
        ``client`` if it is text."""
        if isinstance(transaction, ResourceTransaction):
            return transaction
        return parse_transaction(transaction, **{"client": self.client, **parse_kwargs})

    async def _submit(
        self, transactions: list[ResourceTransaction], counter: str
    ) -> list[CommitResult]:
        """Check every update, then queue ``transactions`` as one commit
        item: a refused transaction never shares a group-commit run."""
        check_updates = self._server.qdb.check_updates
        for transaction in transactions:
            check_updates(transaction)
        return await self._server._enqueue(self, counter, transactions=transactions)

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
        dictionaries are fresh copies owned by the caller.  A COLLAPSE
        read that touches nothing pending is answered at once
        (:meth:`QuantumServer.read_untouched`) while the session has
        nothing queued; any other read queues.  A malformed read fails
        here, before it queues.
        """
        self._require_open()
        request = read_request(request, terms, mode=mode, select=select, limit=limit)
        if not self._in_flight:
            rows = self._server.read_untouched(request, self)
            if rows is not None:
                await self._answered()
                return rows
        return await self._queue_read(request)

    async def _queue_read(self, request: ReadRequest) -> list[dict[str, Any]]:
        """Answer ``request`` on the writer (the network layer calls this for
        a wire read it found touching something pending)."""
        qdb = self._server.qdb
        return await self._server._enqueue(self, "reads", lambda: qdb.read(request))

    async def insert(self, table: str, values: Sequence[Any]) -> None:
        """Blind insert, admission-checked against pending transactions."""
        self._require_open()
        qdb = self._server.qdb
        await self._server._enqueue(self, "writes", lambda: qdb.insert(table, values))

    async def delete(self, table: str, values: Sequence[Any]) -> None:
        """Blind delete, admission-checked against pending transactions."""
        self._require_open()
        qdb = self._server.qdb
        await self._server._enqueue(self, "writes", lambda: qdb.delete(table, values))

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
        return self._server._register_grounding_waiter(target)

    async def ground(self, transaction_ids: Sequence[int]) -> list[GroundedTransaction]:
        """Explicitly collapse specific pending transactions.

        Ids that are not pending are skipped; when none is, the answer is
        ``[]`` at once (:meth:`QuantumServer.nothing_to_ground`) while the
        session has nothing queued.
        """
        self._require_open()
        ids = list(transaction_ids)
        if not self._in_flight and self._server.nothing_to_ground(ids, self):
            await self._answered()
            return []
        qdb = self._server.qdb
        return await self._server._enqueue(self, "grounds", lambda: qdb.ground(ids))

    async def check_in(self, transaction_id: int) -> GroundedTransaction | None:
        """Collapse one transaction and return its assignment (or None).

        Grounding the target may ground earlier same-partition transactions
        with it (the serialization prefix), so the requested record is
        looked up by id rather than taken from the grounding results.  A
        transaction that is not pending (already grounded, or unknown) is
        looked up at once while the session has nothing queued.
        """
        self._require_open()
        server = self._server
        qdb = server.qdb
        if not self._in_flight and server.nothing_to_ground([transaction_id], self):
            await self._answered()
        else:
            await server._enqueue(self, "grounds", lambda: qdb.ground([transaction_id]))
        return qdb.state.grounded_results.get(transaction_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Session #{self.session_id} client={self.client!r} "
            f"in_flight={self._in_flight}>"
        )
