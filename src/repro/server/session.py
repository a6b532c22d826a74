"""Per-client sessions over a :class:`~repro.server.service.QuantumServer`.

A :class:`Session` is one client's view of the quantum database: its own
stream of resource transactions and awaitable grounding notifications.
Sessions never touch the database directly — every operation is enqueued
on the server's single-writer admission queue and the session suspends
until the writer has processed it, which is what gives concurrent clients
the exact semantics of the synchronous
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
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.parser import parse_transaction
from repro.core.quantum_database import CommitResult
from repro.core.quantum_state import GroundedTransaction
from repro.core.reads import ReadMode, ReadRequest, read_request
from repro.core.resource_transaction import ResourceTransaction
from repro.errors import QuantumError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.service import QuantumServer

#: Something :meth:`Session.on_grounding` can wait for: a transaction id,
#: a relation name (any grounding that wrote to it), or a predicate over
#: the grounded record.
GroundingTarget = int | str | Callable[[GroundedTransaction], bool]


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
        dictionaries are fresh copies owned by the caller.  Every mode
        queues here; only the network layer answers a read that touches
        nothing pending without the queue
        (:meth:`QuantumServer.read_untouched`).  A malformed read fails
        here, before it queues.
        """
        self._require_open()
        request = read_request(request, terms, mode=mode, select=select, limit=limit)
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
        """Explicitly collapse specific pending transactions."""
        self._require_open()
        ids = list(transaction_ids)
        qdb = self._server.qdb
        return await self._server._enqueue(self, "grounds", lambda: qdb.ground(ids))

    async def check_in(self, transaction_id: int) -> GroundedTransaction | None:
        """Collapse one transaction and return its assignment (or None).

        Grounding the target may ground earlier same-partition transactions
        with it (the serialization prefix), so the requested record is
        looked up by id rather than taken from the grounding results.
        """
        self._require_open()
        qdb = self._server.qdb
        await self._server._enqueue(self, "grounds", lambda: qdb.ground([transaction_id]))
        return qdb.state.grounded_results.get(transaction_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Session #{self.session_id} client={self.client!r} "
            f"in_flight={self._in_flight}>"
        )
