"""Per-client sessions over a :class:`~repro.server.service.QuantumServer`.

A :class:`Session` is one client's view of the quantum database: its own
stream of resource transactions and awaitable grounding notifications.
A session runs its operations one at a time, in the order they were
issued.  A commit joins the server's single-writer admission queue and
holds the session's turn until the writer has admitted it (and, for
admissions, durably persisted it), which is what gives concurrent clients
the exact semantics of the synchronous
:class:`~repro.core.quantum_database.QuantumDatabase` API (see
``docs/architecture.md``, "The session/queue model").  Every other
operation is the same ``QuantumDatabase`` call, made at once on the
caller: every writer step runs synchronously on the loop, so the call
runs between two steps.  An operation that finds nothing of its session
in progress takes no lock and does not suspend; such answers never yield
the loop, so a session yields it once after :data:`YIELD_EVERY` of them
in a row.

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
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeVar

from repro.core.parser import parse_transaction
from repro.core.quantum_database import CommitResult
from repro.core.quantum_state import GroundedTransaction
from repro.core.reads import ReadMode, ReadRequest
from repro.core.resource_transaction import ResourceTransaction
from repro.errors import QuantumError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.service import QuantumServer

T = TypeVar("T")

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
    manager.  All methods may be called concurrently with other sessions'
    (the server's single writer serializes commits, and every other
    operation runs between two of its steps) and with this session's own:
    they then run one at a time, in the order they were called.
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
        #: Operations of this session started and not yet finished, not
        #: counting one answered at once.  While it is non-zero a new
        #: operation waits for ``_turn``, which a commit holds until the
        #: writer has admitted it.
        self._active = 0
        self._turn = asyncio.Lock()
        #: Answers made in a row without suspending (reset on suspending).
        self._unqueued = 0

    async def _answer(self, counter: str, call: Callable[[], T]) -> T:
        """Make ``call``, a :class:`QuantumDatabase` call that is not a
        commit, on the caller at this session's turn (see
        :meth:`QuantumServer._run
        <repro.server.service.QuantumServer._run>`)."""
        server = self._server
        if self._active:
            self._active += 1
            try:
                async with self._turn:
                    self._unqueued = 0
                    return server._run(counter, call)
            finally:
                self._active -= 1
        result = server._run(counter, call)
        self._unqueued += 1
        if self._unqueued >= YIELD_EVERY:
            self._unqueued = 0
            await asyncio.sleep(0)
        return result

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once the session (or its server) no longer accepts work."""
        return self._closed or self._server.closed

    async def close(self) -> None:
        """Close the session; operations already issued still complete."""
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

        Cancelling the coroutine *before* the writer picks the item up —
        in the queue, or while it waits for the session's turn — withdraws
        the transaction (it is never admitted); once the writer has
        started, the admission stands even if the ack is cancelled.
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
        item at this session's turn, holding the turn until the writer has
        admitted them: a refused transaction never shares a group-commit
        run."""
        server = self._server
        check_updates = server.qdb.check_updates
        for transaction in transactions:
            check_updates(transaction)
        self._active += 1
        try:
            try:
                # Does not suspend when nothing of the session is in progress.
                await self._turn.acquire()
            except asyncio.CancelledError:
                # Withdrawn before it reached the queue: as if cancelled in it.
                server.statistics.cancelled_before_admission += 1
                raise
            try:
                return await server._enqueue(self, counter, transactions)
            finally:
                self._turn.release()
        finally:
            self._active -= 1

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
        """Answer a read query (:meth:`QuantumDatabase.read`) at once.

        Same semantics: COLLAPSE grounds exactly the pending transactions
        the read touches, and a read the schema check refuses collapses
        nothing.  The returned dictionaries are fresh copies owned by the
        caller.
        """
        self._require_open()
        qdb = self._server.qdb
        return await self._answer(
            "reads",
            lambda: qdb.read(request, terms, mode=mode, select=select, limit=limit),
        )

    async def insert(self, table: str, values: Sequence[Any]) -> None:
        """Blind insert, admission-checked against pending transactions."""
        self._require_open()
        qdb = self._server.qdb
        await self._answer("writes", lambda: qdb.insert(table, values))

    async def delete(self, table: str, values: Sequence[Any]) -> None:
        """Blind delete, admission-checked against pending transactions."""
        self._require_open()
        qdb = self._server.qdb
        await self._answer("writes", lambda: qdb.delete(table, values))

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
        """Explicitly collapse specific pending transactions
        (:meth:`QuantumDatabase.ground`); ids that are not pending are
        skipped."""
        self._require_open()
        qdb = self._server.qdb
        ids = list(transaction_ids)
        return await self._answer("grounds", lambda: qdb.ground(ids))

    async def check_in(self, transaction_id: int) -> GroundedTransaction | None:
        """Collapse one transaction and return its assignment, or ``None``
        for an unknown id (:meth:`QuantumDatabase.check_in`).

        Grounding the target may ground earlier same-partition transactions
        with it (the serialization prefix); the record returned is the
        requested one's.
        """
        self._require_open()
        qdb = self._server.qdb
        return await self._answer("grounds", lambda: qdb.check_in(transaction_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Session #{self.session_id} client={self.client!r} "
            f"active={self._active}>"
        )
