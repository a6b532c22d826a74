"""Shutdown ordering under the benchmark's ``shards=N`` config: drain, then
checkpoint.

``QuantumServer.shutdown()`` must (in order) drain the admission queue —
completing a grounding queued behind other work and any commit run
already drained — then fold the WAL into a checkpoint, all without
deadlocking.  Every test runs under ``asyncio.wait_for`` so an ordering
bug fails loudly instead of hanging the suite.

The tests at the bottom pin that ``SessionBackpressure`` fires at enqueue
time, and that a shutdown racing a drain leaves no orphaned pending
entries (every pending transaction durable, every durable row pending).
(``shards`` is accepted and ignored; ``test_compat_contract.py`` holds the
server's drain to the default config's decisions.)
"""

from __future__ import annotations

import asyncio

import pytest

from repro import (
    QuantumConfig,
    QuantumDatabase,
    QuantumServer,
    ServerConfig,
    parse_transaction,
)
from repro.errors import QuantumError, SessionBackpressure
from repro.relational.wal import LogRecordType

#: ``shard_backend`` accepts only "thread" (and ignores it); the one-value
#: parameter keeps the test ids of the process-backend era.
BACKENDS = ("thread",)


def make_qdb(*, backend, shards=2, k=16, flights=6, seats=3):
    qdb = QuantumDatabase(
        config=QuantumConfig(k=k, shards=shards, shard_backend=backend)
    )
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    qdb.load_rows(
        "Available",
        [(f, f"s{i}") for f in range(1, flights + 1) for i in range(seats)],
    )
    return qdb


def booking(user, flight):
    return parse_transaction(
        f"-Available({flight}, ?s), +Bookings('{user}', {flight}, ?s)"
        f" :-1 Available({flight}, ?s)"
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_close_while_plans_in_flight(backend):
    """Shutdown drains a queued ground-all spanning six partitions."""

    async def main():
        qdb = make_qdb(backend=backend)
        server = await QuantumServer(qdb).start()
        async with server.session(client="loader") as session:
            for flight in range(1, 7):
                result = await session.commit(booking(f"u{flight}", flight))
                assert result.committed
        assert qdb.pending_count == 6
        # Enqueue the grounding but shut down before awaiting it: FIFO
        # ordering puts the shutdown sentinel behind it, so the drain loop
        # must plan and apply it before the server exits.
        ground_task = asyncio.create_task(server.ground_all())
        await asyncio.sleep(0)
        await server.shutdown()
        grounded = await ground_task
        assert len(grounded) == 6
        assert qdb.pending_count == 0
        # The WAL was folded into a checkpoint ...
        records = list(qdb.database.wal.records())
        assert records and records[0].record_type is LogRecordType.CHECKPOINT
        # ... and the server no longer accepts work.
        with pytest.raises(QuantumError):
            await server.ground_all()
        return qdb

    asyncio.run(asyncio.wait_for(main(), timeout=60))


@pytest.mark.parametrize("backend", BACKENDS)
def test_shutdown_idempotent_after_grounding(backend):
    """A second shutdown (and a post-shutdown ``close``) is a no-op."""

    async def main():
        qdb = make_qdb(backend=backend)
        async with QuantumServer(qdb) as server:
            async with server.session(client="c") as session:
                for flight in (1, 2, 3):
                    await session.commit(booking(f"v{flight}", flight))
                await session.ground(
                    [t.transaction_id for t in qdb.state.pending_transactions()]
                )
        await server.shutdown()  # idempotent
        qdb.close()  # a no-op, kept for the benchmark
        assert qdb.pending_count == 0

    asyncio.run(asyncio.wait_for(main(), timeout=60))


def pending_store_ids(qdb):
    """Transaction ids persisted in the pending-transactions table."""
    return sorted(
        transaction.transaction_id
        for _sequence, transaction in qdb.pending_store.restore()
    )


def state_pending_ids(qdb):
    """Transaction ids still pending in the in-memory quantum state."""
    return sorted(
        entry.transaction_id for entry in qdb.state.pending_transactions()
    )


def test_backpressure_semantics_unchanged_when_sharded():
    """SessionBackpressure fires at enqueue time, before the writer sees
    the work."""

    async def main():
        qdb = make_qdb(backend="thread")
        config = ServerConfig(session_quota=2)
        async with QuantumServer(qdb, config) as server:
            session = server.session(client="flooder")
            futures = [
                asyncio.ensure_future(session.commit(booking(f"b{i}", 1)))
                for i in range(4)
            ]
            results = await asyncio.gather(*futures, return_exceptions=True)
            refused = [
                r for r in results if isinstance(r, SessionBackpressure)
            ]
            accepted = [r for r in results if not isinstance(r, Exception)]
            assert len(refused) == 2
            assert len(accepted) == 2
            assert server.statistics.backpressure_rejections == 2
            await session.close()

    asyncio.run(asyncio.wait_for(main(), timeout=60))


@pytest.mark.parametrize("backend", BACKENDS)
def test_close_while_draining_leaves_no_orphans(backend):
    """Shutdown racing a drain: the commit runs already queued complete
    (with the groundings the ``k`` bound forces inside them), each run's
    single group-commit durability write runs, and afterwards the pending
    store and the in-memory pending set agree exactly — no orphaned entry
    on either side."""

    async def main():
        # k=2 with three bookings per flight: the runs force groundings.
        qdb = make_qdb(backend=backend, k=2, flights=6, seats=3)
        server = await QuantumServer(qdb).start()
        sessions = [server.session(client=f"c{i}") for i in range(3)]
        futures = []
        for i in range(18):
            session = sessions[i % len(sessions)]
            futures.append(
                asyncio.create_task(
                    session.commit(booking(f"u{i}", (i % 6) + 1))
                )
            )
        # Let the writer start draining, then shut down immediately: the
        # sentinel lands behind the queued commits, which must complete
        # first.
        await asyncio.sleep(0)
        await server.shutdown()
        results = await asyncio.gather(*futures, return_exceptions=True)
        commits = [
            r for r in results if not isinstance(r, BaseException)
        ]
        assert commits, "at least the first drained run must have committed"
        assert qdb.statistics.forced_groundings > 0
        # No orphans in either direction: everything pending in memory is
        # durable, everything durable is still pending.
        assert state_pending_ids(qdb)
        assert pending_store_ids(qdb) == state_pending_ids(qdb)
        # The WAL was folded into a checkpoint as usual.
        records = list(qdb.database.wal.records())
        assert records and records[0].record_type is LogRecordType.CHECKPOINT

    asyncio.run(asyncio.wait_for(main(), timeout=60))
