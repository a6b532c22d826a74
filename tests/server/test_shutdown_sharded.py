"""Shutdown ordering on sharded servers: drain, join executors, checkpoint.

``QuantumServer.shutdown()`` on a ``shards=N`` database must (in order)
drain the admission queue — completing any grounding whose plans are in
flight on the shard executors and any commit run already drained — then
join those executors and fold the WAL into a checkpoint, all without
deadlocking.  Every test runs under ``asyncio.wait_for`` so an ordering
bug fails loudly instead of hanging the suite.

The tests at the bottom pin that a hung grounding plan resolves its
submitter with ``GroundingTimeout`` without wedging the writer, that
``SessionBackpressure`` is the unsharded one, that a shutdown racing a
drain leaves no orphaned pending entries (every pending transaction
durable, every durable row pending), and that the sharded drain decides
exactly like the unsharded one.
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
from repro.errors import GroundingTimeout, QuantumError, SessionBackpressure
from repro.relational.wal import LogRecordType

#: Threads are the only shard backend; the one-value parameter keeps the
#: test ids of the process-backend era.
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
    """Shutdown drains a queued ground-all whose plans fan out per shard."""

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
        # must fan the plans out to the shard executors (starting them
        # lazily, mid-shutdown) and apply them before the server exits.
        ground_task = asyncio.create_task(server.ground_all())
        await asyncio.sleep(0)
        await server.shutdown()
        grounded = await ground_task
        assert len(grounded) == 6
        assert qdb.pending_count == 0
        # Executors were joined ...
        assert not any(shard.started for shard in qdb.state.partitions.shards)
        # ... the WAL was folded into a checkpoint ...
        records = list(qdb.database.wal.records())
        assert records and records[0].record_type is LogRecordType.CHECKPOINT
        # ... and the server no longer accepts work.
        with pytest.raises(QuantumError):
            await server.ground_all()
        return qdb

    asyncio.run(asyncio.wait_for(main(), timeout=60))


@pytest.mark.parametrize("backend", BACKENDS)
def test_shutdown_idempotent_after_grounding(backend):
    """A second shutdown (and a post-shutdown close) is a no-op."""

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
        qdb.close()  # executors already joined; also idempotent
        assert qdb.pending_count == 0

    asyncio.run(asyncio.wait_for(main(), timeout=60))


def test_grounding_timeout_resolves_submitter_without_wedging_writer():
    """A hung plan resolves the submitter with GroundingTimeout; the writer
    keeps serving later work and shutdown still completes."""

    async def main():
        qdb = make_qdb(backend="thread")
        server = await QuantumServer(
            qdb, ServerConfig(grounding_timeout_s=0.05)
        ).start()
        async with server.session(client="c") as session:
            for flight in (1, 2):
                await session.commit(booking(f"w{flight}", flight))
            original = qdb.state.plan_grounding

            def hung_plan(partition, targets, *, forced=False):
                import time

                time.sleep(0.3)
                return original(partition, targets, forced=forced)

            qdb.state.plan_grounding = hung_plan
            with pytest.raises(GroundingTimeout):
                await session.ground(
                    [t.transaction_id for t in qdb.state.pending_transactions()]
                )
            # The timeout applied nothing: both transactions stay pending,
            # and the writer is alive — admission (which never touches the
            # stuck plan executors) proceeds immediately.
            assert qdb.pending_count == 2
            result = await session.commit(booking("w3", 3))
            assert result.committed
            # Once the hung plans actually drain off the shard workers, a
            # retry grounds everything normally.
            qdb.state.plan_grounding = original
            await asyncio.sleep(0.4)
            grounded = await session.ground(
                [t.transaction_id for t in qdb.state.pending_transactions()]
            )
            assert len(grounded) == 3
        await server.shutdown()

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
    the work — the quota accounting is the unsharded one."""

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
            assert session.statistics.backpressure == 2
            await session.close()
        qdb.close()

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
        # The shard executors were released.
        assert not any(shard.started for shard in qdb.state.partitions.shards)
        # The WAL was folded into a checkpoint as usual.
        records = list(qdb.database.wal.records())
        assert records and records[0].record_type is LogRecordType.CHECKPOINT
        qdb.close()

    asyncio.run(asyncio.wait_for(main(), timeout=60))


def test_sharded_drain_matches_unsharded_decisions():
    """The server's group-commit drain admits each run through
    ``commit_batch``; on four shards its decisions and session-visible
    results match the unsharded server's on the same arrival order."""

    async def run_server(shards):
        qdb = make_qdb(backend="thread", shards=shards, flights=5, seats=3, k=4)
        decisions = []
        async with QuantumServer(qdb) as server:
            async with server.session(client="driver") as session:
                # Submit in bursts so the writer drains real runs.
                for burst in range(4):
                    futures = [
                        asyncio.ensure_future(
                            session.commit(
                                booking(f"s{burst}_{i}", (i % 5) + 1)
                            )
                        )
                        for i in range(6)
                    ]
                    for result in await asyncio.gather(*futures):
                        decisions.append(
                            (result.committed, result.pending, len(result.grounded))
                        )
            runs = server.statistics.commit_runs
        qdb.close()
        return decisions, runs

    async def main():
        unsharded, _runs = await run_server(1)
        sharded, runs = await run_server(4)
        assert sharded == unsharded
        # The drain batched commits (this is not a vacuous pass).
        assert runs < len(sharded)

    asyncio.run(asyncio.wait_for(main(), timeout=60))
