"""Shutdown ordering on sharded servers: drain, join executors, checkpoint.

``QuantumServer.shutdown()`` on a ``shards=N`` database must (in order)
drain the admission queue — completing any grounding whose plans are in
flight on the shard executors and any commit batch whose admissions are in
flight on the per-shard admission lanes — then join those executors
(shard thread pools and lane workers alike) and fold the WAL into
a checkpoint, all without deadlocking.  Every test runs under
``asyncio.wait_for`` so an ordering bug fails loudly instead of hanging
the suite.

The lane-parallel regression tests at the bottom pin that
``SessionBackpressure`` and ``GroundingTimeout`` semantics are unchanged
when the drain loop admits through per-shard lanes, and that a shutdown
racing a lane-parallel drain leaves no orphaned pending entries (every
pending transaction durable, every durable row pending).
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


def make_qdb(*, backend, shards=2, k=16, flights=6, seats=3, lanes=False):
    qdb = QuantumDatabase(
        config=QuantumConfig(
            k=k, shards=shards, shard_backend=backend, admission_lanes=lanes
        )
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


@pytest.mark.parametrize("lanes", [False, True])
def test_grounding_timeout_resolves_submitter_without_wedging_writer(lanes):
    """A hung plan resolves the submitter with GroundingTimeout; the writer
    keeps serving later work and shutdown still completes.  Identical with
    the admission lanes on: explicit grounds run at writer serialization
    points, outside the lanes, and the timeout path is untouched."""

    async def main():
        qdb = make_qdb(backend="thread", lanes=lanes)
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


def test_backpressure_semantics_unchanged_with_lanes():
    """SessionBackpressure fires at enqueue time, before any lane sees the
    work — the quota accounting must be byte-for-byte the unsharded one."""

    async def main():
        qdb = make_qdb(backend="thread", lanes=True)
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
            # The quota refused the overflow before it reached the queue
            # (and hence before any lane), exactly as without lanes.
            assert len(refused) == 2
            assert len(accepted) == 2
            assert server.statistics.backpressure_rejections == 2
            assert session.statistics.backpressure == 2
            await session.close()
        qdb.close()

    asyncio.run(asyncio.wait_for(main(), timeout=60))


@pytest.mark.parametrize("backend", BACKENDS)
def test_close_while_lanes_draining_leaves_no_orphans(backend):
    """Shutdown racing a lane-parallel drain: the in-flight commit batch
    completes on its lanes, the single group-commit durability write runs,
    and afterwards the pending store and the in-memory pending set agree
    exactly — no orphaned entry on either side."""

    async def main():
        qdb = make_qdb(backend=backend, lanes=True, flights=6, seats=3)
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
        # Let the writer start draining (the commit run fans out onto the
        # admission lanes), then shut down immediately: the sentinel lands
        # behind the batch, which must complete — lanes included — first.
        await asyncio.sleep(0)
        await server.shutdown()
        results = await asyncio.gather(*futures, return_exceptions=True)
        commits = [
            r for r in results if not isinstance(r, BaseException)
        ]
        assert commits, "at least the first drained run must have committed"
        # No orphans in either direction: everything pending in memory is
        # durable, everything durable is still pending.
        assert pending_store_ids(qdb) == state_pending_ids(qdb)
        # Lane workers and shard executors were all released.
        assert qdb._admission is None or qdb._admission.closed
        assert not any(shard.started for shard in qdb.state.partitions.shards)
        # The WAL was folded into a checkpoint as usual.
        records = list(qdb.database.wal.records())
        assert records and records[0].record_type is LogRecordType.CHECKPOINT
        qdb.close()

    asyncio.run(asyncio.wait_for(main(), timeout=60))


def test_lane_parallel_drain_matches_serialized_decisions():
    """The server's group-commit drain admits through the lanes; decisions
    and session-visible results must match the lanes-off server bit for
    bit on the same arrival order."""

    async def run_server(lanes):
        qdb = make_qdb(backend="thread", lanes=lanes, flights=5, seats=3, k=4)
        decisions = []
        async with QuantumServer(qdb) as server:
            async with server.session(client="driver") as session:
                # Submit in bursts so the writer drains real batches.
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
                        decisions.append(result.committed)
        report = qdb.statistics_report()
        qdb.close()
        return decisions, report

    async def main():
        serial_decisions, _serial_report = await run_server(False)
        lane_decisions, lane_report = await run_server(True)
        assert lane_decisions == serial_decisions
        # The lane pipeline actually ran (this is not a vacuous pass).
        assert lane_report["admission.batches"] >= 1
        assert (
            lane_report["admission.lane_dispatches"]
            + lane_report["admission.barrier_arrivals"]
        ) > 0

    asyncio.run(asyncio.wait_for(main(), timeout=60))
