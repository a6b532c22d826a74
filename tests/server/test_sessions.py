"""Session-layer coverage: semantics, concurrency, cancellation, shutdown.

The load-bearing properties:

* admission through concurrent sessions makes decisions *identical* to the
  synchronous path replayed in the server's admission order — including
  the fast≡slow equivalence (witness cache on vs. off);
* cancelling a commit mid-flight leaves the database consistent: either
  the transaction never entered the system, or its commit stands with all
  durability bookkeeping intact;
* graceful shutdown drains the queue, flushes the WAL into a snapshot
  checkpoint, and the checkpointed log recovers the full quantum state.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.parser import parse_transaction
from repro.core.quantum_database import CommitResult, QuantumConfig, QuantumDatabase
from repro.core.recovery import PendingTransactionStore
from repro.errors import QuantumError
from repro.relational.database import Database
from repro.relational.wal import LogRecordType
from repro.server import QuantumServer, ServerConfig
from repro.server.net import NetworkServer
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog, recover
from repro.workloads.arrival_orders import ArrivalOrder
from repro.workloads.entangled_workload import generate_workload
from repro.workloads.flights import FlightDatabaseSpec, build_flight_database

SPEC = FlightDatabaseSpec(num_flights=2, rows_per_flight=3)


def make_qdb(witness_cache: bool = True, k: int = 4) -> QuantumDatabase:
    return QuantumDatabase(
        build_flight_database(SPEC),
        QuantumConfig(k=k, witness_cache=witness_cache),
    )


def booking(name: str, flight: int | None = None) -> str:
    pin = str(flight) if flight is not None else "?f"
    return (
        f"-Available({pin}, ?s), +Bookings('{name}', {pin}, ?s)"
        f" :-1 Available({pin}, ?s)"
    )


def notes_schema() -> Database:
    database = Database()
    database.create_table("Notes", ["id", "note"], key=["id"])
    return database


def used_segment_directory(tmp_path) -> DurabilityConfig:
    """A segment directory already holding a durable log (one committed row)."""
    config = DurabilityConfig(directory=str(tmp_path / "segments"))
    database = notes_schema()
    engine = SegmentedWriteAheadLog(config.directory, config)
    engine.adopt(database.wal)
    database.wal = engine
    database.insert("Notes", (1, "durable"))
    engine.close()
    return config


def record_admission_order(qdb: QuantumDatabase) -> list:
    """Wrap ``commit_batch`` so the test sees the writer's admission order."""
    admitted: list = []
    original = qdb.commit_batch

    def recording(transactions, **kwargs):
        admitted.extend(transactions)
        return original(transactions, **kwargs)

    qdb.commit_batch = recording  # type: ignore[method-assign]
    return admitted


class TestRoundTrip:
    def test_commit_ground_read(self):
        async def main():
            qdb = make_qdb()
            async with QuantumServer(qdb) as server:
                async with server.session(client="Mickey") as session:
                    result = await session.commit(booking("Mickey"))
                    assert isinstance(result, CommitResult)
                    assert result.committed and result.pending
                    waiter = session.on_grounding(result.transaction_id)
                    record = await session.check_in(result.transaction_id)
                    assert record.valuation["s"]
                    assert (await waiter).transaction_id == result.transaction_id
                    rows = await session.read(
                        "Bookings", ["Mickey", None, None]
                    )
                    assert len(rows) == 1
                    # Read results are isolated copies.
                    rows[0]["_1"] = "mutated"
                    again = await session.read("Bookings", ["Mickey", None, None])
                    assert again[0]["_1"] != "mutated"
                    stats = server.statistics
                    assert stats.commits == qdb.state.statistics.admitted == 1
                    # Only the commit queued; the check-in and both reads
                    # were answered on the caller.
                    assert stats.items == 1
                    assert (stats.reads, stats.grounds) == (2, 1)
                    assert stats.grounding_futures_resolved == 1

        asyncio.run(main())

    def test_rejection_is_reported_not_raised(self):
        async def main():
            qdb = make_qdb()
            async with QuantumServer(qdb) as server:
                async with server.session() as session:
                    seats = SPEC.seats_per_flight
                    results = [
                        await session.commit(booking(f"u{i}", flight=SPEC.first_flight_number))
                        for i in range(seats + 1)
                    ]
                    assert [r.committed for r in results] == [True] * seats + [False]
                    assert results[-1].rejection_reason
                    assert qdb.state.statistics.rejected == 1

        asyncio.run(main())

    def test_on_grounding_by_relation_and_predicate(self):
        async def main():
            qdb = make_qdb()
            async with QuantumServer(qdb) as server:
                async with server.session() as session:
                    by_relation = session.on_grounding("Bookings")
                    by_predicate = session.on_grounding(
                        lambda record: record.valuation.get("s") is not None
                    )
                    result = await session.commit(booking("Minnie"))
                    await session.ground([result.transaction_id])
                    assert (await by_relation).transaction_id == result.transaction_id
                    assert (await by_predicate).transaction_id == result.transaction_id

        asyncio.run(main())

    def test_check_in_returns_the_requested_transaction(self):
        """Grounding a target may drag its partition prefix along; check_in
        must return the requested record, not the prefix's first."""

        async def main():
            qdb = make_qdb()
            flight = SPEC.first_flight_number
            async with QuantumServer(qdb) as server:
                async with server.session() as session:
                    first = await session.commit(booking("first", flight))
                    second = await session.commit(booking("second", flight))
                    record = await session.check_in(second.transaction_id)
                    assert record is not None
                    assert record.transaction_id == second.transaction_id
                    assert first.transaction_id != second.transaction_id

        asyncio.run(main())

    def test_commit_batch_pass_through_matches_sequential(self):
        texts = [booking(f"u{i}") for i in range(4)]

        async def through_server():
            qdb = make_qdb()
            async with QuantumServer(qdb) as server:
                async with server.session() as session:
                    results = await session.commit_batch(texts)
                    assert server.statistics.batch_commits == len(texts)
                    assert server.statistics.commit_runs == 1
                    return [r.committed for r in results]

        sync_qdb = make_qdb()
        sync_decisions = [sync_qdb.execute(t).committed for t in texts]
        assert asyncio.run(through_server()) == sync_decisions


class TestConcurrentEquivalence:
    """Concurrent commits to disjoint partitions ≡ the synchronous path."""

    @staticmethod
    async def run_clients(server: QuantumServer, streams: list[list]) -> dict[int, bool]:
        decisions: dict[int, bool] = {}

        async def client(index: int, stream: list) -> None:
            async with server.session(client=f"client{index}") as session:
                for transaction in stream:
                    result = await session.commit(transaction)
                    decisions[result.transaction_id] = result.committed

        await asyncio.gather(
            *(client(i, stream) for i, stream in enumerate(streams))
        )
        return decisions

    @staticmethod
    def streams(clients: int, transactions: list) -> list[list]:
        return [transactions[i::clients] for i in range(clients)]

    @staticmethod
    def workload_transactions() -> list:
        return list(generate_workload(SPEC, ArrivalOrder.RANDOM, seed=7).transactions)

    def run_concurrent(
        self, witness_cache: bool, transactions: list
    ) -> tuple[dict[int, bool], list]:
        async def main():
            qdb = make_qdb(witness_cache=witness_cache)
            admitted = record_admission_order(qdb)
            async with QuantumServer(qdb) as server:
                decisions = await self.run_clients(
                    server, self.streams(4, transactions)
                )
                assert qdb.pending_count == qdb.state.pending_count()
            return decisions, admitted

        return asyncio.run(main())

    def test_decisions_match_synchronous_replay(self):
        decisions, admitted = self.run_concurrent(
            witness_cache=True, transactions=self.workload_transactions()
        )
        assert len(admitted) == len(decisions)
        replay = make_qdb(witness_cache=True)
        for transaction in admitted:
            result = replay.execute(transaction)
            assert result.committed == decisions[transaction.transaction_id]

    def test_fast_slow_equivalence_through_sessions(self):
        transactions = self.workload_transactions()
        fast, _admitted_fast = self.run_concurrent(
            witness_cache=True, transactions=transactions
        )
        slow, _admitted_slow = self.run_concurrent(
            witness_cache=False, transactions=transactions
        )
        # Same per-transaction decisions regardless of the witness cache:
        # the fast path changes search effort, never semantics.  (Each run
        # may interleave arrivals differently, but per-partition streams
        # are identical per session, and partitions are disjoint flights.)
        assert fast == slow

    def test_server_ground_all_matches_serial(self):
        transactions = self.workload_transactions()

        async def main():
            qdb = make_qdb()
            async with QuantumServer(qdb) as server:
                decisions = await self.run_clients(
                    server, self.streams(4, transactions)
                )
                records = await server.ground_all()
                assert qdb.pending_count == 0
                inline = set(qdb.state.grounded_results)
                return decisions, {r.transaction_id for r in records}, inline

        decisions, grounded, inline = asyncio.run(main())
        accepted = {tid for tid, ok in decisions.items() if ok}
        # Every accepted transaction ends up grounded (inline partner/k-bound
        # groundings plus the server's ground_all), none twice.
        assert inline == accepted
        assert grounded <= accepted


class TestCancellation:
    def test_cancel_before_admission_leaves_db_consistent(self):
        async def main():
            qdb = make_qdb()
            async with QuantumServer(qdb) as server:
                session = server.session(client="canceller")
                tasks = [
                    asyncio.create_task(session.commit(booking(f"u{i}")))
                    for i in range(6)
                ]
                # One scheduling round lets every commit enqueue its work
                # item (the writer wakes up only after this coroutine
                # yields again), so the cancellations strike while the
                # items sit in the admission queue — mid-commit.
                await asyncio.sleep(0)
                for task in tasks[::2]:
                    task.cancel()
                settled = await asyncio.gather(*tasks, return_exceptions=True)
                cancelled = [r for r in settled if isinstance(r, asyncio.CancelledError)]
                admitted = [r for r in settled if not isinstance(r, BaseException)]
                assert len(cancelled) == 3 and len(admitted) == 3
                assert all(r.committed for r in admitted)
                # Consistency: the pending store mirrors the in-memory
                # pending set exactly; cancelled transactions left no trace.
                pending_ids = {
                    e.transaction_id for e in qdb.state.pending_transactions()
                }
                assert qdb.pending_store.pending_ids() == pending_ids
                admitted_ids = {r.transaction_id for r in admitted}
                assert pending_ids <= admitted_ids
                assert server.statistics.cancelled_before_admission == 3
                assert qdb.state.statistics.admitted == 3
                # The database still works: later commits and groundings run.
                follow_up = await session.commit(booking("after"))
                assert follow_up.committed
                await server.ground_all()
                assert qdb.pending_count == 0

        asyncio.run(main())


class TestOneCommitPath:
    """A batch is one queue item that joins its drain's group-commit run."""

    @staticmethod
    async def queue_together(submissions):
        """Start every submission in one scheduling round, so that all of
        them sit in the queue when the writer drains it; return the tasks."""
        tasks = [asyncio.create_task(submission) for submission in submissions]
        await asyncio.sleep(0)
        return tasks

    def test_batch_between_two_commits_joins_one_run(self):
        async def main():
            qdb = make_qdb(k=2)
            async with QuantumServer(qdb) as server:
                async with server.session(client="fill") as session:
                    # Seven of the flight's nine seats: the run below
                    # admits two of its five transactions and rejects three.
                    for index in range(7):
                        assert (await session.commit(booking(f"f{index}", 100))).committed
                admitted = record_admission_order(qdb)
                before = server.statistics_report()
                a, b, c = (server.session(client=name) for name in "abc")
                batch = [parse_transaction(booking(f"b{i}", 100)) for i in range(3)]
                first = parse_transaction(booking("a", 100))
                last = parse_transaction(booking("c", 100))
                tasks = await self.queue_together(
                    [a.commit(first), b.commit_batch(batch), c.commit(last)]
                )
                one, many, other = await asyncio.gather(*tasks)
                after = server.statistics_report()
            return before, after, admitted, [first, *batch, last], [one, *many, other]

        before, after, admitted, sent, results = asyncio.run(main())

        def grew(key: str) -> int:
            return after[key] - before[key]

        assert grew("server.commit_runs") == 1
        assert grew("store.commits") == 1
        assert grew("server.commits") == 2 and grew("server.batch_commits") == 3
        assert grew("state.batches") == 1 and grew("state.batch_transactions") == 5
        # The batch sits contiguous and in order between the two commits,
        # and each submitter gets its own results back, in order.
        assert admitted == sent
        assert [r.transaction for r in results] == sent
        assert [r.committed for r in results] == [True, True, False, False, False]
        # The decisions are those of replaying the fill and the run in order.
        replay = make_qdb(k=2)
        for index in range(7):
            assert replay.execute(booking(f"f{index}", 100)).committed
        assert [replay.execute(t).committed for t in sent] == [
            r.committed for r in results
        ]

    def test_cancelled_batch_is_withdrawn_whole(self):
        async def main():
            qdb = make_qdb()
            async with QuantumServer(qdb) as server:
                a, b, c = (server.session(client=name) for name in "abc")
                batch = [booking(f"b{i}", 100) for i in range(3)]
                tasks = await self.queue_together(
                    [a.commit(booking("a", 100)), b.commit_batch(batch), c.commit(booking("c", 101))]
                )
                tasks[1].cancel()
                one, cancelled, other = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
                assert isinstance(cancelled, asyncio.CancelledError)
                assert one.committed and other.committed
                assert server.statistics.cancelled_before_admission == 1
                assert server.statistics.commit_runs == 1
                assert server.statistics.batch_commits == 0
                assert qdb.state.statistics.admitted == 2
                pending = {e.transaction_id for e in qdb.state.pending_transactions()}
                assert pending == {one.transaction_id, other.transaction_id}
                assert qdb.pending_store.pending_ids() == pending

        asyncio.run(main())


class TestShutdownAndRecovery:
    def test_shutdown_rejects_new_work_but_drains_queue(self):
        async def main():
            qdb = make_qdb()
            server = QuantumServer(qdb)
            await server.start()
            session = server.session()
            task = asyncio.create_task(session.commit(booking("drained")))
            await asyncio.sleep(0)  # let the item enqueue
            await server.shutdown()
            result = await task  # enqueued before shutdown → completed
            assert result.committed
            with pytest.raises(QuantumError):
                await session.commit(booking("rejected"))
            with pytest.raises(QuantumError):
                server.session()

        asyncio.run(main())

    def test_on_grounding_after_shutdown_raises_instead_of_hanging(self):
        async def main():
            qdb = make_qdb()
            server = QuantumServer(qdb)
            await server.start()
            session = server.session()
            result = await session.commit(booking("early"))
            await server.shutdown()
            with pytest.raises(QuantumError):
                session.on_grounding(result.transaction_id)
            # The database outlives the server: only its own grounding
            # listener is left, so synchronous use keeps working without
            # the dead server.
            assert qdb.state.grounding_listeners == [qdb._handle_grounded]
            qdb.ground_all()
            assert qdb.pending_count == 0

        asyncio.run(main())

    def test_start_refuses_a_directory_holding_a_log(self, tmp_path):
        config = used_segment_directory(tmp_path)

        async def main():
            qdb = make_qdb()
            server = QuantumServer(qdb, ServerConfig(durability=config))
            with pytest.raises(QuantumError, match="already holds a durable log"):
                await server.start()
            # The database keeps its own log; nothing was adopted.
            assert not isinstance(qdb.database.wal, SegmentedWriteAheadLog)

        asyncio.run(main())
        # The durable log is untouched by the refused start.
        survived = recover(config.directory, notes_schema)
        assert survived.table("Notes").snapshot() == [(1, "durable")]
        survived.wal.close()

    def test_a_server_that_never_ran_leaves_only_the_database_listener(self):
        async def main():
            qdb = make_qdb()
            only_the_database = [qdb._handle_grounded]
            await QuantumServer(qdb).shutdown()
            assert qdb.state.grounding_listeners == only_the_database
            # The next server neither chains the dead one nor restores it.
            server = QuantumServer(qdb)
            async with server:
                assert qdb.state.grounding_listeners == [
                    qdb._handle_grounded,
                    server._handle_grounded,
                ]
            assert qdb.state.grounding_listeners == only_the_database

        asyncio.run(main())

    def test_a_failed_start_leaves_only_the_database_listener(self, tmp_path):
        config = used_segment_directory(tmp_path)

        async def main():
            qdb = make_qdb()
            net = NetworkServer(qdb, server_config=ServerConfig(durability=config))
            with pytest.raises(QuantumError, match="already holds a durable log"):
                await net.start()
            await net.server.shutdown()
            assert qdb.state.grounding_listeners == [qdb._handle_grounded]
            # A server started next on the same database notifies its own
            # waiters, and leaves the same single listener behind.
            async with QuantumServer(qdb) as server:
                session = server.session()
                result = await session.commit(booking("Mickey"))
                grounded = session.on_grounding(result.transaction_id)
                await session.check_in(result.transaction_id)
                assert (await grounded).transaction_id == result.transaction_id
            assert qdb.state.grounding_listeners == [qdb._handle_grounded]

        asyncio.run(main())

    def test_shutdown_checkpoints_wal(self):
        async def main():
            qdb = make_qdb()
            async with QuantumServer(qdb) as server:
                async with server.session() as session:
                    await session.commit(booking("Mickey"))
            records = qdb.database.wal.records()
            assert [r.record_type for r in records] == [LogRecordType.CHECKPOINT]
            assert records[0].snapshot is not None

        asyncio.run(main())

    def test_recovery_from_checkpointed_wal(self, tmp_path):
        directory = str(tmp_path / "segments")

        async def main():
            qdb = make_qdb()
            config = ServerConfig(durability=DurabilityConfig(directory=directory))
            async with QuantumServer(qdb, config) as server:
                async with server.session() as session:
                    results = [
                        await session.commit(booking(f"u{i}")) for i in range(3)
                    ]
            qdb.database.wal.close()
            return qdb, {r.transaction_id for r in results}

        old_qdb, committed_ids = asyncio.run(main())
        pending_before = old_qdb.pending_store.pending_ids()
        assert pending_before  # still in superposition at shutdown

        # "Crash": rebuild everything from the segment directory alone.
        # The schema factory declares the catalog (including the pending
        # table); the checkpoint snapshot then replaces every table's
        # contents.
        def schema_factory():
            database = build_flight_database(SPEC)
            PendingTransactionStore(database)
            return database

        database = recover(directory, schema_factory)
        recovered = QuantumDatabase.recover(database, QuantumConfig(k=4))
        assert recovered.pending_store.pending_ids() == pending_before
        assert {
            e.transaction_id for e in recovered.state.pending_transactions()
        } == pending_before
        # Sequence numbering resumes after the persisted high-water mark.
        sequences = [e.sequence for e in recovered.state.pending_transactions()]
        new_entry = recovered.state.admit(parse_transaction(booking("later")))
        assert new_entry.sequence > max(sequences)
        # And the recovered state still grounds consistently.
        recovered.ground_all()
        assert recovered.pending_count == 0
        recovered.database.wal.close()


class TestServerStatistics:
    def test_group_commit_and_counters(self):
        async def main():
            qdb = make_qdb()
            async with QuantumServer(qdb) as server:
                streams = [
                    [booking(f"c{i}_{j}") for j in range(3)] for i in range(4)
                ]

                async def client(stream):
                    async with server.session() as session:
                        for text in stream:
                            await session.commit(text)

                await asyncio.gather(*(client(s) for s in streams))
                stats = server.statistics
                assert stats.commits == 12
                assert stats.commit_runs <= stats.commits
                assert stats.max_commit_run >= 2  # concurrency did group up
                report = server.statistics_report()
                assert report["search.searches"] > 0
                assert report["server.commits"] == 12
                assert "state.admitted" in report

        asyncio.run(main())


class TestStartupValidation:
    def test_failed_start_leaves_server_unstarted_and_retryable(self, tmp_path):
        used = used_segment_directory(tmp_path)

        async def main():
            qdb = make_qdb()
            server = QuantumServer(qdb, ServerConfig(durability=used))
            with pytest.raises(QuantumError):
                await server.start()
            # Nothing half-started: a session cannot enqueue unprocessable
            # work against a server with no writer.
            with pytest.raises(QuantumError):
                await server.session().commit(booking("nobody"))
            # A retry with a fixed configuration succeeds.
            fresh = DurabilityConfig(directory=str(tmp_path / "fresh"))
            server.config = ServerConfig(durability=fresh)
            await server.start()
            try:
                result = await server.session().commit(booking("works"))
                assert result.committed
            finally:
                await server.shutdown()
            assert isinstance(qdb.database.wal, SegmentedWriteAheadLog)
            qdb.database.wal.close()

        asyncio.run(main())
