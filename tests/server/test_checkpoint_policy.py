"""Periodic checkpoint policy: long-running servers bound their WAL.

Graceful shutdown already folds the WAL into a snapshot checkpoint; the
policy does the same at writer drain boundaries so a server that never
shuts down still keeps recovery replay bounded.  Checkpoints that find a
store transaction active are refused (as on shutdown) and retried later.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.relational.wal import LogRecordType
from repro.server import CheckpointPolicy, QuantumServer, ServerConfig
from repro.workloads.flights import FlightDatabaseSpec, build_flight_database

SPEC = FlightDatabaseSpec(num_flights=2, rows_per_flight=4)


def make_qdb() -> QuantumDatabase:
    return QuantumDatabase(build_flight_database(SPEC), QuantumConfig(k=8))


def booking(name: str, flight: int) -> str:
    return (
        f"-Available({flight}, ?s), +Bookings('{name}', {flight}, ?s)"
        f" :-1 Available({flight}, ?s)"
    )


class TestPolicy:
    def test_due_thresholds(self):
        policy = CheckpointPolicy(max_wal_records=10, max_interval_s=60.0)
        assert not policy.due(9, 59.0)
        assert policy.due(10, 0.0)
        assert policy.due(1, 60.0)
        # Never due with nothing new to fold: a zero-record checkpoint
        # would rewrite the same snapshot for no recovery benefit.
        assert not policy.due(0, 60.0)

    def test_thresholdless_policy_rejected(self):
        from repro.errors import QuantumError

        with pytest.raises(QuantumError):
            CheckpointPolicy()

    def test_record_count_triggers_checkpoint(self):
        async def scenario():
            qdb = make_qdb()
            config = ServerConfig(
                checkpoint_policy=CheckpointPolicy(max_wal_records=5),
                checkpoint_on_shutdown=False,
            )
            async with QuantumServer(qdb, config) as server:
                async with server.session(client="mickey") as session:
                    for index in range(8):
                        await session.commit(booking(f"u{index}", 100 + index % 2))
                assert server.statistics.policy_checkpoints >= 1
                # The WAL was folded: a CHECKPOINT record exists and the
                # replay tail stays short.
                types = [r.record_type for r in qdb.database.wal.records()]
                assert LogRecordType.CHECKPOINT in types
            return qdb, server

        qdb, server = asyncio.run(scenario())
        # Pending transactions survived the policy checkpoints.
        assert qdb.pending_count > 0

    def test_interval_triggers_checkpoint(self):
        async def scenario():
            qdb = make_qdb()
            config = ServerConfig(
                checkpoint_policy=CheckpointPolicy(max_interval_s=0.0),
                checkpoint_on_shutdown=False,
            )
            async with QuantumServer(qdb, config) as server:
                async with server.session(client="mickey") as session:
                    await session.commit(booking("a", 100))
                    await session.commit(booking("b", 101))
                # Every drain checkpoints with a zero interval.
                assert server.statistics.policy_checkpoints >= 2
            return server

        asyncio.run(scenario())

    def test_idle_server_still_checkpoints_on_interval(self):
        async def scenario():
            qdb = make_qdb()
            config = ServerConfig(
                checkpoint_policy=CheckpointPolicy(max_interval_s=0.1),
                checkpoint_on_shutdown=False,
            )
            async with QuantumServer(qdb, config) as server:
                async with server.session(client="mickey") as session:
                    await session.commit(booking("a", 100))
                # No further traffic: the writer's bounded queue wait must
                # still reach the drain boundary and fold the records.
                await asyncio.sleep(0.4)
                assert server.statistics.policy_checkpoints >= 1
                types = [r.record_type for r in qdb.database.wal.records()]
                assert LogRecordType.CHECKPOINT in types

        asyncio.run(scenario())

    def test_no_policy_means_no_periodic_checkpoints(self):
        async def scenario():
            qdb = make_qdb()
            async with QuantumServer(qdb, ServerConfig()) as server:
                async with server.session(client="mickey") as session:
                    await session.commit(booking("a", 100))
                assert server.statistics.policy_checkpoints == 0
            # Shutdown still checkpoints (the existing behaviour).
            types = [r.record_type for r in qdb.database.wal.records()]
            assert LogRecordType.CHECKPOINT in types

        asyncio.run(scenario())

    def test_refused_checkpoint_arms_deferred_retry(self):
        """A refusal is never a silent skip: it counts and re-arms."""
        qdb = make_qdb()
        config = ServerConfig(
            checkpoint_policy=CheckpointPolicy(max_wal_records=1),
            checkpoint_on_shutdown=False,
        )
        server = QuantumServer(qdb, config)
        qdb.execute(booking("a", 100))  # fresh records: the policy is due
        txn = qdb.database.begin()
        txn.insert("Available", (1, "sX"))
        server._maybe_checkpoint()
        assert server.statistics.checkpoints_refused == 1
        assert server._checkpoint_retries == server._CHECKPOINT_RETRY_BUDGET
        assert server.statistics_report()["durability.checkpoint_deferred"] == 1
        txn.abort()

    def test_deferred_retry_fires_even_when_no_longer_due(self):
        """The retry runs at the next boundary even if the policy went quiet.

        After the refusal an external ``qdb.checkpoint()`` folds the WAL,
        so by the policy's own thresholds nothing is due any more — the
        armed retry must still take the checkpoint it owed.
        """
        qdb = make_qdb()
        config = ServerConfig(
            checkpoint_policy=CheckpointPolicy(max_wal_records=1),
            checkpoint_on_shutdown=False,
        )
        server = QuantumServer(qdb, config)
        qdb.execute(booking("a", 100))
        txn = qdb.database.begin()
        txn.insert("Available", (1, "sX"))
        server._maybe_checkpoint()  # refused, retry armed
        txn.abort()
        qdb.checkpoint()  # external fold: records_since drops to zero
        server._maybe_checkpoint()
        assert server.statistics.policy_checkpoints == 1
        assert server._checkpoint_retries == 0

    def test_deferred_retry_budget_is_bounded(self):
        """A transaction held open forever exhausts the retry budget."""
        qdb = make_qdb()
        config = ServerConfig(
            # Never due by its own thresholds: only armed retries attempt.
            checkpoint_policy=CheckpointPolicy(max_wal_records=10_000),
            checkpoint_on_shutdown=False,
        )
        server = QuantumServer(qdb, config)
        txn = qdb.database.begin()
        txn.insert("Available", (1, "sX"))
        server._checkpoint_retries = server._CHECKPOINT_RETRY_BUDGET
        for _ in range(server._CHECKPOINT_RETRY_BUDGET + 2):
            server._maybe_checkpoint()
        # One refusal per armed boundary, then the policy stops trying.
        assert (
            server.statistics.checkpoints_refused
            == server.statistics_report()["durability.checkpoint_deferred"]
            == server._CHECKPOINT_RETRY_BUDGET
        )
        assert server._checkpoint_retries == 0
        txn.abort()

    def test_refused_while_transaction_active(self):
        async def scenario():
            qdb = make_qdb()
            config = ServerConfig(
                checkpoint_policy=CheckpointPolicy(max_wal_records=1),
                checkpoint_on_shutdown=False,
            )
            async with QuantumServer(qdb, config) as server:
                # Hold a store transaction open across a drain boundary: the
                # policy must refuse (and count) rather than snapshot
                # uncommitted effects.
                txn = qdb.database.begin()
                txn.insert("Available", (1, "sX"))
                async with server.session(client="mickey") as session:
                    await session.commit(booking("a", 101))
                assert server.statistics.checkpoints_refused >= 1
                assert server.statistics.policy_checkpoints == 0
                txn.abort()
                # With the transaction gone the next drain checkpoints.
                async with server.session(client="minnie") as session:
                    await session.commit(booking("b", 101))
                assert server.statistics.policy_checkpoints >= 1

        asyncio.run(scenario())
