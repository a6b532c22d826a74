"""The server drain path on the segmented durability engine.

``ServerConfig(durability=DurabilityConfig(mode="segmented", ...))`` must
swap the store onto a :class:`SegmentedWriteAheadLog` at startup, run the
background compactor with the server's lifecycle discipline, fold the
drain-boundary/shutdown checkpoints into the base/delta lineage, and
refuse to write over a directory that already holds a durable log.
"""

from __future__ import annotations

import asyncio
import os
import threading

import pytest

from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.core.recovery import PendingTransactionStore
from repro.errors import QuantumError
from repro.relational.wal import WriteAheadLog
from repro.server import CheckpointPolicy, QuantumServer, ServerConfig
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog, recover
from repro.workloads.flights import FlightDatabaseSpec, build_flight_database

SPEC = FlightDatabaseSpec(num_flights=2, rows_per_flight=4)


def make_qdb() -> QuantumDatabase:
    return QuantumDatabase(build_flight_database(SPEC), QuantumConfig(k=8))


def flight_schema():
    database = build_flight_database(SPEC)
    PendingTransactionStore(database)
    return database


def booking(name: str, flight: int) -> str:
    return (
        f"-Available({flight}, ?s), +Bookings('{name}', {flight}, ?s)"
        f" :-1 Available({flight}, ?s)"
    )


def segmented_config(tmp_path, **overrides) -> DurabilityConfig:
    return DurabilityConfig(
        mode="segmented", directory=str(tmp_path / "segments"), **overrides
    )


class TestInMemoryServer:
    def test_default_config_keeps_the_in_memory_log(self):
        async def scenario():
            qdb = make_qdb()
            log = qdb.database.wal
            async with QuantumServer(qdb, ServerConfig()) as server:
                async with server.session(client="mickey") as session:
                    await session.commit(booking("u0", 100))
                report = server.statistics_report()
            # No DurabilityConfig: the store keeps the log it was built with.
            assert qdb.database.wal is log
            assert type(log) is WriteAheadLog
            assert report["durability.mode"] == "memory"
            assert "durability.fsyncs" not in report

        asyncio.run(scenario())


class TestSegmentedServer:
    def test_server_swaps_onto_engine_and_reports_counters(self, tmp_path):
        async def scenario():
            qdb = make_qdb()
            config = ServerConfig(durability=segmented_config(tmp_path))
            async with QuantumServer(qdb, config) as server:
                assert isinstance(qdb.database.wal, SegmentedWriteAheadLog)
                assert qdb.database.wal._compactor is not None
                async with server.session(client="mickey") as session:
                    for index in range(6):
                        await session.commit(booking(f"u{index}", 100 + index % 2))
                report = server.statistics_report()
                assert report["durability.mode"] == "segmented"
                assert report["durability.flushes"] >= 1
                assert "durability.bytes_reclaimed" in report
                assert "durability.checkpoint_deferred" in report
            engine = qdb.database.wal
            # Shutdown folded the drain into the lineage and parked the
            # compactor; the engine itself outlives the server.
            assert engine._compactor is None
            assert engine.statistics.checkpoints_base >= 1
            assert engine.statistics.checkpoint_pause_ms > 0
            return engine

        engine = asyncio.run(scenario())
        engine.close()

    def test_a_durable_server_runs_one_storage_thread(self, tmp_path):
        # Threads of engines other tests left running are not this server's.
        earlier = set(threading.enumerate())

        def storage_threads() -> list[str]:
            return [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith("repro-wal-") and thread not in earlier
            ]

        async def scenario():
            qdb = make_qdb()
            config = ServerConfig(
                durability=segmented_config(tmp_path, fsync=True)
            )
            async with QuantumServer(qdb, config) as server:
                async with server.session(client="mickey") as session:
                    await session.commit(booking("u0", 100))
                assert storage_threads() == ["repro-wal-compactor"]
            assert storage_threads() == []  # joined at shutdown
            return qdb.database.wal

        engine = asyncio.run(scenario())
        engine.close()

    def test_policy_checkpoints_become_deltas_between_bases(self, tmp_path):
        async def scenario():
            qdb = make_qdb()
            config = ServerConfig(
                durability=segmented_config(tmp_path, base_interval=64),
                checkpoint_policy=CheckpointPolicy(max_wal_records=1),
                checkpoint_on_shutdown=False,
            )
            async with QuantumServer(qdb, config) as server:
                async with server.session(client="mickey") as session:
                    for index in range(8):
                        await session.commit(booking(f"u{index}", 100 + index % 2))
                assert server.statistics.policy_checkpoints >= 2
            return qdb.database.wal

        engine = asyncio.run(scenario())
        # First policy checkpoint is the base; the rest ride the dirty set.
        assert engine.statistics.checkpoints_base == 1
        assert engine.statistics.checkpoints_delta >= 1
        assert engine.statistics.delta_pause_ms > 0
        engine.close()

    def test_later_bases_are_synthesized_by_the_compactor(self, tmp_path):
        async def scenario():
            qdb = make_qdb()
            config = ServerConfig(
                durability=segmented_config(tmp_path, base_interval=2),
                checkpoint_policy=CheckpointPolicy(max_wal_records=1),
            )
            async with QuantumServer(qdb, config) as server:
                async with server.session(client="mickey") as session:
                    for index in range(8):
                        await session.commit(booking(f"u{index}", 100 + index % 2))
            return qdb

        qdb = asyncio.run(scenario())
        engine = qdb.database.wal
        # The writer folded one base; every later base came off the writer
        # (the running compactor, or the shutdown sweep at the latest).
        assert engine.statistics.checkpoints_base == 1
        assert engine.statistics.checkpoints_delta >= 2
        assert engine.statistics.bases_synthesized >= 1
        engine.close()
        recovered = QuantumDatabase.recover(
            recover(tmp_path / "segments", flight_schema), qdb.config
        )
        assert recovered.database.snapshot() == qdb.database.snapshot()
        recovered.database.wal.close()

    def test_server_runs_the_compactor_of_an_attached_engine(self, tmp_path):
        async def scenario():
            qdb = make_qdb()
            durability = segmented_config(tmp_path)
            engine = SegmentedWriteAheadLog(durability.directory, durability)
            engine.adopt(qdb.database.wal)
            qdb.database.wal = engine
            async with QuantumServer(qdb, ServerConfig(durability=durability)):
                # No second adoption: the server keeps the attached engine
                # and starts its compactor.
                assert qdb.database.wal is engine
                assert engine._compactor is not None
            assert engine._compactor is None  # joined at shutdown
            return engine

        engine = asyncio.run(scenario())
        engine.close()

    def test_shutdown_compacts_and_directory_recovers(self, tmp_path):
        async def scenario():
            qdb = make_qdb()
            config = ServerConfig(
                durability=segmented_config(tmp_path, segment_max_records=8)
            )
            async with QuantumServer(qdb, config) as server:
                async with server.session(client="mickey") as session:
                    for index in range(12):
                        await session.commit(booking(f"u{index}", 100 + index % 2))
            return qdb

        qdb = asyncio.run(scenario())
        engine = qdb.database.wal
        # The drain path's final sweep reclaimed the sealed segments the
        # shutdown checkpoint superseded.
        assert engine.statistics.bytes_reclaimed > 0
        engine.close()
        recovered = QuantumDatabase.recover(
            recover(tmp_path / "segments", flight_schema), qdb.config
        )
        assert recovered.database.snapshot() == qdb.database.snapshot()
        assert recovered.pending_count == qdb.pending_count
        recovered.database.wal.close()

    def test_nothing_is_acknowledged_before_its_commit_is_synced(
        self, tmp_path, monkeypatch
    ):
        """No commit future, operation result or ``on_grounding`` future
        resolves before the fsync covering its COMMIT record has returned."""
        in_flight: list[asyncio.Future] = []
        early: list[str] = []
        syncs: list[int] = []
        real_fsync = os.fsync

        def spying_fsync(fd):
            # Between an operation's appends and the return of this sync,
            # nothing of the operation may be visible to a client.
            early.extend(repr(f) for f in in_flight if f.done())
            syncs.append(fd)
            return real_fsync(fd)

        async def scenario():
            qdb = QuantumDatabase(build_flight_database(SPEC), QuantumConfig(k=2))
            config = ServerConfig(
                durability=segmented_config(
                    tmp_path,
                    fsync=True,
                    segment_max_records=10_000,
                )
            )
            async with QuantumServer(qdb, config) as server:
                engine = qdb.database.wal
                monkeypatch.setattr(os, "fsync", spying_fsync)

                def fully_synced() -> bool:
                    return engine._tail.synced_size == engine._tail.size

                def watch(name: str) -> None:
                    original = getattr(server, name)

                    def watched(work):
                        items = work if isinstance(work, list) else [work]
                        in_flight[:] = [item.future for item in items] + [
                            waiter for waiter in groundings if not waiter.done()
                        ]
                        try:
                            return original(work)
                        finally:
                            del in_flight[:]
                            # The futures were just resolved: everything
                            # the operation appended is on stable storage.
                            if not fully_synced():
                                early.append(f"{name} resolved unsynced")

                    setattr(server, name, watched)

                resolve = server._resolve_grounding_waiters

                def resolving(record):
                    if not fully_synced() or qdb.database._active_transactions:
                        early.append(f"grounding of #{record.transaction_id}")
                    resolve(record)

                server._resolve_grounding_waiters = resolving
                watch("_process_commit_run")
                watch("_process_item")
                groundings: list[asyncio.Future] = []

                async def client(name: str) -> list[int]:
                    async with server.session(client=name) as session:
                        ids = []
                        for index in range(4):
                            # k=2: every third booking of a flight forces
                            # a grounding inside the commit run.
                            groundings.append(session.on_grounding("Bookings"))
                            result = await session.commit(
                                booking(f"{name}{index}", 100)
                            )
                            assert result.committed
                            ids.append(result.transaction_id)
                        return ids

                ids = await asyncio.gather(*(client(name) for name in "abc"))
                async with server.session(client="reader") as session:
                    groundings.append(session.on_grounding(ids[0][-1]))
                    assert await session.read("Bookings", [None, 100, None])
                    await session.check_in(ids[1][-1])
                    await server.ground_all()
                    await asyncio.gather(*groundings)
                monkeypatch.undo()
                return qdb, server.statistics_report()

        qdb, report = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
        assert early == []
        assert report["state.forced_groundings"] > 0
        assert report["server.grounding_futures_resolved"] >= 13
        # Each committing operation was covered by (at least) one sync.
        assert len(syncs) >= report["server.commit_runs"]
        qdb.database.wal.close()

    def test_second_server_refuses_used_directory(self, tmp_path):
        async def scenario():
            config = ServerConfig(durability=segmented_config(tmp_path))
            qdb = make_qdb()
            async with QuantumServer(qdb, config) as server:
                async with server.session(client="mickey") as session:
                    await session.commit(booking("a", 100))
            qdb.database.wal.close()
            with pytest.raises(QuantumError, match="already holds a durable log"):
                async with QuantumServer(make_qdb(), config):
                    pass  # pragma: no cover - start() must refuse

        asyncio.run(scenario())
