"""The server drain path on the segmented durability engine.

``ServerConfig(durability=DurabilityConfig(mode="segmented", ...))`` must
swap the store onto a :class:`SegmentedWriteAheadLog` at startup, run the
background compactor with the server's lifecycle discipline, fold the
drain-boundary/shutdown checkpoints into the base/delta lineage, and
refuse to write over a directory that already holds a durable log —
mirroring the legacy ``wal_path`` contract exactly.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.core.recovery import PendingTransactionStore
from repro.errors import QuantumError
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


class TestConfig:
    def test_wal_path_and_segmented_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(QuantumError):
            ServerConfig(
                wal_path=str(tmp_path / "legacy.wal"),
                durability=segmented_config(tmp_path),
            )

    def test_legacy_durability_config_is_allowed_with_wal_path(self, tmp_path):
        config = ServerConfig(
            wal_path=str(tmp_path / "legacy.wal"),
            durability=DurabilityConfig(mode="legacy"),
        )
        assert config.durability is not None and not config.durability.segmented


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

    def test_fsync_window_batches_drained_commits(self, tmp_path):
        async def scenario():
            qdb = make_qdb()
            config = ServerConfig(
                durability=segmented_config(
                    tmp_path,
                    fsync=True,
                    fsync_window_s=0.01,
                    segment_max_records=10_000,
                )
            )
            async with QuantumServer(qdb, config) as server:

                async def client(name: str, count: int) -> None:
                    async with server.session(client=name) as session:
                        for index in range(count):
                            await session.commit(
                                booking(f"{name}-{index}", 100 + index % 2)
                            )

                await asyncio.gather(*(client(f"c{i}", 3) for i in range(4)))
                # Report taken before shutdown: its checkpoint and final
                # sweep add their own (eager) syncs.
                return qdb, server.statistics_report()

        qdb, report = asyncio.run(scenario())
        commits = 12
        # Concurrent sessions stack into shared drain runs and shared sync
        # windows: acknowledged commits cost well under one fsync each.
        assert report["durability.fsyncs"] < commits
        assert report["durability.sync_windows"] >= 1
        engine = qdb.database.wal
        engine.close()
        recovered = recover(tmp_path / "segments", flight_schema)
        assert recovered.snapshot() == qdb.database.snapshot()
        recovered.wal.close()

    @pytest.mark.parametrize("window_s", [0.0, 0.01], ids=["per-commit", "window"])
    def test_nothing_is_acknowledged_before_its_commit_is_synced(
        self, tmp_path, monkeypatch, window_s
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
                    fsync_window_s=window_s,
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
