"""The writer's durable path: append and fsync, never a manifest save.

A seal flushes the outgoing tail, creates the successor and syncs the
directory; a checkpoint appends and flushes one record.  Neither writes
the manifest: only open, close and compaction passes do, and open reads
the checkpoint lineage off the record heads.  These tests count the
fsyncs of one seal and the writer's manifest saves over a stream shaped
like the ``store_churn`` benchmark workload (ten-row replace
transactions, a delta checkpoint every few of them, base synthesis by
``compact_now``), and reopen an unclosed copy of its directory.
"""

from __future__ import annotations

import itertools
import os
import shutil
import stat
import sys
import threading

import pytest

from repro.relational.database import Database
from repro.relational.wal import LogRecordType
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog, recover
from repro.storage.manifest import Manifest
from repro.storage.segment import SEGMENT_SUFFIX

ROWS_PER_TXN = 10
TXNS_PER_CHECKPOINT = 5


def make_schema() -> Database:
    database = Database()
    database.create_table("Rows", ["id", "payload"], key=["id"])
    return database


@pytest.fixture
def fsync_kinds(monkeypatch):
    """Spy: ``"file"`` or ``"directory"`` for every ``os.fsync`` call."""
    kinds: list[str] = []
    real_fsync = os.fsync

    def spying_fsync(fd):
        kinds.append("directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spying_fsync)
    return kinds


def test_a_seal_is_two_fsyncs_tail_then_directory(tmp_path, fsync_kinds):
    directory = str(tmp_path / "segments")
    config = DurabilityConfig(directory=directory, fsync=True, segment_max_records=4)
    engine = SegmentedWriteAheadLog(directory, config)
    engine.append(LogRecordType.BEGIN, 1)
    engine.append(LogRecordType.INSERT, 1, "Rows", (1, "a"))
    engine.append(LogRecordType.INSERT, 1, "Rows", (2, "b"))
    fsync_kinds.clear()
    # The fourth record reaches segment_max_records and seals the tail; an
    # INSERT flushes nothing itself, so every sync here is the seal's.
    engine.append(LogRecordType.INSERT, 1, "Rows", (3, "c"))
    assert engine.statistics.segments_sealed == 1
    assert fsync_kinds == ["file", "directory"]
    engine.close()


def test_a_commit_that_seals_the_tail_syncs_it_once(tmp_path, monkeypatch):
    directory = tmp_path / "segments"
    config = DurabilityConfig(
        directory=str(directory), fsync=True, segment_max_records=3
    )
    engine = SegmentedWriteAheadLog(directory, config)
    engine.append(LogRecordType.BEGIN, 1)
    engine.append(LogRecordType.INSERT, 1, "Rows", (1, "a"))
    synced: list[int] = []
    real_fsync = os.fsync

    def spying_fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spying_fsync)
    fsyncs = engine.statistics.fsyncs
    # The COMMIT is the third record: it seals the tail, and the seal's
    # sync is the commit's durability point.  The empty successor is not
    # synced.
    engine.append(LogRecordType.COMMIT, 1)
    assert engine.statistics.segments_sealed == 1
    first, successor = sorted(directory.glob(f"*{SEGMENT_SUFFIX}"))
    assert successor.stat().st_size == 0
    assert synced == [first.stat().st_ino, os.stat(directory).st_ino]
    assert engine.statistics.fsyncs == fsyncs + 1
    engine.close()


def churn(
    database: Database,
    engine: SegmentedWriteAheadLog,
    txns: int,
    *,
    compact: bool = True,
) -> None:
    """Ten-row replace transactions: delete the oldest rows, insert new ones;
    a delta checkpoint every few, and (with ``compact``) a compaction pass
    now and then."""
    fresh = itertools.count(max(row[0] for row in database.snapshot()["Rows"]) + 1)
    for index in range(1, txns + 1):
        oldest = sorted(database.snapshot()["Rows"])[:ROWS_PER_TXN]
        with database.begin() as txn:
            for row in oldest:
                txn.delete("Rows", row)
            for _ in range(ROWS_PER_TXN):
                key = next(fresh)
                txn.insert("Rows", (key, f"payload-{key}"))
        if index % TXNS_PER_CHECKPOINT == 0:
            database.checkpoint()
        if compact and index % (2 * TXNS_PER_CHECKPOINT) == 0:
            engine.compact_now()


def test_the_writer_saves_no_manifest_between_open_and_close(tmp_path):
    directory = tmp_path / "segments"
    config = DurabilityConfig(
        directory=str(directory), segment_max_records=64, base_interval=3
    )
    database = make_schema()
    engine = SegmentedWriteAheadLog(directory, config)
    engine.adopt(database.wal)
    database.wal = engine
    with database.begin() as txn:
        for i in range(200):
            txn.insert("Rows", (i, f"seed-{i}"))
    database.checkpoint()
    after_open = engine.statistics.manifest_saves_writer
    assert after_open == 1

    # The last compaction pass runs at transaction 40; the seals of the
    # four after it are in no manifest save.
    churn(database, engine, 44)

    stats = engine.durability_statistics()
    assert stats["segments_sealed"] >= 10
    assert stats["checkpoints_delta"] == 44 // TXNS_PER_CHECKPOINT
    assert stats["bases_synthesized"] >= 1
    assert stats["manifest_saves_compactor"] >= 1
    assert stats["manifest_saves_writer"] == after_open

    # A crash copy: the engine is not closed and the manifest lags it.
    copy = tmp_path / "crashed"
    shutil.copytree(directory, copy)
    assert Manifest.load(copy).next_segment_index < engine._manifest.next_segment_index
    recovered = recover(copy, make_schema)
    reopened = recovered.wal
    assert reopened._manifest.checkpoint_lsn == engine._manifest.checkpoint_lsn
    assert reopened._manifest.base_lsn == engine._manifest.base_lsn
    assert engine._manifest.base_lsn > 0
    assert recovered.snapshot() == database.snapshot()
    reopened.close()

    engine.close()
    assert engine.statistics.manifest_saves_writer == after_open + 1


def test_compactor_saves_off_the_lock_race_neither_the_writer_nor_close(tmp_path):
    # The compactor copies the manifest under the engine's lock and saves
    # the copy off it, while the writer keeps sealing.  Three more threads
    # run explicit passes beside the background compactor, with a short
    # switch interval, until close.  A crash copy taken while they run and
    # the closed directory must both reopen to the live rows.
    directory = tmp_path / "segments"
    config = DurabilityConfig(
        directory=str(directory), segment_max_records=32, base_interval=2
    )
    database = make_schema()
    engine = SegmentedWriteAheadLog(directory, config)
    engine.adopt(database.wal)
    database.wal = engine
    with database.begin() as txn:
        for i in range(100):
            txn.insert("Rows", (i, f"seed-{i}"))
    database.checkpoint()
    engine.start_compactor()
    stop = threading.Event()
    errors: list[BaseException] = []

    def compact_until_stopped():
        try:
            while not stop.is_set():
                engine.compact_now()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    workers = [threading.Thread(target=compact_until_stopped) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        churn(database, engine, 30, compact=False)
        copy = tmp_path / "crashed"
        with engine._compaction_lock:  # a copy that no unlink tears
            shutil.copytree(directory, copy)
            rows = database.snapshot()
        churn(database, engine, 10, compact=False)
        stop.set()
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
        engine.close()
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not errors
    assert engine._compactor is None
    assert engine.statistics.manifest_saves_writer == 2  # open and close
    assert engine.statistics.manifest_saves_compactor >= 1
    crashed = recover(copy, make_schema)
    assert crashed.snapshot() == rows
    crashed.wal.close()
    reopened = recover(directory, make_schema)
    assert reopened.snapshot() == database.snapshot()
    reopened.wal.close()
