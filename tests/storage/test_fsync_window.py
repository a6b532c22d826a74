"""Group-fsync commit windows (``DurabilityConfig.fsync_window_s``).

The window defers the per-commit ``os.fsync`` into one timed group sync:
commits append and flush immediately but block — outside the writer lock
— until the covering sync lands, so acknowledgement still implies stable
storage while concurrent commits share one fsync.  ``fsync_window_s=0``
keeps per-commit syncs byte-for-byte.  Also covers the fsync-on-close
regression (a ``SegmentWriter`` built with ``fsync=True`` must sync its
final records at close, not just flush them).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.errors import DurabilityError
from repro.relational.database import Database
from repro.relational.wal import LogRecordType
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog, recover
from repro.storage.segment import SegmentWriter


def make_schema() -> Database:
    database = Database()
    database.create_table("Seats", ["flight", "seat"], key=["flight", "seat"])
    database.create_table("Notes", ["id", "note"], key=["id"])
    return database


def make_engine(tmp_path, **overrides) -> tuple[Database, SegmentedWriteAheadLog]:
    directory = str(tmp_path / "segments")
    config = DurabilityConfig(
        mode="segmented",
        directory=directory,
        **{"segment_max_records": 10_000, "fsync": True, **overrides},
    )
    database = make_schema()
    engine = SegmentedWriteAheadLog(directory, config)
    engine.adopt(database.wal)
    database.wal = engine
    return database, engine


class TestWindowConfig:
    def test_negative_window_rejected(self, tmp_path):
        with pytest.raises(DurabilityError, match="fsync_window_s"):
            DurabilityConfig(
                mode="segmented",
                directory=str(tmp_path),
                fsync=True,
                fsync_window_s=-0.1,
            )

    def test_window_requires_fsync(self, tmp_path):
        with pytest.raises(DurabilityError, match="enable fsync"):
            DurabilityConfig(
                mode="segmented", directory=str(tmp_path), fsync_window_s=0.01
            )

    def test_window_is_segmented_only(self):
        with pytest.raises(DurabilityError, match="segmented"):
            DurabilityConfig(mode="legacy", fsync=True, fsync_window_s=0.01)

    def test_incremental_bases_is_segmented_only(self):
        with pytest.raises(DurabilityError, match="segmented"):
            DurabilityConfig(mode="legacy", incremental_bases=True)


class TestSegmentWriterClose:
    """Regression: close() used to flush without ever fsyncing."""

    @pytest.fixture
    def fsync_spy(self, monkeypatch):
        calls: list[int] = []
        real_fsync = os.fsync

        def spying_fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spying_fsync)
        return calls

    def test_close_syncs_final_records_when_fsync_set(self, tmp_path, fsync_spy):
        writer = SegmentWriter(tmp_path / "seg.walseg", fsync=True)
        writer.append(b"written after the last flush")
        fsync_spy.clear()
        writer.close()
        assert fsync_spy, "close() must fsync the final records"
        assert writer.synced_size == writer.size

    def test_close_without_fsync_never_syncs(self, tmp_path, fsync_spy):
        writer = SegmentWriter(tmp_path / "seg.walseg", fsync=False)
        writer.append(b"page-cache durability only")
        fsync_spy.clear()
        writer.close()
        assert not fsync_spy

    def test_flush_advances_the_synced_watermark(self, tmp_path):
        writer = SegmentWriter(tmp_path / "seg.walseg", fsync=True)
        writer.append(b"record")
        assert writer.synced_size < writer.size
        writer.flush()
        assert writer.synced_size == writer.size
        writer.close()


class TestPerCommitParity:
    def test_window_zero_keeps_per_commit_syncs(self, tmp_path):
        database, engine = make_engine(tmp_path, fsync_window_s=0.0)
        assert engine._sync_window is None  # no window machinery at all
        before = engine.statistics.fsyncs
        for i in range(5):
            database.insert("Seats", (i, "s"))
        assert engine.statistics.fsyncs == before + 5
        assert engine.statistics.sync_windows == 0
        engine.close()

    def test_a_unit_is_one_sync_without_a_window(self, tmp_path):
        database, engine = make_engine(tmp_path, fsync_window_s=0.0)
        before = engine.statistics.fsyncs
        with database.unit as unit:
            for i in range(6):
                unit.transaction().insert("Seats", (i, "s"))
        # One unit, one COMMIT record, one sync — however many rows.
        assert engine.statistics.fsyncs == before + 1
        assert engine.statistics.sync_windows == 0
        assert database.statistics.commits == 1
        engine.close()


class TestWindowedCommits:
    def test_commit_returns_only_after_covering_sync(self, tmp_path):
        database, engine = make_engine(tmp_path, fsync_window_s=0.02)
        database.insert("Seats", (1, "a"))
        # The append(COMMIT) return path waited for the window sync: the
        # whole tail is under the synced watermark the moment control is
        # back.
        assert engine._tail.synced_size == engine._tail.size
        assert engine.statistics.sync_windows >= 1
        engine.close()
        recovered = recover(tmp_path / "segments", make_schema)
        assert recovered.snapshot()["Seats"] == [(1, "a")]
        recovered.wal.close()

    def test_concurrent_commits_share_windows(self, tmp_path):
        _database, engine = make_engine(tmp_path, fsync_window_s=0.02)
        threads, commits_each = 4, 5

        def committer(base: int) -> None:
            for i in range(commits_each):
                txn = base + i
                engine.append(LogRecordType.BEGIN, txn)
                engine.append(LogRecordType.INSERT, txn, "Seats", (txn, "w"))
                engine.append(LogRecordType.COMMIT, txn)

        workers = [
            threading.Thread(target=committer, args=(1000 * (t + 1),))
            for t in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        commits = threads * commits_each
        # Concurrent committers stack into shared windows: well under one
        # fsync per commit (per-commit mode would issue exactly 20).
        assert engine.statistics.fsyncs < commits
        assert engine.statistics.sync_windows >= 1
        assert engine._tail.synced_size == engine._tail.size
        engine.close()

    def test_a_unit_waits_for_one_ticket(self, tmp_path):
        database, engine = make_engine(tmp_path, fsync_window_s=0.05)
        before = engine.statistics.fsyncs
        tickets = engine._sync_window._requested
        with database.unit as unit:
            for i in range(6):
                unit.transaction().insert("Seats", (i, "s"))
        # A drained run is one unit: its one COMMIT append requested one
        # ticket and waited for the one window sync that covered it (six
        # autocommits would have paid six windows).
        assert engine._sync_window._requested == tickets + 1
        assert engine.statistics.fsyncs == before + 1
        assert engine._tail.synced_size == engine._tail.size
        engine.close()

    def test_explicit_flush_is_an_immediate_durability_point(self, tmp_path):
        database, engine = make_engine(tmp_path, fsync_window_s=30.0)
        released = threading.Event()

        def slow_commit():
            database.insert("Seats", (7, "slow"))
            released.set()

        worker = threading.Thread(target=slow_commit, daemon=True)
        worker.start()
        deadline = time.monotonic() + 5.0
        while not engine._sync_window.pending():
            assert time.monotonic() < deadline, "commit never flushed"
            time.sleep(0.001)
        engine.flush()  # must not wait the 30s window out
        assert released.wait(timeout=5.0)
        worker.join(timeout=5.0)
        assert engine._tail.synced_size == engine._tail.size
        engine.close()

    def test_seal_syncs_eagerly_and_releases_waiters(self, tmp_path):
        _database, engine = make_engine(
            tmp_path, fsync_window_s=30.0, segment_max_records=4
        )
        engine.append(LogRecordType.BEGIN, 1)
        engine.append(LogRecordType.INSERT, 1, "Seats", (1, "a"))
        released = threading.Event()

        def committer():
            engine.append(LogRecordType.COMMIT, 1)  # record 3: blocks in window
            released.set()

        worker = threading.Thread(target=committer, daemon=True)
        worker.start()
        deadline = time.monotonic() + 5.0
        while not engine._sync_window.pending():
            assert time.monotonic() < deadline, "commit never flushed"
            time.sleep(0.001)
        # Record 4 fills the tail: the seal syncs the outgoing segment and
        # completes the pending tickets, so the blocked committer never
        # waits the 30s window out.
        engine.append(LogRecordType.BEGIN, 2)
        assert released.wait(timeout=10.0)
        worker.join(timeout=5.0)
        assert engine.statistics.segments_sealed >= 1
        engine.close()

    def test_close_covers_commits_still_in_their_window(self, tmp_path):
        database, engine = make_engine(tmp_path, fsync_window_s=30.0)

        def commit_unit():
            with database.unit as unit:
                unit.transaction().insert("Seats", (3, "c"))

        worker = threading.Thread(target=commit_unit, daemon=True)
        worker.start()
        deadline = time.monotonic() + 5.0
        while not engine._sync_window.pending():
            assert time.monotonic() < deadline, "commit never flushed"
            time.sleep(0.001)
        # close() is a durability point: its final sync covers the unit's
        # ticket, so the committer never waits the 30s window out.
        engine.close()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        recovered = recover(
            tmp_path / "segments",
            make_schema,
            DurabilityConfig(
                mode="segmented", directory=str(tmp_path / "segments")
            ),
        )
        assert recovered.snapshot()["Seats"] == [(3, "c")]
        recovered.wal.close()


class TestClosedEngineGuards:
    """append/checkpoint/checkpoint_delta on a closed engine raise typed errors."""

    def test_append_on_closed_engine(self, tmp_path):
        database, engine = make_engine(tmp_path, fsync=False)
        database.insert("Seats", (1, "a"))
        engine.close()
        with pytest.raises(DurabilityError, match="closed"):
            engine.append(LogRecordType.BEGIN, 99)

    def test_checkpoint_on_closed_engine(self, tmp_path):
        database, engine = make_engine(tmp_path, fsync=False)
        database.insert("Seats", (1, "a"))
        engine.close()
        with pytest.raises(DurabilityError, match="closed"):
            engine.checkpoint(database.snapshot())

    def test_checkpoint_delta_on_closed_engine(self, tmp_path):
        database, engine = make_engine(tmp_path, fsync=False)
        database.insert("Seats", (1, "a"))
        database.checkpoint()  # a base exists, so only the guard can raise
        engine.close()
        with pytest.raises(DurabilityError, match="closed"):
            engine.checkpoint_delta()
