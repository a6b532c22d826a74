"""Unit tests for the segmented durability engine.

Covers the mechanics the crash harness (``test_crash_recovery``) builds
on: CRC framing, seal thresholds, commit syncs and the synced watermark,
the manifest's durable rename, the dirty-set algebra behind delta
checkpoints, the one-base-then-deltas cadence, compaction's drop rule,
and the engine's lifecycle/configuration contract.
"""

from __future__ import annotations

import os
import stat

import pytest

from repro.errors import DurabilityError, RecoveryError
from repro.relational.database import Database
from repro.relational.wal import CHECKPOINT_TYPES, LogRecord, LogRecordType
from repro.storage import (
    DurabilityConfig,
    SegmentedWriteAheadLog,
    recover,
)
from repro.storage.manifest import Manifest
from repro.storage.segment import SegmentWriter, encode_frame, scan_frames


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
        **{"segment_max_records": 8, "base_interval": 2, **overrides},
    )
    database = make_schema()
    engine = SegmentedWriteAheadLog(directory, config)
    engine.adopt(database.wal)
    database.wal = engine
    return database, engine


class TestFraming:
    def test_roundtrip(self):
        payloads = [b"alpha", b"b" * 300, b""]
        data = b"".join(encode_frame(p) for p in payloads)
        scan = scan_frames(data)
        assert scan.damage is None
        assert scan.payloads == payloads
        assert scan.clean_length == len(data)

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda d: d[:-3], id="truncated-payload"),
            pytest.param(lambda d: d[: len(d) - len(b"x") * 6] , id="mid-frame"),
            pytest.param(lambda d: d + b"\x00\x00", id="partial-header"),
            pytest.param(lambda d: d[:-1] + bytes([d[-1] ^ 0xFF]), id="crc"),
        ],
    )
    def test_damage_stops_at_clean_prefix(self, mangle):
        clean = encode_frame(b"first") + encode_frame(b"second")
        damaged = mangle(clean + encode_frame(b"third-record"))
        scan = scan_frames(damaged)
        assert scan.damage is not None
        # Everything before the damage survives untouched.
        assert scan.payloads[:2] == [b"first", b"second"]
        assert scan.clean_length <= len(damaged)


class TestConfig:
    @pytest.mark.parametrize(
        ("overrides", "error", "match"),
        [
            pytest.param(
                {"mode": "ring-buffer"},
                DurabilityError,
                "unknown durability mode",
                id="mode",
            ),
            pytest.param(
                {"fsync": True, "fsync_window_s": 0.01},
                DurabilityError,
                "fsync_window_s",
                id="fsync_window_s",
            ),
            pytest.param(
                {"incremental_bases": False},
                DurabilityError,
                "incremental_bases",
                id="incremental_bases",
            ),
            pytest.param(
                {"compaction": False},
                DurabilityError,
                "compaction",
                id="compaction",
            ),
            pytest.param(
                {"compaction_interval_s": 0.05},
                TypeError,
                "compaction_interval_s",
                id="compaction_interval_s",
            ),
        ],
    )
    def test_unsupported_settings_rejected(self, tmp_path, overrides, error, match):
        with pytest.raises(error, match=match):
            DurabilityConfig(directory=str(tmp_path), **overrides)

    @pytest.mark.parametrize(
        "field", ["segment_max_bytes", "segment_max_records", "base_interval"]
    )
    def test_sizes_below_one_rejected(self, tmp_path, field):
        with pytest.raises(DurabilityError, match=field):
            DurabilityConfig(directory=str(tmp_path), **{field: 0})

    def test_benchmark_pins_are_the_defaults(self, tmp_path):
        pinned = DurabilityConfig(
            mode="segmented",
            directory=str(tmp_path),
            fsync=True,
            fsync_window_s=0,
            incremental_bases=True,
            compaction=True,
        )
        assert pinned == DurabilityConfig(directory=str(tmp_path), fsync=True)

    def test_segmented_requires_directory(self):
        with pytest.raises(DurabilityError):
            DurabilityConfig(mode="segmented")

    def test_mode_defaults_to_segmented(self, tmp_path):
        config = DurabilityConfig(directory=str(tmp_path))
        assert config.mode == "segmented"

    def test_legacy_mode_rejected_with_directory(self, tmp_path):
        # A directory does not make the removed single-file mode valid; the
        # refusal points at the in-memory load path for its old files.
        with pytest.raises(DurabilityError, match="WriteAheadLog.load"):
            DurabilityConfig(mode="legacy", directory=str(tmp_path))

    def test_memory_mode_is_reported_not_configured(self, tmp_path):
        # statistics_report() names an in-memory log "memory", but that is
        # the absence of a DurabilityConfig, not one of its modes.
        with pytest.raises(DurabilityError, match="unknown durability mode"):
            DurabilityConfig(mode="memory", directory=str(tmp_path))


class TestSealing:
    def test_record_threshold_seals(self, tmp_path):
        database, engine = make_engine(tmp_path, segment_max_records=5)
        for i in range(10):
            database.insert("Seats", (i, f"s{i}"))
        # 10 inserts = 30 records (BEGIN/INSERT/COMMIT); at 5 records per
        # segment that is at least 5 sealed segments.
        assert engine.statistics.segments_sealed >= 5
        engine.close()

    def test_byte_threshold_seals(self, tmp_path):
        database, engine = make_engine(
            tmp_path, segment_max_records=10_000, segment_max_bytes=512
        )
        for i in range(20):
            database.insert("Notes", (i, "x" * 40))
        assert engine.statistics.segments_sealed >= 2
        engine.close()

    def test_sealed_chain_recovers(self, tmp_path):
        database, engine = make_engine(tmp_path, segment_max_records=4)
        for i in range(15):
            database.insert("Seats", (i, f"s{i}"))
        engine.close()
        recovered = recover(tmp_path / "segments", make_schema)
        assert recovered.snapshot() == database.snapshot()
        recovered.wal.close()


@pytest.fixture
def fsync_spy(monkeypatch):
    calls: list[int] = []
    real_fsync = os.fsync

    def spying_fsync(fd):
        calls.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spying_fsync)
    return calls


class TestSegmentWriterClose:
    """Regression: close() used to flush without ever fsyncing."""

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


class TestCommitSyncs:
    def test_every_commit_is_one_sync(self, tmp_path):
        database, engine = make_engine(
            tmp_path, fsync=True, segment_max_records=10_000
        )
        before = engine.statistics.fsyncs
        for i in range(5):
            database.insert("Seats", (i, "s"))
            # Acknowledged means synced: nothing of the commit is past the
            # watermark when the insert returns.
            assert engine._tail.synced_size == engine._tail.size
        assert engine.statistics.fsyncs == before + 5
        engine.close()

    def test_a_unit_is_one_sync(self, tmp_path):
        database, engine = make_engine(
            tmp_path, fsync=True, segment_max_records=10_000
        )
        before = engine.statistics.fsyncs
        with database.unit as unit:
            for i in range(6):
                unit.transaction().insert("Seats", (i, "s"))
        # One unit, one COMMIT record, one sync — however many rows.
        assert engine.statistics.fsyncs == before + 1
        assert database.statistics.commits == 1
        engine.close()


class TestManifestDurability:
    @pytest.mark.parametrize("fsync", [True, False], ids=["fsync", "no-fsync"])
    def test_save_syncs_the_directory_after_the_rename(
        self, tmp_path, monkeypatch, fsync
    ):
        events: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace

        def spying_fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            events.append("sync-directory" if is_dir else "sync-file")
            return real_fsync(fd)

        def spying_replace(src, dst):
            events.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spying_fsync)
        monkeypatch.setattr(os, "replace", spying_replace)
        Manifest().save(tmp_path, fsync=fsync)
        if fsync:
            assert events == ["sync-file", "replace", "sync-directory"]
        else:
            assert events == ["replace"]
        assert Manifest.load(tmp_path) == Manifest()

    @staticmethod
    def directory_syncs(monkeypatch, engine) -> list[set[str]]:
        """Spy: the files in the engine's directory at each directory fsync."""
        seen: list[set[str]] = []
        real_fsync = os.fsync

        def spying_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                seen.append(set(os.listdir(engine.directory)))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spying_fsync)
        return seen

    def test_seal_makes_the_new_tail_durable_in_the_directory(
        self, tmp_path, monkeypatch
    ):
        database, engine = make_engine(tmp_path, fsync=True, segment_max_records=4)
        seen = self.directory_syncs(monkeypatch, engine)
        for i in range(3):
            database.insert("Seats", (i, "s"))  # 9 records: two seals
        assert engine.statistics.segments_sealed == 2
        tail = engine._manifest.tail.name
        assert any(tail in names for names in seen)
        engine.close()

    def test_compaction_swap_syncs_the_directory(self, tmp_path, monkeypatch):
        database, engine = make_engine(tmp_path, fsync=True, segment_max_records=6)
        for i in range(5):
            database.insert("Seats", (i, "s"))
        database.checkpoint()
        for i in range(5, 7):
            database.insert("Seats", (i, "s"))  # survives in a rewrite
        seen = self.directory_syncs(monkeypatch, engine)
        assert engine.compact_now() > 0
        rewritten = {
            entry.name for entry in engine._manifest.segments if entry.generation
        }
        assert rewritten, "compaction should have rewritten a segment"
        assert any(rewritten <= names for names in seen)
        engine.close()

    def test_engine_without_fsync_never_syncs(self, tmp_path, fsync_spy):
        database, engine = make_engine(tmp_path, segment_max_records=4)
        for i in range(10):
            database.insert("Seats", (i, "s"))
            database.checkpoint()
        engine.compact_now()
        engine.close()
        assert fsync_spy == []


class TestDeltaCheckpoints:
    def test_cadence_base_then_deltas(self, tmp_path):
        database, engine = make_engine(tmp_path, base_interval=2)
        assert not engine.wants_delta_checkpoint()  # no base yet
        database.insert("Seats", (1, "a"))
        database.checkpoint()  # the one base the writer folds
        assert engine.statistics.checkpoints_base == 1
        for i in range(5):  # well past base_interval=2
            database.insert("Seats", (10 + i, "d"))
            assert engine.wants_delta_checkpoint()
            database.checkpoint()
        assert engine.statistics.checkpoints_delta == 5
        assert engine.statistics.checkpoints_base == 1
        # Reaching base_interval armed a synthesis; a compaction pass
        # builds the next base off the writer.
        assert engine.statistics.bases_synthesized == 0
        assert engine.compact_now() > 0
        assert engine.statistics.bases_synthesized >= 1
        assert engine.statistics.checkpoints_base == 1
        engine.close()
        recovered = recover(tmp_path / "segments", make_schema)
        assert recovered.snapshot() == database.snapshot()
        recovered.wal.close()

    def test_delta_payload_is_net_churn(self, tmp_path):
        database, engine = make_engine(tmp_path)
        database.insert("Seats", (1, "kept"))
        database.insert("Seats", (2, "doomed"))
        database.checkpoint()  # base
        database.insert("Seats", (3, "new"))  # net insert
        database.delete("Seats", (2, "doomed"))  # net delete
        database.insert("Seats", (4, "transient"))
        database.delete("Seats", (4, "transient"))  # cancels out
        database.insert("Notes", (7, "n"))  # second table
        record = engine.checkpoint_delta()
        assert record.record_type is LogRecordType.CHECKPOINT_DELTA
        assert record.delta == {
            "Seats": {"delete": [(2, "doomed")], "insert": [(3, "new")]},
            "Notes": {"insert": [(7, "n")]},
        }
        engine.close()

    def test_aborted_transaction_never_dirties(self, tmp_path):
        database, engine = make_engine(tmp_path)
        database.insert("Seats", (1, "a"))
        database.checkpoint()
        txn = database.begin()
        txn.insert("Seats", (2, "aborted"))
        txn.abort()
        record = engine.checkpoint_delta()
        assert record.delta == {}
        engine.close()

    def test_delta_requires_base(self, tmp_path):
        _database, engine = make_engine(tmp_path)
        with pytest.raises(DurabilityError):
            engine.checkpoint_delta()
        engine.close()

    def test_delta_checkpoint_skips_snapshot_build(self, tmp_path):
        """Database.checkpoint() must not materialize the store for deltas."""
        database, engine = make_engine(tmp_path, base_interval=100)
        for i in range(10):
            database.insert("Seats", (i, "s"))
        database.checkpoint()  # base
        calls = {"count": 0}
        original = database.snapshot

        def counting_snapshot():
            calls["count"] += 1
            return original()

        database.snapshot = counting_snapshot
        database.insert("Seats", (100, "churn"))
        database.checkpoint()  # delta — proportional to churn
        assert calls["count"] == 0
        assert engine.statistics.checkpoints_delta == 1
        engine.close()

    def test_pause_statistics_split_by_kind(self, tmp_path):
        database, engine = make_engine(tmp_path)
        database.insert("Seats", (1, "a"))
        database.checkpoint()  # base
        database.insert("Seats", (2, "b"))
        database.checkpoint()  # delta
        stats = engine.durability_statistics()
        assert stats["base_pause_ms"] > 0
        assert stats["delta_pause_ms"] > 0
        assert stats["checkpoint_pause_ms"] >= max(
            stats["base_pause_ms"], stats["delta_pause_ms"]
        )
        engine.close()


class TestCompaction:
    def test_reclaims_superseded_segments(self, tmp_path):
        database, engine = make_engine(tmp_path, segment_max_records=6)
        for i in range(30):
            database.insert("Seats", (i, f"s{i}"))
        database.checkpoint()  # base supersedes every sealed raw record
        passes = engine.compact_now()
        assert passes > 0
        stats = engine.durability_statistics()
        assert stats["compactions"] > 0
        assert stats["bytes_reclaimed"] > 0
        assert stats["compacted_through_lsn"] == stats["checkpoint_lsn"]
        engine.close()
        recovered = recover(tmp_path / "segments", make_schema)
        assert recovered.snapshot() == database.snapshot()
        recovered.wal.close()

    def test_keeps_post_checkpoint_records(self, tmp_path):
        database, engine = make_engine(tmp_path, segment_max_records=4)
        for i in range(8):
            database.insert("Seats", (i, f"s{i}"))
        database.checkpoint()
        # Post-checkpoint commits land in segments that will seal; they
        # must survive compaction verbatim.
        for i in range(100, 112):
            database.insert("Seats", (i, f"late{i}"))
        engine.compact_now()
        engine.close()
        recovered = recover(tmp_path / "segments", make_schema)
        assert recovered.snapshot() == database.snapshot()
        recovered.wal.close()

    def test_noop_without_checkpoint(self, tmp_path):
        database, engine = make_engine(tmp_path, segment_max_records=4)
        for i in range(10):
            database.insert("Seats", (i, f"s{i}"))
        assert engine.compact_now() == 0
        assert engine.statistics.bytes_reclaimed == 0
        engine.close()

    def test_background_compactor_lifecycle(self, tmp_path):
        database, engine = make_engine(tmp_path, segment_max_records=6)
        compactor = engine.start_compactor()
        assert engine.start_compactor() is compactor  # idempotent
        for i in range(30):
            database.insert("Seats", (i, f"s{i}"))
        database.checkpoint()
        deadline = 200
        while engine.statistics.bytes_reclaimed == 0 and deadline:
            deadline -= 1
            import time

            time.sleep(0.01)
        assert engine.statistics.bytes_reclaimed > 0
        assert compactor.last_error is None
        engine.stop_compactor()
        engine.stop_compactor()  # idempotent
        engine.close()


class TestLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        _database, engine = make_engine(tmp_path)
        engine.close()
        engine.close()

    def test_adopt_refuses_nonempty_engine(self, tmp_path):
        database, engine = make_engine(tmp_path)
        database.insert("Seats", (1, "a"))
        other = make_schema()
        with pytest.raises(DurabilityError):
            engine.adopt(other.wal)
        engine.close()

    def test_directory_artifacts(self, tmp_path):
        _database, engine = make_engine(tmp_path)
        engine.close()
        names = sorted(os.listdir(tmp_path / "segments"))
        assert "MANIFEST" in names
        assert any(name.endswith(".walseg") for name in names)
        assert "MANIFEST.tmp" not in names


class TestClosedEngineGuards:
    """append/checkpoint/checkpoint_delta on a closed engine raise typed errors."""

    def test_append_on_closed_engine(self, tmp_path):
        database, engine = make_engine(tmp_path)
        database.insert("Seats", (1, "a"))
        engine.close()
        with pytest.raises(DurabilityError, match="closed"):
            engine.append(LogRecordType.BEGIN, 99)

    def test_checkpoint_on_closed_engine(self, tmp_path):
        database, engine = make_engine(tmp_path)
        database.insert("Seats", (1, "a"))
        engine.close()
        with pytest.raises(DurabilityError, match="closed"):
            engine.checkpoint(database.snapshot())

    def test_checkpoint_delta_on_closed_engine(self, tmp_path):
        database, engine = make_engine(tmp_path)
        database.insert("Seats", (1, "a"))
        database.checkpoint()  # a base exists, so only the guard can raise
        engine.close()
        with pytest.raises(DurabilityError, match="closed"):
            engine.checkpoint_delta()


class TestStatisticsReport:
    def test_memory_report_exposes_checkpoint_pause(self):
        from repro.core.quantum_database import QuantumDatabase

        database = make_schema()
        qdb = QuantumDatabase(database)
        database.insert("Seats", (1, "a"))
        qdb.checkpoint()
        report = qdb.statistics_report()
        durability = {
            key: value
            for key, value in report.items()
            if key.startswith("durability.")
        }
        assert durability.keys() == {
            "durability.mode",
            "durability.checkpoint_pause_ms",
        }
        assert durability["durability.mode"] == "memory"
        assert durability["durability.checkpoint_pause_ms"] > 0

    def test_segmented_report_exposes_engine_counters(self, tmp_path):
        from repro.core.quantum_database import QuantumDatabase

        database, engine = make_engine(tmp_path, segment_max_records=4)
        qdb = QuantumDatabase(database)
        for i in range(10):
            database.insert("Seats", (i, f"s{i}"))
        qdb.checkpoint()
        report = qdb.statistics_report()
        assert report["durability.mode"] == "segmented"
        assert report["durability.segments_sealed"] >= 1
        assert report["durability.checkpoints_base"] == 1
        assert report["durability.flushes"] >= 10
        engine.close()

    def test_fsync_mode_counts_fsyncs(self, tmp_path):
        database, engine = make_engine(tmp_path, fsync=True)
        database.insert("Seats", (1, "a"))
        assert engine.statistics.fsyncs >= 1
        engine.close()


def corrupt_segment(tmp_path, name: str) -> str:
    """Flip a payload byte in segment file ``name``; returns the name."""
    path = tmp_path / "segments" / name
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    return name


def decoded_segment(tmp_path, name: str) -> list:
    """The records of segment file ``name``, read and decoded."""
    data = (tmp_path / "segments" / name).read_bytes()
    return [
        LogRecord.from_json(payload.decode("utf-8"))
        for payload in scan_frames(data).payloads
    ]


def engine_with_mixed_segment(tmp_path):
    """An engine whose chain holds a sealed *mixed* segment.

    One delta checkpoint after the base (``base_interval=2``, so no
    synthesis is armed) lands in a segment that also holds raw records
    it supersedes: compaction must read that segment to rewrite it.
    Returns ``(database, engine, name of the mixed segment)``.
    """
    database, engine = make_engine(tmp_path, segment_max_records=6)
    for i in range(30):
        database.insert("Seats", (i, f"s{i}"))
    database.checkpoint()  # base
    database.insert("Seats", (100, "before the delta"))
    database.checkpoint()  # delta, kept: it is past the base
    for i in range(101, 105):
        database.insert("Seats", (i, "after the delta"))
    checkpoint_lsn = engine._manifest.checkpoint_lsn
    for entry in engine._manifest.segments[:-1]:
        records = decoded_segment(tmp_path, entry.name)
        kinds = {record.record_type for record in records}
        if LogRecordType.CHECKPOINT_DELTA in kinds and any(
            record.lsn < checkpoint_lsn
            and record.record_type not in CHECKPOINT_TYPES
            for record in records
        ):
            return database, engine, entry.name
    raise AssertionError("no sealed segment mixes the delta with raw records")


class TestCompactionQuarantine:
    """A corrupt sealed segment must not pin compaction in a retry loop.

    The damaged segment is a mixed one — a kept delta beside superseded
    raw records — so compaction has to read it; a segment it keeps or
    drops whole is decided without reading it.
    """

    def test_failing_segment_is_quarantined_after_bounded_attempts(
        self, tmp_path
    ):
        from repro.storage.engine import _COMPACTION_ATTEMPT_LIMIT

        _database, engine, mixed = engine_with_mixed_segment(tmp_path)
        bad_name = corrupt_segment(tmp_path, mixed)
        for _ in range(_COMPACTION_ATTEMPT_LIMIT):
            with pytest.raises(RecoveryError):
                engine.compact_now()
        # Quarantined: the damaged segment is out of the candidate set and
        # the rest of the chain still compacts.
        assert engine.compact_now() > 0
        stats = engine.durability_statistics()
        assert stats["compaction_errors"] == _COMPACTION_ATTEMPT_LIMIT
        assert stats["segments_quarantined"] == 1
        assert bad_name in stats["last_compaction_error"]
        assert stats["bytes_reclaimed"] > 0
        engine.close()

    def test_background_compactor_stops_retrying(self, tmp_path):
        import time

        from repro.storage.engine import _COMPACTION_ATTEMPT_LIMIT

        _database, engine, mixed = engine_with_mixed_segment(tmp_path)
        corrupt_segment(tmp_path, mixed)
        compactor = engine.start_compactor()
        deadline = time.monotonic() + 5.0
        while engine.statistics.compaction_errors < _COMPACTION_ATTEMPT_LIMIT:
            assert time.monotonic() < deadline, "quarantine never happened"
            time.sleep(0.01)
        time.sleep(0.2)  # several wake-ups worth of would-be retries
        assert engine.statistics.compaction_errors == _COMPACTION_ATTEMPT_LIMIT
        assert compactor.last_error is not None
        engine.stop_compactor()
        engine.close()

    def test_superseded_corrupt_segment_is_reclaimed_unread(self, tmp_path):
        # The oldest sealed segment holds only raw records the base
        # supersedes: its summary says "drop", so compaction unlinks it
        # without reading it and its damage is never an error.
        database, engine = make_engine(tmp_path, segment_max_records=6)
        for i in range(30):
            database.insert("Seats", (i, f"s{i}"))
        database.checkpoint()
        entry = engine._manifest.segments[0]
        assert entry.sealed
        assert all(
            record.record_type not in CHECKPOINT_TYPES
            for record in decoded_segment(tmp_path, entry.name)
        )
        bad_name = corrupt_segment(tmp_path, entry.name)
        assert engine.compact_now() > 0
        stats = engine.durability_statistics()
        assert stats["compaction_errors"] == 0
        assert stats["segments_quarantined"] == 0
        assert stats["bytes_reclaimed"] > 0
        assert bad_name not in engine._manifest.segment_names()
        assert not (tmp_path / "segments" / bad_name).exists()
        engine.close()
        recovered = recover(tmp_path / "segments", make_schema)
        assert recovered.snapshot() == database.snapshot()
        recovered.wal.close()
