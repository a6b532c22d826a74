"""Unit tests for the segmented durability engine.

Covers the mechanics the crash harness (``test_crash_recovery``) builds
on: CRC framing, seal thresholds, the dirty-set algebra behind delta
checkpoints, the base/delta cadence, compaction's drop rule, and the
engine's lifecycle/configuration contract.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import DurabilityError, RecoveryError
from repro.relational.database import Database
from repro.relational.wal import LogRecordType
from repro.storage import (
    DurabilityConfig,
    SegmentedWriteAheadLog,
    recover,
)
from repro.storage.segment import encode_frame, scan_frames


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
    def test_unknown_mode_rejected(self):
        with pytest.raises(DurabilityError):
            DurabilityConfig(mode="ring-buffer")

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


class TestDeltaCheckpoints:
    def test_cadence_base_then_deltas(self, tmp_path):
        database, engine = make_engine(tmp_path, base_interval=2)
        assert not engine.wants_delta_checkpoint()  # no base yet
        database.insert("Seats", (1, "a"))
        database.checkpoint()  # base
        assert engine.statistics.checkpoints_base == 1
        for i in range(2):
            database.insert("Seats", (10 + i, "d"))
            assert engine.wants_delta_checkpoint()
            database.checkpoint()
        assert engine.statistics.checkpoints_delta == 2
        # base_interval=2 deltas taken: the next checkpoint is a base again.
        assert not engine.wants_delta_checkpoint()
        database.insert("Seats", (99, "z"))
        database.checkpoint()
        assert engine.statistics.checkpoints_base == 2
        engine.close()

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


def corrupt_first_sealed_segment(tmp_path, engine) -> str:
    """Flip a payload byte in the oldest sealed segment; returns its name."""
    entry = engine._manifest.segments[0]
    assert entry.sealed
    path = tmp_path / "segments" / entry.name
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    return entry.name


class TestCompactionQuarantine:
    """A corrupt sealed segment must not pin compaction in a retry loop."""

    def test_failing_segment_is_quarantined_after_bounded_attempts(
        self, tmp_path
    ):
        from repro.storage.engine import _COMPACTION_ATTEMPT_LIMIT

        database, engine = make_engine(tmp_path, segment_max_records=6)
        for i in range(30):
            database.insert("Seats", (i, f"s{i}"))
        database.checkpoint()  # every sealed raw segment becomes eligible
        bad_name = corrupt_first_sealed_segment(tmp_path, engine)
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

        database, engine = make_engine(tmp_path, segment_max_records=6)
        for i in range(30):
            database.insert("Seats", (i, f"s{i}"))
        database.checkpoint()
        corrupt_first_sealed_segment(tmp_path, engine)
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
