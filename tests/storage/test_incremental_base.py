"""Incremental base checkpoints: the engine's only way to build a base.

The writer folds a full-store snapshot exactly once — the first base.
Every later checkpoint is a delta, and when the delta chain reaches
``base_interval`` a compaction pass (the compactor thread or an explicit
``compact_now()``) synthesizes the next ``CHECKPOINT_BASE`` off the
writer lock by merging the previous base with the sealed delta chain,
installing it with one manifest swap.  The synthesized base reuses the
LSN of the newest delta it folded, so these tests also pin the
duplicate-LSN discipline: the superseded delta must lose to the base at
replay and at compaction.
"""

from __future__ import annotations

import time

import pytest

from repro.relational.database import Database
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog, recover


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


def churn_and_checkpoint(database, rounds: int, *, start: int = 0) -> None:
    for round_index in range(rounds):
        for i in range(4):
            database.insert("Seats", (start + round_index * 10 + i, "s"))
        database.checkpoint()


class TestWriterNeverFoldsAgain:
    def test_only_the_first_base_snapshots_the_store(self, tmp_path):
        database, engine = make_engine(tmp_path)
        folds = 0
        real_snapshot = database.snapshot

        def counting_snapshot():
            nonlocal folds
            folds += 1
            return real_snapshot()

        database.snapshot = counting_snapshot
        churn_and_checkpoint(database, 6)
        # One full fold (the first base); the other five checkpoints are
        # deltas even though base_interval=2 — reaching it only arms an
        # off-writer synthesis.
        assert folds == 1
        assert engine.statistics.checkpoints_base == 1
        assert engine.statistics.checkpoints_delta == 5
        assert engine.wants_delta_checkpoint()
        engine.close()

    def test_reaching_the_interval_arms_once(self, tmp_path):
        # The delta that reaches base_interval seals the tail (the chain
        # must be in sealed segments for the fold) and fixes the horizon;
        # later deltas neither move it nor seal again while it is armed.
        database, engine = make_engine(tmp_path, segment_max_records=10_000)
        churn_and_checkpoint(database, 2)  # base + 1 delta
        assert not engine._synthesis_due
        sealed = engine.statistics.segments_sealed
        churn_and_checkpoint(database, 1, start=100)  # delta 2 = interval
        assert engine._synthesis_due
        horizon = engine._synthesis_cutoff
        assert horizon == engine.records()[-1].lsn
        assert engine.statistics.segments_sealed == sealed + 1
        churn_and_checkpoint(database, 2, start=200)
        assert engine._synthesis_cutoff == horizon
        assert engine.statistics.segments_sealed == sealed + 1
        engine.close()

    def test_uncompacted_delta_chain_recovers(self, tmp_path):
        # Without a compaction pass no later base is ever built: the
        # whole delta chain stays, and recovery replays it.
        database, engine = make_engine(tmp_path)
        churn_and_checkpoint(database, 6)
        assert engine.statistics.bases_synthesized == 0
        assert engine._synthesis_due
        engine.close()
        recovered = recover(tmp_path / "segments", make_schema)
        assert recovered.snapshot() == database.snapshot()
        recovered.wal.close()


class TestSynthesizedBases:
    def test_compact_now_synthesizes_the_due_base(self, tmp_path):
        database, engine = make_engine(tmp_path)
        churn_and_checkpoint(database, 5)
        assert engine.compact_now() > 0
        stats = engine.durability_statistics()
        assert stats["bases_synthesized"] >= 1
        assert stats["base_synthesis_ms"] > 0
        assert stats["checkpoints_base"] == 1  # writer-side count unchanged
        engine.close()
        recovered = recover(tmp_path / "segments", make_schema)
        assert recovered.snapshot() == database.snapshot()
        recovered.wal.close()

    def test_single_pass_leaves_superseded_delta_recoverable(self, tmp_path):
        # One compact_once() installs the synthesized base but has not yet
        # compacted the old segments: the delta sharing the base's LSN is
        # still on disk.  Replay must prefer the base and drop that delta.
        database, engine = make_engine(tmp_path)
        churn_and_checkpoint(database, 3)
        assert engine.compact_once()
        assert engine.statistics.bases_synthesized == 1
        engine.close()
        recovered = recover(tmp_path / "segments", make_schema)
        assert recovered.snapshot() == database.snapshot()
        recovered.wal.close()

    def test_background_compactor_synthesizes(self, tmp_path):
        database, engine = make_engine(tmp_path)
        engine.start_compactor()
        churn_and_checkpoint(database, 5)
        deadline = time.monotonic() + 5.0
        while engine.statistics.bases_synthesized == 0:
            assert time.monotonic() < deadline, "synthesis never ran"
            time.sleep(0.01)
        engine.stop_compactor()
        engine.close()
        recovered = recover(tmp_path / "segments", make_schema)
        assert recovered.snapshot() == database.snapshot()
        recovered.wal.close()

    def test_synthesis_keeps_commits_after_the_cutoff(self, tmp_path):
        database, engine = make_engine(tmp_path)
        churn_and_checkpoint(database, 3)
        for i in range(500, 508):
            database.insert("Seats", (i, "late"))  # after the fold horizon
        engine.compact_now()
        engine.close()
        recovered = recover(tmp_path / "segments", make_schema)
        assert recovered.snapshot() == database.snapshot()
        recovered.wal.close()

    def test_deletes_fold_through_synthesis(self, tmp_path):
        database, engine = make_engine(tmp_path)
        for i in range(8):
            database.insert("Seats", (i, "s"))
        database.checkpoint()  # first (writer-folded) base
        for i in range(0, 8, 2):
            database.delete("Seats", (i, "s"))
        database.checkpoint()
        database.insert("Notes", (1, "kept"))
        database.checkpoint()  # chain reaches base_interval → synthesis due
        assert engine.compact_now() > 0
        assert engine.statistics.bases_synthesized >= 1
        engine.close()
        recovered = recover(tmp_path / "segments", make_schema)
        assert recovered.snapshot() == database.snapshot()
        assert recovered.snapshot()["Seats"] == [
            (i, "s") for i in range(1, 8, 2)
        ]
        recovered.wal.close()

    def test_reopened_engine_keeps_synthesizing(self, tmp_path):
        database, engine = make_engine(tmp_path)
        churn_and_checkpoint(database, 3)
        engine.compact_now()
        first = engine.statistics.bases_synthesized
        assert first >= 1
        engine.close()
        directory = tmp_path / "segments"
        recovered = recover(
            directory,
            make_schema,
            DurabilityConfig(
                mode="segmented",
                directory=str(directory),
                segment_max_records=8,
                base_interval=2,
            ),
        )
        engine2 = recovered.wal
        churn_and_checkpoint(recovered, 3, start=3000)
        assert engine2.compact_now() > 0
        assert engine2.statistics.bases_synthesized >= 1
        assert engine2.statistics.checkpoints_base == 0  # never folds again
        engine2.close()
        final = recover(directory, make_schema)
        assert final.snapshot() == recovered.snapshot()
        final.wal.close()


class TestSynthesisFailureHandling:
    def test_failed_synthesis_disarms_and_rearms(self, tmp_path, monkeypatch):
        database, engine = make_engine(tmp_path)
        churn_and_checkpoint(database, 3)
        original = engine._fold_lineage
        monkeypatch.setattr(
            SegmentedWriteAheadLog,
            "_fold_lineage",
            staticmethod(lambda base, deltas: (_ for _ in ()).throw(
                OSError("fold blew up")
            )),
        )
        with pytest.raises(OSError):
            engine.compact_once()
        assert not engine._synthesis_due  # disarmed, not hot-looping
        assert engine.statistics.compaction_errors == 1
        assert "base synthesis" in engine.statistics.last_compaction_error
        monkeypatch.setattr(
            SegmentedWriteAheadLog, "_fold_lineage", staticmethod(original)
        )
        churn_and_checkpoint(database, 2, start=2000)  # next deltas re-arm
        assert engine.compact_now() > 0
        assert engine.statistics.bases_synthesized >= 1
        engine.close()
        recovered = recover(tmp_path / "segments", make_schema)
        assert recovered.snapshot() == database.snapshot()
        recovered.wal.close()
