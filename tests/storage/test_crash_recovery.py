"""Crash-point recovery: the segmented engine vs. in-memory log replay.

A seeded workload script (mixed auto-commit writes, multi-op
transactions, aborts and checkpoints — seeded like
``tests/sharding/test_concurrent_admission_harness.py``) is applied to
twin stores: one on the in-memory :class:`WriteAheadLog`, one on the
segmented engine.  A "crash" keeps only the twin's dumped JSON lines and
the engine's on-disk state; both sides are then recovered — through the
one replay, :func:`recover_database` — and must agree row-for-row,
including after every crash point the segmented engine has that the
in-memory log does not:

* a torn tail record (truncated / CRC-corrupted / garbage-suffixed);
* a manifest swap interrupted mid-rename (``MANIFEST.tmp`` left behind);
* a compactor killed mid-rewrite (orphan generation before the swap) or
  mid-cleanup (superseded generation after the swap), and a compaction
  pass killed on either side of its one manifest save;
* an open transaction's unsynced bytes past the tail's synced watermark
  (``fsync=True``), lost or torn.

Corruption inside a *sealed* segment is not a torn write and must be
fatal rather than silently healed.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import warnings

import pytest

from repro.errors import RecoveryError
from repro.relational.database import Database
from repro.relational.recovery import recover_database
from repro.relational.wal import WriteAheadLog
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog, recover
from repro.storage.manifest import MANIFEST_TMP_NAME, Manifest
from repro.storage.segment import SEGMENT_SUFFIX, encode_frame, segment_file_name

CRASH_SEEDS = range(8)
TORN_SEEDS = (3, 11, 27)

#: Tail damage a crash can inflict on the last (torn) write.  Each takes
#: the tail file's bytes and returns the post-crash bytes.
TAIL_DAMAGE = {
    "truncate-mid-frame": lambda data: data[:-3],
    "flip-crc-byte": lambda data: data[:-1] + bytes([data[-1] ^ 0xFF]),
    "partial-header": lambda data: data + b"\x00\x00\x01",
    "garbage-frame": lambda data: data + b"\x00\x00\x00\x40GARBAGE",
}


def make_schema() -> Database:
    database = Database()
    database.create_table("Seats", ["flight", "seat"], key=["flight", "seat"])
    database.create_table("Notes", ["id", "note"], key=["id"])
    return database


def generate_script(seed: int, *, ops: int = 120, checkpoint_every: int = 18, start: int = 0):
    """A deterministic workload script both twins apply identically."""
    rng = random.Random(seed)
    counter = itertools.count(start)
    live: list[tuple] = []
    script: list[tuple] = []
    for step in range(1, ops + 1):
        roll = rng.random()
        if roll < 0.45 or not live:
            n = next(counter)
            row = (n, f"s{n}")
            script.append(("insert", "Seats", row))
            live.append(row)
        elif roll < 0.65:
            row = live.pop(rng.randrange(len(live)))
            script.append(("delete", "Seats", row))
        elif roll < 0.85:
            n = next(counter)
            seat_row = (n, f"s{n}")
            script.append(
                (
                    "txn",
                    (
                        ("insert", "Seats", seat_row),
                        ("insert", "Notes", (n, f"note-{n}")),
                    ),
                )
            )
            live.append(seat_row)
        else:
            # Aborted transaction: its insert (and delete of a live row,
            # which the abort must undo) must leave no trace anywhere —
            # not in the store, not in the next delta checkpoint.
            n = next(counter)
            body = [("insert", "Seats", (n, f"tmp{n}"))]
            if live:
                body.append(("delete", "Seats", live[rng.randrange(len(live))]))
            script.append(("abort", tuple(body)))
        if step % checkpoint_every == 0:
            script.append(("checkpoint",))
    return script


def apply_script(database: Database, script) -> None:
    for op in script:
        kind = op[0]
        if kind == "insert":
            database.insert(op[1], op[2])
        elif kind == "delete":
            database.delete(op[1], op[2])
        elif kind == "txn":
            with database.begin() as txn:
                for verb, table, values in op[1]:
                    (txn.insert if verb == "insert" else txn.delete)(table, values)
        elif kind == "abort":
            txn = database.begin()
            for verb, table, values in op[1]:
                (txn.insert if verb == "insert" else txn.delete)(table, values)
            txn.abort()
        elif kind == "checkpoint":
            database.checkpoint()
        else:  # pragma: no cover - script generator bug
            raise AssertionError(f"unknown op {kind!r}")


def fingerprint(database: Database) -> dict:
    """Order-independent row-for-row image of the store."""
    return {
        name: sorted(rows, key=repr) for name, rows in database.snapshot().items()
    }


def build_twins(tmp_path, seed: int, **engine_overrides):
    """Twin stores after the same seeded workload; crash = stop using them."""
    script = generate_script(seed)
    twin = make_schema()
    seg_dir = tmp_path / "segments"
    config = DurabilityConfig(
        mode="segmented",
        directory=str(seg_dir),
        **{"segment_max_records": 24, "base_interval": 3, **engine_overrides},
    )
    segmented = make_schema()
    engine = SegmentedWriteAheadLog(seg_dir, config)
    engine.adopt(segmented.wal)
    segmented.wal = engine
    apply_script(twin, script)
    apply_script(segmented, script)
    return twin, segmented, engine, seg_dir


def recover_twin(twin: Database) -> Database:
    """The reference: replay the in-memory twin's log from its JSON lines."""
    return recover_database(make_schema, WriteAheadLog.load(twin.wal.dump()))


def tail_file(seg_dir) -> str:
    manifest = Manifest.load(str(seg_dir))
    assert manifest is not None
    return os.path.join(str(seg_dir), manifest.tail.name)


def start_torn_transaction(twin: Database, segmented: Database, seg_dir):
    """Leave both logs with a never-committed trailing write (flushed to
    the segmented tail).

    Returns the open transactions (kept alive so nothing auto-finishes)
    after making sure the segmented tail segment holds at least one torn
    frame — if the torn write itself sealed the segment, another
    uncommitted row is added so in-place damage has a frame to hit.
    """
    txns = []
    for database in (twin, segmented):
        txn = database.begin()
        txn.insert("Notes", (999_001, "torn"))
        txns.append(txn)
    segmented.wal.flush()
    extra = itertools.count(999_002)
    while os.path.getsize(tail_file(seg_dir)) == 0:
        txns[1].insert("Notes", (next(extra), "torn"))
        segmented.wal.flush()
    return txns


class TestCleanCrash:
    @pytest.mark.parametrize("compact", [False, True], ids=["raw", "compacted"])
    @pytest.mark.parametrize("seed", CRASH_SEEDS)
    def test_recovery_matches_twin_replay(self, tmp_path, seed, compact):
        twin, segmented, engine, seg_dir = build_twins(tmp_path, seed)
        if compact:
            engine.compact_now()
        expected = fingerprint(segmented)
        recovered = recover(seg_dir, make_schema)
        reference = recover_twin(twin)
        assert fingerprint(recovered) == expected
        assert fingerprint(recovered) == fingerprint(reference)
        assert recovered.wal.committed_transaction_ids() >= set()
        recovered.wal.close()

    def test_recovered_store_keeps_working_and_recovering(self, tmp_path):
        twin, _segmented, _engine, seg_dir = build_twins(tmp_path, 4)
        recovered = recover(seg_dir, make_schema)
        extra = generate_script(99, ops=30, start=10_000)
        apply_script(recovered, extra)
        apply_script(twin, extra)
        second = recover(seg_dir, make_schema)
        assert fingerprint(second) == fingerprint(recovered)
        assert fingerprint(second) == fingerprint(recover_twin(twin))
        second.wal.close()
        recovered.wal.close()


class TestTornTail:
    @pytest.mark.parametrize("damage", sorted(TAIL_DAMAGE))
    @pytest.mark.parametrize("seed", TORN_SEEDS)
    def test_torn_tail_truncated_to_twin_state(self, tmp_path, seed, damage):
        twin, segmented, _engine, seg_dir = build_twins(tmp_path, seed)
        expected = fingerprint(segmented)  # torn txn must contribute nothing
        start_torn_transaction(twin, segmented, seg_dir)
        path = tail_file(seg_dir)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(TAIL_DAMAGE[damage](data))

        with pytest.warns(RuntimeWarning, match="torn tail"):
            recovered = recover(seg_dir, make_schema)
        assert fingerprint(recovered) == expected
        assert fingerprint(recovered) == fingerprint(recover_twin(twin))
        assert recovered.wal.statistics.torn_tail_truncations == 1
        recovered.wal.close()


class TestManifestCrashPoints:
    def test_interrupted_manifest_swap_is_discarded(self, tmp_path):
        twin, segmented, _engine, seg_dir = build_twins(tmp_path, 0)
        tmp = seg_dir / MANIFEST_TMP_NAME
        tmp.write_text('{"format": 1, "segments": [  ... the rename never ran')
        recovered = recover(seg_dir, make_schema)
        assert not tmp.exists()
        assert fingerprint(recovered) == fingerprint(segmented)
        assert fingerprint(recovered) == fingerprint(recover_twin(twin))
        recovered.wal.close()

    def test_compactor_killed_before_swap_drops_orphan_generation(self, tmp_path):
        twin, segmented, _engine, seg_dir = build_twins(tmp_path, 1)
        manifest = Manifest.load(str(seg_dir))
        entry = next(e for e in manifest.segments if e.sealed)
        orphan = seg_dir / segment_file_name(entry.index, entry.generation + 1)
        orphan.write_bytes(encode_frame(b"half a rewrite, never swapped in"))
        recovered = recover(seg_dir, make_schema)
        assert not orphan.exists()
        assert fingerprint(recovered) == fingerprint(segmented)
        assert fingerprint(recovered) == fingerprint(recover_twin(twin))
        recovered.wal.close()

    def test_compactor_killed_after_swap_drops_stale_generation(self, tmp_path):
        twin, segmented, engine, seg_dir = build_twins(tmp_path, 2)
        def on_disk():
            return {
                name
                for name in os.listdir(seg_dir)
                if name.endswith(SEGMENT_SUFFIX)
            }
        before = on_disk()
        assert engine.compact_now() > 0
        removed = sorted(before - on_disk())
        assert removed, "compaction should have dropped superseded files"
        # The swap happened but the crash beat the cleanup: the superseded
        # generation is back on disk, unreferenced by the manifest.
        stale = seg_dir / removed[0]
        stale.write_bytes(b"superseded generation the cleanup never removed")
        recovered = recover(seg_dir, make_schema)
        assert not stale.exists()
        assert fingerprint(recovered) == fingerprint(segmented)
        assert fingerprint(recovered) == fingerprint(recover_twin(twin))
        recovered.wal.close()


class TestCompactionPassCrashPoints:
    """A compaction pass installs every decision with one manifest save and
    unlinks the superseded files only after it; a crash on either side of
    that save recovers to the same rows."""

    def _twins_with_pending_pass(self, tmp_path, seed):
        twin, segmented, engine, seg_dir = build_twins(tmp_path, seed)
        if engine._synthesis_due:
            assert engine.compact_once()  # the base fold is a pass of its own
        assert not engine._synthesis_due
        return twin, segmented, engine, seg_dir

    @staticmethod
    def _segment_files(seg_dir) -> set[str]:
        return {
            name for name in os.listdir(seg_dir) if name.endswith(SEGMENT_SUFFIX)
        }

    @pytest.mark.parametrize("seed", (0, 1, 6))
    def test_killed_before_the_save_keeps_the_old_manifest(
        self, tmp_path, monkeypatch, seed
    ):
        twin, segmented, engine, seg_dir = self._twins_with_pending_pass(
            tmp_path, seed
        )
        expected = fingerprint(segmented)
        before = Manifest.load(str(seg_dir))

        def crashing_save(self, directory, *, fsync=True):
            raise OSError("lost the disk before the rename")

        monkeypatch.setattr(Manifest, "save", crashing_save)
        with pytest.raises(OSError):
            engine.compact_once()
        monkeypatch.undo()
        # The old manifest is authoritative and names only files that
        # still exist: nothing was unlinked before the save.
        assert Manifest.load(str(seg_dir)) == before
        assert before.segment_names() <= self._segment_files(seg_dir)
        # Simulated crash: the wedged engine is abandoned, not closed.
        recovered = recover(seg_dir, make_schema)
        assert self._segment_files(seg_dir) == before.segment_names() | {
            recovered.wal._manifest.tail.name
        }
        assert fingerprint(recovered) == expected
        assert fingerprint(recovered) == fingerprint(recover_twin(twin))
        recovered.wal.close()

    @pytest.mark.parametrize("seed", (0, 1, 6))
    def test_killed_after_the_save_leaves_orphans_removed_at_open(
        self, tmp_path, monkeypatch, seed
    ):
        twin, segmented, engine, seg_dir = self._twins_with_pending_pass(
            tmp_path, seed
        )
        expected = fingerprint(segmented)

        def crashing_remove(path):
            raise OSError("killed before the first unlink")

        monkeypatch.setattr(os, "remove", crashing_remove)
        with pytest.raises(OSError):
            engine.compact_once()
        monkeypatch.undo()
        saved = Manifest.load(str(seg_dir))
        orphans = self._segment_files(seg_dir) - saved.segment_names()
        assert orphans, "the pass should have superseded some files"
        recovered = recover(seg_dir, make_schema)
        assert not orphans & self._segment_files(seg_dir)
        assert fingerprint(recovered) == expected
        assert fingerprint(recovered) == fingerprint(recover_twin(twin))
        recovered.wal.close()


class TestSealedCorruption:
    def test_sealed_segment_corruption_is_fatal(self, tmp_path):
        _twin, _segmented, _engine, seg_dir = build_twins(tmp_path, 5)
        manifest = Manifest.load(str(seg_dir))
        entry = next(e for e in manifest.segments if e.sealed)
        path = seg_dir / entry.name
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # inside the first frame's payload
        path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError, match="corrupt"):
            recover(seg_dir, make_schema)


class TestIncrementalBaseCleanCrash:
    """A chain with synthesized bases recovers row-identically to the twin."""

    @pytest.mark.parametrize("compact", [False, True], ids=["raw", "compacted"])
    @pytest.mark.parametrize("seed", (0, 3, 5))
    def test_recovery_matches_twin_replay(self, tmp_path, seed, compact):
        twin, segmented, engine, seg_dir = build_twins(
            tmp_path, seed, base_interval=2
        )
        if compact:
            assert engine.compact_now() > 0
            assert engine.statistics.bases_synthesized >= 1
        expected = fingerprint(segmented)
        recovered = recover(seg_dir, make_schema)
        assert fingerprint(recovered) == expected
        assert fingerprint(recovered) == fingerprint(recover_twin(twin))
        recovered.wal.close()


class TestSynthesizedBaseCrashPoints:
    """A crash anywhere in base synthesis never loses or duplicates rows."""

    def _twins(self, tmp_path, seed):
        return build_twins(
            tmp_path, seed, base_interval=2
        )

    def test_fabricated_orphan_base_is_dropped(self, tmp_path):
        # The compactor wrote the synthesized base's segment file but died
        # before the manifest save: the file is an orphan, the old lineage
        # stays authoritative.
        twin, segmented, _engine, seg_dir = self._twins(tmp_path, 0)
        manifest = Manifest.load(str(seg_dir))
        orphan = seg_dir / segment_file_name(manifest.next_segment_index)
        orphan.write_bytes(
            encode_frame(b"a synthesized base the swap never published")
        )
        recovered = recover(seg_dir, make_schema)
        assert not orphan.exists()
        assert fingerprint(recovered) == fingerprint(segmented)
        assert fingerprint(recovered) == fingerprint(recover_twin(twin))
        recovered.wal.close()

    def test_crash_before_manifest_swap_leaves_old_lineage(
        self, tmp_path, monkeypatch
    ):
        # Same crash point, but hit for real: the manifest save inside the
        # synthesis pass fails, the pass propagates the error, and the
        # freshly written base file stays on disk unreferenced.
        twin, segmented, engine, seg_dir = self._twins(tmp_path, 3)
        expected = fingerprint(segmented)
        names_before = set(os.listdir(seg_dir))
        real_save = Manifest.save

        def crashing_save(self, directory, *, fsync=True):
            raise OSError("lost the disk before the rename")

        monkeypatch.setattr(Manifest, "save", crashing_save)
        with pytest.raises(OSError):
            engine.compact_once()
        monkeypatch.setattr(Manifest, "save", real_save)
        orphans = set(os.listdir(seg_dir)) - names_before
        assert orphans, "the synthesized base file should be on disk"
        # Simulated crash: the wedged engine is abandoned, not closed.
        recovered = recover(seg_dir, make_schema)
        for name in orphans:
            assert not (seg_dir / name).exists()
        assert fingerprint(recovered) == expected
        assert fingerprint(recovered) == fingerprint(recover_twin(twin))
        recovered.wal.close()

    def test_crash_after_install_keeps_duplicate_lsn_delta(self, tmp_path):
        # One pass installs the synthesized base and then the process dies
        # before any old segment is compacted away: the delta sharing the
        # base's LSN is still on disk and replay must prefer the base.
        twin, segmented, engine, seg_dir = self._twins(tmp_path, 5)
        assert engine.compact_once()
        assert engine.statistics.bases_synthesized == 1
        recovered = recover(seg_dir, make_schema)
        assert fingerprint(recovered) == fingerprint(segmented)
        assert fingerprint(recovered) == fingerprint(recover_twin(twin))
        recovered.wal.close()


class TestSyncedWatermarkCrashPoints:
    """With ``fsync=True`` every acknowledged commit lies under the synced
    watermark; the bytes of a still-open transaction past it may be lost
    or torn by a crash, but never tear an acknowledged commit."""

    def _crashed_copy(self, tmp_path):
        """A copy taken while an open transaction sits past the watermark.

        Returns ``(crash_dir, expected, watermark)``: ``expected`` is the
        fingerprint at the last acknowledged commit, ``watermark`` the
        synced byte offset of the tail at that point.
        """
        seg_dir = tmp_path / "segments"
        config = DurabilityConfig(
            mode="segmented",
            directory=str(seg_dir),
            fsync=True,
            segment_max_records=10_000,
        )
        database = make_schema()
        engine = SegmentedWriteAheadLog(seg_dir, config)
        engine.adopt(database.wal)
        database.wal = engine
        with database.unit as unit:
            unit.transaction().insert("Seats", (1, "synced"))
            unit.transaction().insert("Notes", (10, "synced"))
        expected = fingerprint(database)
        watermark = engine._tail.synced_size
        assert watermark == engine._tail.size
        # The open transaction's records reached the OS, but no sync.
        txn = database.begin()
        txn.insert("Seats", (2, "unsynced"))
        txn.insert("Notes", (20, "unsynced"))
        engine._tail._file.flush()
        assert engine._tail.synced_size == watermark < engine._tail.size
        crash_dir = tmp_path / "crashed"
        shutil.copytree(seg_dir, crash_dir)
        txn.abort()
        engine.close()
        return crash_dir, expected, watermark

    def test_state_at_the_watermark_survives_exactly(self, tmp_path):
        crash_dir, expected, watermark = self._crashed_copy(tmp_path)
        # The crash loses precisely the unsynced suffix: what is left is a
        # clean log ending at the watermark — no torn record.
        with open(tail_file(crash_dir), "r+b") as handle:
            handle.truncate(watermark)
        recovered = recover(crash_dir, make_schema)
        assert fingerprint(recovered) == expected
        assert recovered.wal.statistics.torn_tail_truncations == 0
        recovered.wal.close()

    @pytest.mark.parametrize("damage", sorted(TAIL_DAMAGE))
    def test_damage_past_the_watermark_never_tears_acknowledged_commits(
        self, tmp_path, damage
    ):
        crash_dir, expected, watermark = self._crashed_copy(tmp_path)
        path = tail_file(crash_dir)
        with open(path, "rb") as handle:
            data = handle.read()
        assert len(data) > watermark  # damage lands in the unsynced part
        with open(path, "wb") as handle:
            handle.write(TAIL_DAMAGE[damage](data))
        with warnings.catch_warnings():
            # Depending on where the damage fell the tail may or may not
            # be torn; both are legitimate crash shapes here.
            warnings.simplefilter("ignore", RuntimeWarning)
            recovered = recover(crash_dir, make_schema)
        assert fingerprint(recovered) == expected
        recovered.wal.close()
