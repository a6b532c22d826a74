"""Crash-point recovery: the segmented engine vs. in-memory log replay.

A seeded workload script (mixed auto-commit writes, multi-op
transactions, aborts and checkpoints — seeded like
``tests/sharding/test_concurrent_admission_harness.py``) is applied to
twin stores: one on the in-memory :class:`WriteAheadLog`, one on the
segmented engine.  A "crash" keeps only the twin's dumped frames and
the engine's on-disk state; both sides are then recovered — through the
one replay, :func:`recover_database` — and must agree row-for-row,
including after every crash point the segmented engine has that the
in-memory log does not:

* a torn tail record (truncated / CRC-corrupted / garbage-suffixed);
* a copy taken after every seal, while the manifest lags the writer (a
  seal saves no manifest: open finds the sealed successors by name), and
  a copy taken inside a seal, between creating the successor and syncing
  the directory (an empty successor);
* a manifest swap interrupted mid-rename (``MANIFEST.tmp`` left behind);
* a compactor killed mid-rewrite (orphan generation before the swap) or
  mid-cleanup (superseded generation after the swap), a compaction pass
  killed on either side of its one manifest save, and a rewrite of a
  successor the manifest does not list yet killed before its save;
* an open transaction's unsynced bytes past the tail's synced watermark
  (``fsync=True``), lost or torn.

Corruption inside a *sealed* segment is not a torn write and must be
fatal rather than silently healed — also in a successor the manifest
does not list, unless it is the last one.
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
from repro.relational.wal import WriteAheadLog, encode_frame
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog, recover
from repro.storage import engine as engine_module
from repro.storage.manifest import MANIFEST_TMP_NAME, Manifest
from repro.storage.segment import (
    SEGMENT_SUFFIX,
    parse_segment_file_name,
    segment_file_name,
)

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


def open_twins(tmp_path, **engine_overrides):
    """Empty twin stores: the in-memory log and the segmented engine."""
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
    return twin, segmented, engine, seg_dir


def build_twins(tmp_path, seed: int, **engine_overrides):
    """Twin stores after the same seeded workload; crash = stop using them."""
    twin, segmented, engine, seg_dir = open_twins(tmp_path, **engine_overrides)
    script = generate_script(seed)
    apply_script(twin, script)
    apply_script(segmented, script)
    return twin, segmented, engine, seg_dir


def recover_twin(twin: Database) -> Database:
    """The reference: replay the in-memory twin's log from its dumped frames."""
    return recover_database(make_schema, WriteAheadLog.load(twin.wal.dump()))


def writer_files(seg_dir) -> list[str]:
    """The writer's segment files (generation 0), oldest first."""
    indexed = []
    for name in os.listdir(seg_dir):
        parsed = parse_segment_file_name(name)
        if parsed is not None and parsed[1] == 0:
            indexed.append((parsed[0], name))
    return [name for _index, name in sorted(indexed)]


def saved_manifest(seg_dir) -> Manifest:
    manifest = Manifest.load(str(seg_dir))
    assert manifest is not None
    return manifest


def successor_names(seg_dir) -> list[str]:
    """Writer files the saved manifest does not list, oldest first."""
    listed = saved_manifest(seg_dir).segment_names()
    return [name for name in writer_files(seg_dir) if name not in listed]


def tail_file(seg_dir) -> str:
    """The writer's tail: its newest segment file.

    Seals do not save the manifest, so the tail is found as open finds
    it, by name rather than from the manifest's last entry.
    """
    return os.path.join(str(seg_dir), writer_files(seg_dir)[-1])


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


class TestSealCrashPoints:
    """A seal saves no manifest.  Whatever a crash leaves after or inside
    a seal, open finds the sealed successors by name and recovers the
    twin's rows."""

    @pytest.mark.parametrize("seed", (0, 4, 7))
    def test_copy_after_every_seal_matches_twin_replay(self, tmp_path, seed):
        twin, segmented, engine, seg_dir = open_twins(tmp_path)
        copies = []
        for op in generate_script(seed):
            sealed = engine.statistics.segments_sealed
            apply_script(twin, [op])
            apply_script(segmented, [op])
            if engine.statistics.segments_sealed > sealed:
                crash_dir = tmp_path / f"after-seal-{sealed + 1}"
                shutil.copytree(seg_dir, crash_dir)
                copies.append(
                    (sealed + 1, crash_dir, fingerprint(recover_twin(twin)))
                )
        # One copy per seal: every k from the first seal to the last.
        assert [k for k, _dir, _rows in copies] == list(
            range(1, engine.statistics.segments_sealed + 1)
        )
        assert len(copies) >= 4
        for k, crash_dir, expected in copies:
            # The manifest lags: it was saved at open, before any seal.
            assert len(successor_names(crash_dir)) == k
            recovered = recover(crash_dir, make_schema)
            assert fingerprint(recovered) == expected
            # The open's own save lists the whole chain it found.
            assert successor_names(crash_dir) == []
            recovered.wal.close()

    @pytest.mark.parametrize("seed", (2, 5))
    def test_copy_inside_a_seal_before_the_directory_sync(
        self, tmp_path, monkeypatch, seed
    ):
        twin, segmented, engine, seg_dir = open_twins(tmp_path, fsync=True)
        real_sync = engine_module.sync_directory
        crash_dirs = []

        def copying_sync(directory):
            # The successor exists but its name is not yet durable: the
            # crash image holds it empty, or (an OS crash) not at all.
            crash_dir = tmp_path / f"in-seal-{len(crash_dirs) + 1}"
            shutil.copytree(seg_dir, crash_dir)
            crash_dirs.append(crash_dir)
            real_sync(directory)

        monkeypatch.setattr(engine_module, "sync_directory", copying_sync)
        cases = []
        after = fingerprint(recover_twin(twin))
        for op in generate_script(seed):
            before, seals = after, len(crash_dirs)
            apply_script(twin, [op])
            apply_script(segmented, [op])
            after = fingerprint(recover_twin(twin))
            cases += [(name, before, after) for name in crash_dirs[seals:]]
        monkeypatch.undo()
        assert len(cases) >= 4
        for crash_dir, before, after in cases:
            empty = tail_file(crash_dir)
            assert os.path.getsize(empty) == 0
            without = crash_dir.with_name(crash_dir.name + "-lost")
            shutil.copytree(crash_dir, without)
            os.remove(os.path.join(without, os.path.basename(empty)))
            for image in (crash_dir, without):
                recovered = recover(image, make_schema)
                # The seal flushed the outgoing tail first: if the
                # operation's own COMMIT sealed it, that commit is durable
                # before its acknowledgement.  Either side is a legal
                # crash outcome, never anything in between.
                assert fingerprint(recovered) in (before, after)
                recovered.wal.close()

    @pytest.mark.parametrize("seed", (0, 1, 6))
    def test_rewrite_of_an_unlisted_successor_killed_before_its_save(
        self, tmp_path, monkeypatch, seed
    ):
        twin, segmented, engine, seg_dir = build_twins(
            tmp_path, seed, base_interval=100
        )
        expected = fingerprint(segmented)
        saved_next = saved_manifest(seg_dir).next_segment_index
        names_before = set(os.listdir(seg_dir))

        def crashing_save(self, directory, *, fsync=True):
            raise OSError("killed before the manifest save")

        monkeypatch.setattr(Manifest, "save", crashing_save)
        with pytest.raises(OSError):
            engine.compact_once()
        monkeypatch.undo()
        rewrites = set(os.listdir(seg_dir)) - names_before
        assert any(
            generation == 1 and index >= saved_next
            for index, generation in map(parse_segment_file_name, rewrites)
        ), "the pass should have rewritten a successor the manifest omits"
        recovered = recover(seg_dir, make_schema)
        assert not rewrites & set(os.listdir(seg_dir))
        assert fingerprint(recovered) == expected
        assert fingerprint(recovered) == fingerprint(recover_twin(twin))
        recovered.wal.close()


class TestSuccessorDamage:
    """Every segment of the chain open builds but the last is sealed,
    whether the manifest lists it or open found it by name."""

    SEED = 3

    @staticmethod
    def _damage_first_frame(path) -> None:
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # inside the first frame's payload
        path.write_bytes(bytes(data))

    @pytest.mark.parametrize("victim", ["listed-tail", "first-successor"])
    def test_damage_before_the_last_successor_is_fatal(self, tmp_path, victim):
        _twin, _segmented, _engine, seg_dir = build_twins(tmp_path, self.SEED)
        successors = successor_names(seg_dir)
        assert len(successors) >= 2
        # The manifest saved at open lists the tail of that moment as
        # unsealed; the seals after it sealed it.
        name = (
            saved_manifest(seg_dir).tail.name
            if victim == "listed-tail"
            else successors[0]
        )
        self._damage_first_frame(seg_dir / name)
        with pytest.raises(RecoveryError, match="corrupt"):
            recover(seg_dir, make_schema)

    def test_damage_in_the_last_successor_truncates(self, tmp_path):
        twin, segmented, _engine, seg_dir = build_twins(tmp_path, self.SEED)
        expected = fingerprint(segmented)
        start_torn_transaction(twin, segmented, seg_dir)
        path = tail_file(seg_dir)
        assert os.path.basename(path) == successor_names(seg_dir)[-1]
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(TAIL_DAMAGE["flip-crc-byte"](data))
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
        twin, segmented, engine, seg_dir = build_twins(tmp_path, 1)
        entry = next(e for e in engine._manifest.segments if e.sealed)
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
        _twin, _segmented, engine, seg_dir = build_twins(tmp_path, 5)
        entry = next(e for e in engine._manifest.segments if e.sealed)
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
        # stays authoritative.  A base is born at generation 1 under the
        # next fresh index, past every writer successor.
        twin, segmented, engine, seg_dir = self._twins(tmp_path, 0)
        index = engine._manifest.next_segment_index
        orphan = seg_dir / segment_file_name(index, generation=1)
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
