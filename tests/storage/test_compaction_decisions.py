"""Compaction decides from segment summaries, and reads only what it rewrites.

Every sealed segment carries an in-memory summary (the LSN range of its
raw records plus the LSN and kind of each checkpoint record), and a
compaction pass decides from it: a segment the drop rule empties is
unlinked unread, one it keeps whole is left alone, and only a mixed one
is read and rewritten.  Two contracts pin that down:

* **Summary decisions equal read decisions.**  Over seeded streams of
  inserts, deletes, transactions, base and delta checkpoints and
  synthesized bases — on small segments, starting from ``adopt()`` of a
  non-empty log and reopened mid-stream so that summaries are rebuilt by
  the open scan — each pass leaves on disk exactly the records
  ``_keep_in_compaction`` keeps over the segments' decoded records, and
  a cold ``recover`` of the directory equals the live store.
* **A work bound.**  On a stream shaped like the benchmark's
  ``store_churn`` (10-row replaces, a checkpoint every 10 transactions,
  ``compact_now()`` after each), compaction reads exactly the bytes of
  the mixed segments and saves the manifest at most once per pass that
  changed the chain (never for one that changed nothing).
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from repro.relational.database import Database
from repro.relational.wal import LogRecord
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog, recover
from repro.storage.manifest import Manifest
from repro.storage.segment import scan_frames

keep = SegmentedWriteAheadLog._keep_in_compaction

DECISION_SEEDS = range(6)


def make_schema() -> Database:
    database = Database()
    database.create_table("Seats", ["flight", "seat"], key=["flight", "seat"])
    database.create_table("Notes", ["id", "note"], key=["id"])
    return database


def decoded(directory: str, name: str) -> list[LogRecord]:
    """The records of one segment file, read and decoded in full."""
    with open(os.path.join(directory, name), "rb") as handle:
        scan = scan_frames(handle.read())
    assert scan.damage is None
    return [LogRecord.from_json(payload.decode("utf-8")) for payload in scan.payloads]


def sealed_on_disk(engine: SegmentedWriteAheadLog) -> dict[int, tuple]:
    """index -> (name, compacted_at_lsn, file bytes, decoded records)."""
    return {
        entry.index: (
            entry.name,
            entry.compacted_at_lsn,
            os.path.getsize(os.path.join(engine.directory, entry.name)),
            decoded(engine.directory, entry.name),
        )
        for entry in engine._manifest.segments[:-1]
        if entry.sealed
    }


def images(records: list[LogRecord]) -> list[str]:
    return [record.to_json() for record in records]


def fingerprint(database: Database) -> dict:
    return {
        name: sorted(rows, key=repr) for name, rows in database.snapshot().items()
    }


def planned_pass(engine: SegmentedWriteAheadLog) -> dict[int, tuple]:
    """What the read path says the next compaction pass must leave.

    index -> (name, file bytes, decoded records, records to keep), the
    last ``None`` for a segment the pass must not touch (not a
    candidate): the drop rule applied to every decoded record of every
    candidate, at the pointers the pass will read.
    """
    manifest = engine._manifest
    base_lsn, checkpoint_lsn = manifest.base_lsn, manifest.checkpoint_lsn
    plan = {}
    for index, (name, compacted_at, size, records) in sealed_on_disk(engine).items():
        expected = None
        if (
            compacted_at < checkpoint_lsn
            and name not in engine._compaction_quarantine
        ):
            expected = [
                record
                for record in records
                if keep(record.lsn, record.record_type, base_lsn, checkpoint_lsn)
            ]
        plan[index] = (name, size, records, expected)
    return plan


def mixed_bytes(plan: dict[int, tuple]) -> int:
    """Bytes of the candidates the drop rule neither keeps nor drops whole."""
    return sum(
        size
        for _name, size, records, expected in plan.values()
        if expected and len(expected) < len(records)
    )


def checked_pass(engine: SegmentedWriteAheadLog) -> dict | None:
    """Run one ``compact_once`` and check it against :func:`planned_pass`.

    Returns ``None`` when the pass found nothing to do, ``{}`` for a base
    synthesis, else the indexes the pass ``dropped``, ``rewrote`` and
    ``kept`` whole.
    """
    plan = planned_pass(engine)
    bases = engine.statistics.bases_synthesized
    did_work = engine.compact_once()
    after = sealed_on_disk(engine)
    if engine.statistics.bases_synthesized > bases:
        # A base fold touches no existing segment: it adds one sealed
        # segment holding the synthesized base.
        assert did_work
        assert len(set(after) - set(plan)) == 1
        for index, (name, _size, records, _expected) in plan.items():
            assert after[index][0] == name
            assert images(after[index][3]) == images(records)
        return {}
    outcome = {"dropped": set(), "rewrote": set(), "kept": set()}
    for index, (name, _size, records, expected) in plan.items():
        if expected is None:
            assert after[index][0] == name
            assert images(after[index][3]) == images(records)
        elif not expected:
            assert index not in after
            assert not os.path.exists(os.path.join(engine.directory, name))
            outcome["dropped"].add(index)
        elif len(expected) == len(records):
            assert after[index][0] == name  # neither read nor rewritten
            assert images(after[index][3]) == images(records)
            outcome["kept"].add(index)
        else:
            assert after[index][0] != name
            assert images(after[index][3]) == images(expected)
            assert not os.path.exists(os.path.join(engine.directory, name))
            outcome["rewrote"].add(index)
    assert set(after) == set(plan) - outcome["dropped"]
    assert did_work == any(outcome.values())
    return outcome if did_work else None


def compact_checked(engine: SegmentedWriteAheadLog) -> list[dict]:
    """``compact_now()``, one checked pass at a time."""
    outcomes = []
    while (outcome := checked_pass(engine)) is not None:
        outcomes.append(outcome)
    return outcomes


def assert_recovers(engine: SegmentedWriteAheadLog, database: Database, tmp_path):
    """A cold recover of a copy of the live directory equals the live store."""
    copy = tmp_path / f"copy-{engine._next_lsn}"
    shutil.copytree(engine.directory, copy)
    recovered = recover(copy, make_schema)
    assert fingerprint(recovered) == fingerprint(database)
    recovered.wal.close()
    shutil.rmtree(copy)


def run_stream(rng: random.Random, database: Database, steps: int, counter: list):
    """Seeded writes: inserts, deletes and two-row transactions."""
    live = [row for row in database.snapshot()["Seats"]]
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.5 or not live:
            counter[0] += 1
            row = (counter[0], f"s{counter[0]}")
            database.insert("Seats", row)
            live.append(row)
        elif roll < 0.75:
            database.delete("Seats", live.pop(rng.randrange(len(live))))
        else:
            counter[0] += 1
            n = counter[0]
            with database.begin() as txn:
                txn.insert("Seats", (n, f"s{n}"))
                txn.insert("Notes", (n, f"note-{n}"))
            live.append((n, f"s{n}"))


class TestSummaryDecisionsEqualReadDecisions:
    @pytest.mark.parametrize("seed", DECISION_SEEDS)
    def test_every_pass_keeps_exactly_what_the_read_path_keeps(
        self, tmp_path, seed
    ):
        rng = random.Random(seed)
        directory = str(tmp_path / "segments")
        config = DurabilityConfig(
            directory=directory,
            segment_max_records=rng.choice((5, 7, 11)),
            base_interval=rng.choice((2, 3)),
        )
        # adopt() of a log that already holds records.
        database = make_schema()
        counter = [0]
        run_stream(rng, database, 6, counter)
        engine = SegmentedWriteAheadLog(directory, config)
        engine.adopt(database.wal)
        database.wal = engine
        seen = {"synthesized": 0, "dropped": 0, "rewrote": 0, "kept": 0}
        for round_ in range(10):
            run_stream(rng, database, rng.randrange(3, 12), counter)
            roll = rng.random()
            if roll < 0.15 and engine.wants_delta_checkpoint():
                engine.checkpoint(database.snapshot())  # a writer-side base
            elif roll < 0.85:
                database.checkpoint()  # the first base, then deltas
            for outcome in compact_checked(engine):
                if not outcome:
                    seen["synthesized"] += 1
                for kind, indexes in outcome.items():
                    seen[kind] += len(indexes)
            assert_recovers(engine, database, tmp_path)
            if round_ == 4:
                # Reopen: every summary is rebuilt by the open scan.
                engine.close()
                database = recover(directory, make_schema, config)
                engine = database.wal
        engine.close()
        assert seen["dropped"] and seen["rewrote"] and seen["kept"], seen


class TestCompactionWorkBound:
    """The work bound of a ``store_churn``-shaped stream."""

    SEED = 20_261_017

    def test_reads_only_mixed_segments_and_saves_once_per_changing_pass(
        self, tmp_path, monkeypatch
    ):
        rng = random.Random(self.SEED)
        directory = str(tmp_path / "segments")
        database = make_schema()
        engine = SegmentedWriteAheadLog(
            directory,
            DurabilityConfig(directory=directory, segment_max_records=64),
        )
        engine.adopt(database.wal)
        database.wal = engine
        rows = [(i, f"payload-{rng.getrandbits(48):012x}") for i in range(400)]
        with database.begin() as txn:
            for row in rows:
                txn.insert("Seats", row)
        database.checkpoint()
        engine.compact_now()

        # Spies on what any compaction pass reads and saves, whatever
        # counters the engine keeps.
        read = [0]
        saves = [0]
        real_open, real_save = open, Manifest.save

        def spying_open(path, mode="r", *args, **kwargs):
            if mode == "rb":
                read[0] += os.path.getsize(path)
            return real_open(path, mode, *args, **kwargs)

        def spying_save(self, *args, **kwargs):
            saves[0] += 1
            return real_save(self, *args, **kwargs)

        monkeypatch.setattr("repro.storage.engine.open", spying_open, raising=False)
        monkeypatch.setattr(Manifest, "save", spying_save)

        next_id = len(rows)
        seen = {"kept whole": 0, "mixed": 0}
        for index in range(1, 121):
            with database.begin() as txn:
                for _ in range(10):
                    txn.delete("Seats", rows.pop(rng.randrange(len(rows))))
                for _ in range(10):
                    row = (next_id, f"payload-{rng.getrandbits(48):012x}")
                    next_id += 1
                    txn.insert("Seats", row)
                    rows.append(row)
            if index % 10:
                continue
            database.checkpoint()
            while True:
                plan = planned_pass(engine)
                chain = [entry.name for entry in engine._manifest.segments]
                counters = engine.durability_statistics()
                bases = engine.statistics.bases_synthesized
                read[0] = saves[0] = 0
                if not engine.compact_once():
                    break
                changed = [e.name for e in engine._manifest.segments] != chain
                delta = {
                    key: value - counters[key]
                    for key, value in engine.durability_statistics().items()
                    if key in ("compaction_bytes_read", "manifest_saves_compactor")
                }
                if engine.statistics.bases_synthesized == bases:
                    # Reads no segment it keeps or drops whole.
                    assert read[0] == mixed_bytes(plan)
                else:
                    assert read[0] == 0  # a fold reads the lineage in memory
                assert delta["compaction_bytes_read"] == read[0]
                # At most one save per pass that changed the chain.
                assert saves[0] <= (1 if changed else 0)
                assert delta["manifest_saves_compactor"] == saves[0]
                seen["kept whole"] += any(
                    expected and len(expected) == len(records)
                    for _name, _size, records, expected in plan.values()
                )
                seen["mixed"] += bool(mixed_bytes(plan))
        assert all(seen.values()), seen
        assert sorted(database.snapshot()["Seats"]) == sorted(rows)
        engine.close()
