"""Recovery benchmark — checkpoint pause ∝ churn, bounded restart replay.

Twin stores run the same churn workload: a large table with a small
per-round churn (store ≥ 10× churn), checkpointing after every round.
The segmented engine writes one ``CHECKPOINT_BASE`` up front — a fold of
the *entire* store — and then ``CHECKPOINT_DELTA`` records carrying only
the net churn, so its steady-state checkpoint pause must land well below
its own base pause.  The run then compacts the sealed segments
(reclaimed bytes must be positive) and times a cold
:func:`repro.storage.recover` of the directory, checking the recovered
store row-for-row against the in-memory twin's log replayed from its
JSON lines (``WriteAheadLog.load`` + ``recover_database``).

The writer folds the full store exactly once (the first base) and later
bases are synthesized off-writer by the compaction pass, so
``writer_base_folds`` must stay at 1 while ``bases_synthesized`` is
positive.

Results land in the ``"durability"`` section of ``BENCH_admission.json``
(read-modify-write, like the ``"network"`` section) where
``scripts/bench_gate.py`` gates them: recovery time and the max delta
checkpoint pause — normalized by the run's anchor admission throughput, a
machine-speed proxy — must not grow beyond tolerance, compaction must
keep reclaiming bytes, the delta pause must stay below the engine's
full-snapshot base pause, and the writer must never fold a second base.  Run via ``make recoverbench``
(part of ``make check``); not smoke-marked, so ``make smoke`` keeps its
budget.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

import pytest

from benchmarks.bench_json import read_results, write_results
from benchmarks.conftest import BENCH_SCALE, report
from repro.experiments.report import format_table
from repro.relational.database import Database
from repro.relational.recovery import recover_database
from repro.relational.wal import WriteAheadLog
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog, recover


#: (store rows, churned rows per checkpoint, checkpointed churn rounds).
#: The store dwarfs the churn (≥ 10×) — the regime where a full-snapshot
#: fold pays for the whole store while a delta pays only for the churn.
PARAMS = {
    "default": (4_000, 100, 6),
    "paper": (20_000, 500, 6),
}


def _params() -> tuple[int, int, int]:
    return PARAMS["paper"] if BENCH_SCALE == "paper" else PARAMS["default"]


def make_schema() -> Database:
    database = Database()
    database.create_table("Rows", ["id", "payload"], key=["id"])
    return database


def _row(i: int) -> tuple[int, str]:
    return (i, f"payload-{i:08d}")


def _bulk_load(database: Database, rows: int) -> None:
    with database.begin() as txn:
        for i in range(rows):
            txn.insert("Rows", _row(i))


def _churn_round(database: Database, round_index: int, churn: int, rows: int) -> None:
    """Delete the oldest ``churn`` live rows, insert ``churn`` fresh ones."""
    doomed = range(round_index * churn, (round_index + 1) * churn)
    with database.begin() as txn:
        for i in doomed:
            txn.delete("Rows", _row(i))
            txn.insert("Rows", _row(rows + i))


def fingerprint(database: Database) -> dict:
    return {
        name: sorted(rows) for name, rows in database.snapshot().items()
    }


def _emit_durability_json(path: Path, result: dict) -> None:
    """Merge the durability section into the results file.

    Read-modify-write, mirroring the ``"network"`` emitter: the sharded
    admission benchmark owns the rest of the file and preserves this
    section symmetrically.
    """
    payload = read_results(path)
    payload["durability"] = {"scale": BENCH_SCALE, "results": [result]}
    write_results(path, payload)


@pytest.mark.recovery
def test_recovery_and_checkpoint_pause(tmp_path, bench_json):
    rows, churn, rounds = _params()
    assert rows >= 10 * churn

    # In-memory twin: the reference the recovered store is checked against.
    twin = make_schema()

    # Segmented twin: one writer-folded base checkpoint, then deltas for
    # every round; the base due mid-run is synthesized by the compaction
    # pass.
    seg_dir = tmp_path / "segments"
    config = DurabilityConfig(
        mode="segmented",
        directory=str(seg_dir),
        base_interval=rounds // 2,
    )
    segmented = make_schema()
    engine = SegmentedWriteAheadLog(seg_dir, config)
    engine.adopt(segmented.wal)
    segmented.wal = engine

    for database in (twin, segmented):
        _bulk_load(database, rows)
        database.checkpoint()  # the in-memory fold / the segmented base
    for round_index in range(rounds):
        for database in (twin, segmented):
            _churn_round(database, round_index, churn, rows)
            database.checkpoint()  # full fold again vs. one delta record

    stats = engine.statistics
    assert stats.checkpoints_base == 1
    assert stats.checkpoints_delta == rounds

    # Background-style compaction debt is paid before the cold restart;
    # the superseded pre-base segments must actually free disk, and the
    # due base is synthesized off-writer rather than folded by the writer.
    compaction_passes = engine.compact_now()
    assert stats.bytes_reclaimed > 0, "compaction reclaimed nothing"
    assert stats.bases_synthesized >= 1, "no base was synthesized"
    assert stats.checkpoints_base == 1, "the writer folded a second base"
    engine.close()

    # A cold restart starts from a collected heap: otherwise whether a
    # full collection of the workload's garbage lands inside the timed
    # window depends on what the test allocated before it, not on replay.
    gc.collect()
    started = time.perf_counter()
    recovered = recover(seg_dir, make_schema)
    recovery_ms = (time.perf_counter() - started) * 1000.0
    reference = recover_database(make_schema, WriteAheadLog.load(twin.wal.dump()))
    assert fingerprint(recovered) == fingerprint(reference)
    assert fingerprint(recovered) == fingerprint(segmented)
    recovered.wal.close()

    # The headline claim: with the store ≥ 10× the churn, the delta
    # checkpoint pause lands below the engine's full-snapshot base fold.
    assert stats.delta_pause_ms < stats.base_pause_ms, (
        stats.delta_pause_ms,
        stats.base_pause_ms,
    )

    result = {
        "store_rows": rows,
        "churn_rows": churn,
        "checkpoints": rounds + 1,
        "recovery_ms": round(recovery_ms, 3),
        "max_delta_pause_ms": round(stats.delta_pause_ms, 3),
        "base_pause_ms": round(stats.base_pause_ms, 3),
        "bytes_reclaimed": stats.bytes_reclaimed,
        "segments_sealed": stats.segments_sealed,
        "compactions": compaction_passes,
        "writer_base_folds": stats.checkpoints_base,
        "bases_synthesized": stats.bases_synthesized,
    }
    report(
        "Durability engine (segmented WAL: delta vs. base checkpoints)",
        format_table(
            ["store rows", "churn", "delta pause ms", "base pause ms", "recovery ms", "bytes reclaimed"],
            [
                [
                    rows,
                    churn,
                    result["max_delta_pause_ms"],
                    result["base_pause_ms"],
                    result["recovery_ms"],
                    result["bytes_reclaimed"],
                ]
            ],
        ),
    )
    _emit_durability_json(bench_json, result)
