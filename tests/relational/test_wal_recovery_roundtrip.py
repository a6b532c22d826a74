"""WAL ↔ recovery round-trips: crash after a partial transaction.

These tests exercise the full durability loop of
:mod:`repro.relational.wal` and :mod:`repro.relational.recovery`:

* a "crash" is simulated by discarding the live :class:`Database` and
  keeping only the WAL — optionally dumped to its frame stream (the bytes
  a segment file holds) and loaded back;
* replay must restore *exactly* the effects of committed transactions: a
  transaction interrupted mid-flight (records written, no COMMIT marker)
  contributes nothing;
* the quantum tier's pending-transactions table rides on the same
  mechanism, so a crash between admission and grounding must restore the
  pending transaction and its guarantee.
"""

from __future__ import annotations

import pytest

from repro.core.quantum_database import QuantumDatabase
from repro.core.parser import parse_transaction
from repro.core.recovery import PendingTransactionStore, encode_transaction
from repro.errors import DurabilityError, RecoveryError
from repro.relational.database import Database
from repro.relational.recovery import recover_database, replay_into
from repro.relational.wal import LogRecord, LogRecordType, WriteAheadLog, encode_frame
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog, recover


def make_schema() -> Database:
    database = Database()
    database.create_table("Seats", ["flight", "seat"], key=["flight", "seat"])
    database.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    return database


def crash_and_recover(database: Database, *, through_dump: bool) -> Database:
    """Drop the live database, keep the WAL (optionally dumped), recover."""
    wal = database.wal
    if through_dump:
        wal = WriteAheadLog.load(wal.dump())
    return recover_database(make_schema, wal)


class TestPartialTransactionCrash:
    @pytest.mark.parametrize("through_dump", [False, True])
    def test_uncommitted_tail_is_discarded(self, through_dump):
        database = make_schema()
        with database.begin() as txn:
            txn.insert("Seats", (1, "1A"))
            txn.insert("Seats", (1, "1B"))
        # Crash strikes mid-transaction: two operations logged, no COMMIT.
        partial = database.begin()
        partial.insert("Bookings", ("Mickey", 1, "1A"))
        partial.delete("Seats", (1, "1A"))

        recovered = crash_and_recover(database, through_dump=through_dump)
        assert set(recovered.table("Seats").snapshot()) == {(1, "1A"), (1, "1B")}
        assert len(recovered.table("Bookings")) == 0

    @pytest.mark.parametrize("through_dump", [False, True])
    def test_committed_prefix_survives_partial_suffix(self, through_dump):
        database = make_schema()
        with database.begin() as txn:
            txn.insert("Seats", (1, "1A"))
        with database.begin() as txn:
            txn.insert("Bookings", ("Mickey", 1, "1A"))
            txn.delete("Seats", (1, "1A"))
        partial = database.begin()
        partial.insert("Bookings", ("Goofy", 1, "1B"))  # never commits

        recovered = crash_and_recover(database, through_dump=through_dump)
        assert set(recovered.table("Bookings").snapshot()) == {("Mickey", 1, "1A")}
        assert len(recovered.table("Seats")) == 0

    def test_aborted_transaction_replays_as_nothing(self):
        database = make_schema()
        txn = database.begin()
        txn.insert("Seats", (1, "1A"))
        txn.abort()
        with database.begin() as committed:
            committed.insert("Seats", (2, "2A"))
        recovered = crash_and_recover(database, through_dump=True)
        assert set(recovered.table("Seats").snapshot()) == {(2, "2A")}

    def test_replay_is_deterministic_and_repeatable(self):
        database = make_schema()
        with database.begin() as txn:
            txn.insert("Seats", (1, "1A"))
            txn.insert("Seats", (1, "1B"))
            txn.delete("Seats", (1, "1A"))
        once = crash_and_recover(database, through_dump=True)
        twice = crash_and_recover(once, through_dump=True)
        assert set(once.table("Seats").snapshot()) == set(
            twice.table("Seats").snapshot()
        )

    def test_recovered_wal_continues_lsn_sequence(self):
        database = make_schema()
        with database.begin() as txn:
            txn.insert("Seats", (1, "1A"))
        recovered = crash_and_recover(database, through_dump=True)
        highest_before = max(r.lsn for r in recovered.wal.records())
        recovered.insert("Seats", (1, "1B"))
        fresh = [r for r in recovered.wal.records() if r.lsn > highest_before]
        assert fresh
        assert [r.record_type for r in fresh][-1] is LogRecordType.COMMIT

    def test_replay_into_skips_unfinished_transactions(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        wal.log_insert(1, "Seats", (1, "1A"))
        wal.log_commit(1)
        wal.log_begin(2)
        wal.log_insert(2, "Seats", (1, "1B"))  # crash before COMMIT
        database = make_schema()
        replay_into(database, wal)
        assert set(database.table("Seats").snapshot()) == {(1, "1A")}


class TestQuantumPendingRoundTrip:
    """The pending-transactions table rides the same WAL round-trip."""

    def quantum_schema(self) -> Database:
        database = Database()
        database.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
        database.create_table(
            "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
        )
        PendingTransactionStore(database)
        return database

    def test_crash_between_admission_and_grounding(self):
        qdb = QuantumDatabase(self.quantum_schema())
        qdb.load_rows("Available", [(7, "1A"), (7, "1B")])
        kept = qdb.execute(
            "-Available(7, ?s), +Bookings('Mickey', 7, ?s) :-1 Available(7, ?s)"
        )
        assert kept.pending

        # Crash: only the dumped frames of the WAL survive.
        surviving = WriteAheadLog.load(qdb.database.wal.dump())
        recovered_store = recover_database(self.quantum_schema, surviving)
        recovered = QuantumDatabase.recover(recovered_store, qdb.config)

        assert recovered.pending_count == 1
        assert recovered.state.is_pending(kept.transaction_id)
        record = recovered.check_in(kept.transaction_id)
        assert record is not None and record.valuation["s"] in ("1A", "1B")
        # After grounding, a second crash must preserve the booking and
        # leave nothing pending.
        final = recover_database(
            self.quantum_schema, WriteAheadLog.load(recovered.database.wal.dump())
        )
        requantum = QuantumDatabase.recover(final, qdb.config)
        assert requantum.pending_count == 0
        assert len(requantum.table("Bookings")) == 1

    def test_batch_persistence_is_atomic_in_the_log(self):
        qdb = QuantumDatabase(self.quantum_schema())
        qdb.load_rows("Available", [(7, "1A"), (7, "1B"), (7, "1C")])
        results = qdb.commit_batch(
            [
                "-Available(7, ?s), +Bookings('Mickey', 7, ?s) :-1 Available(7, ?s)",
                "-Available(7, ?s), +Bookings('Goofy', 7, ?s) :-1 Available(7, ?s)",
            ]
        )
        assert all(r.committed for r in results)
        # Both pending rows were made durable under a single commit record.
        pending_inserts = [
            r
            for r in qdb.database.wal.records()
            if r.record_type is LogRecordType.INSERT
            and r.table == "__pending_transactions"
        ]
        assert len(pending_inserts) == 2
        assert len({r.transaction_id for r in pending_inserts}) == 1
        recovered = QuantumDatabase.recover(
            recover_database(
                self.quantum_schema, WriteAheadLog.load(qdb.database.wal.dump())
            ),
            qdb.config,
        )
        assert recovered.pending_count == 2


class TestCheckpoint:
    """Snapshot checkpoints bound the replay tail without losing effects."""

    def test_checkpoint_folds_log_and_recovers_identically(self):
        database = make_schema()
        with database.begin() as txn:
            txn.insert("Seats", (1, "1A"))
            txn.insert("Seats", (1, "1B"))
        with database.begin() as txn:
            txn.delete("Seats", (1, "1A"))
        before = set(database.table("Seats").snapshot())
        assert len(database.wal) > 1

        database.checkpoint()
        records = database.wal.records()
        assert [r.record_type for r in records] == [LogRecordType.CHECKPOINT]
        recovered = crash_and_recover(database, through_dump=True)
        assert set(recovered.table("Seats").snapshot()) == before

    def test_post_checkpoint_tail_replays_on_top_of_snapshot(self):
        database = make_schema()
        with database.begin() as txn:
            txn.insert("Seats", (1, "1A"))
        database.checkpoint()
        with database.begin() as txn:
            txn.insert("Seats", (1, "1B"))
        partial = database.begin()
        partial.insert("Seats", (1, "1C"))  # crash before COMMIT

        recovered = crash_and_recover(database, through_dump=True)
        assert set(recovered.table("Seats").snapshot()) == {(1, "1A"), (1, "1B")}
        # LSNs keep increasing across the checkpoint boundary.
        lsns = [r.lsn for r in recovered.wal.records()]
        assert lsns == sorted(lsns)

    def test_checkpoint_preserves_pending_transactions(self):
        schema = TestQuantumPendingRoundTrip().quantum_schema
        qdb = QuantumDatabase(schema())
        qdb.load_rows("Available", [(7, "1A"), (7, "1B")])
        result = qdb.execute(
            "-Available(7, ?s), +Bookings('Mickey', 7, ?s) :-1 Available(7, ?s)"
        )
        assert result.pending
        qdb.checkpoint()
        recovered = QuantumDatabase.recover(
            recover_database(schema, WriteAheadLog.load(qdb.database.wal.dump())),
            qdb.config,
        )
        assert recovered.pending_count == 1
        assert recovered.state.is_pending(result.transaction_id)

    def test_group_commit_flushes_engine_once_per_commit_marker(self, tmp_path):
        directory = str(tmp_path / "segments")
        database = make_schema()
        engine = SegmentedWriteAheadLog(
            directory,
            DurabilityConfig(directory=directory, segment_max_records=10_000),
        )
        engine.adopt(database.wal)
        database.wal = engine
        flushes_before = engine.statistics.flushes
        with database.begin() as txn:
            txn.insert("Seats", (1, "1A"))
            txn.insert("Seats", (1, "1B"))
            txn.insert("Seats", (1, "1C"))
        # One durability flush for the whole transaction, not one per row.
        assert engine.statistics.flushes == flushes_before + 1
        engine.close()
        reopened = recover(directory, make_schema)
        assert len(reopened.wal) == len(engine)
        assert set(reopened.table("Seats").snapshot()) == {
            (1, "1A"),
            (1, "1B"),
            (1, "1C"),
        }
        reopened.wal.close()

    def test_checkpoint_refuses_while_transactions_active(self):
        from repro.errors import TransactionError

        database = make_schema()
        txn = database.begin()
        txn.insert("Seats", (1, "1A"))
        with pytest.raises(TransactionError):
            database.checkpoint()
        txn.abort()
        database.checkpoint()  # fine once nothing is in flight
        recovered = crash_and_recover(database, through_dump=True)
        assert len(recovered.table("Seats")) == 0  # the abort was honoured


def framed(*records: LogRecord) -> bytes:
    """A log's byte form, written record by record."""
    return b"".join(encode_frame(record.to_bytes()) for record in records)


def pending_row(transaction_id: int, sequence: int, client: str) -> tuple:
    """A pending row in the stored form."""
    transaction = parse_transaction(
        f"-Available(7, ?s), +Bookings('{client}', 7, ?s) :-1 Available(7, ?s)",
        transaction_id=transaction_id,
    )
    return (transaction_id, sequence, client, None, encode_transaction(transaction))


#: A log as a crash leaves it after a fold: one CHECKPOINT record at the
#: last checkpoint and the records appended since — one committed
#: transaction (a grounded booking plus a new pending row), then one that
#: never reached its COMMIT.
FOLDED_LOG = framed(
    LogRecord(
        7,
        LogRecordType.CHECKPOINT,
        0,
        snapshot={
            "Available": [(7, "1A"), (7, "1B"), (7, "1C"), (7, "1D")],
            "Bookings": [],
            "__pending_transactions": [pending_row(41, 1, "Mickey")],
        },
    ),
    LogRecord(8, LogRecordType.BEGIN, 5),
    LogRecord(9, LogRecordType.DELETE, 5, "Available", (7, "1D")),
    LogRecord(10, LogRecordType.INSERT, 5, "Bookings", ("Minnie", 7, "1D")),
    LogRecord(
        11,
        LogRecordType.INSERT,
        5,
        "__pending_transactions",
        pending_row(42, 2, "Goofy"),
    ),
    LogRecord(12, LogRecordType.COMMIT, 5),
    LogRecord(13, LogRecordType.BEGIN, 6),
    LogRecord(
        14,
        LogRecordType.INSERT,
        6,
        "__pending_transactions",
        pending_row(43, 3, "Donald"),
    ),
    LogRecord(15, LogRecordType.DELETE, 6, "Available", (7, "1A")),
)


class TestDumpedLogs:
    """A dumped log recovers from its frames alone, and only whole."""

    def test_a_log_starting_with_a_checkpoint_recovers_tables_and_pending_set(
        self, tmp_path
    ):
        path = tmp_path / "folded.wal"
        path.write_bytes(FOLDED_LOG)
        schema = TestQuantumPendingRoundTrip().quantum_schema
        wal = WriteAheadLog.load(path.read_bytes())
        assert [r.record_type for r in wal.records()][0] is LogRecordType.CHECKPOINT

        store = recover_database(schema, wal)
        assert set(store.table("Available").snapshot()) == {
            (7, "1A"),
            (7, "1B"),
            (7, "1C"),
        }
        assert set(store.table("Bookings").snapshot()) == {("Minnie", 7, "1D")}
        recovered = QuantumDatabase.recover(store)
        assert recovered.pending_store.pending_ids() == {41, 42}
        restored = {
            entry.transaction_id: (entry.sequence, entry.original.client)
            for entry in recovered.state.pending_transactions()
        }
        assert restored == {41: (1, "Mickey"), 42: (2, "Goofy")}

        # The recovered store keeps appending after the log's LSNs and
        # grounds both pending bookings into the seats still available.
        recovered.ground_all()
        assert recovered.pending_count == 0
        bookings = {row[0]: row[2] for row in recovered.table("Bookings").snapshot()}
        assert bookings.keys() == {"Minnie", "Mickey", "Goofy"}
        assert {bookings["Mickey"], bookings["Goofy"]} <= {"1A", "1B", "1C"}
        assert min(r.lsn for r in recovered.database.wal.records()) >= 7

    def test_an_aborted_transaction_replays_as_nothing(self):
        wal = WriteAheadLog.load(
            framed(
                LogRecord(1, LogRecordType.BEGIN, 1),
                LogRecord(2, LogRecordType.INSERT, 1, "Seats", (1, "1A")),
                LogRecord(3, LogRecordType.COMMIT, 1),
                LogRecord(4, LogRecordType.BEGIN, 2),
                LogRecord(5, LogRecordType.INSERT, 2, "Seats", (1, "1B")),
                LogRecord(6, LogRecordType.ABORT, 2),
            )
        )
        recovered = recover_database(make_schema, wal)
        assert recovered.table("Seats").snapshot() == [(1, "1A")]
        recovered.insert("Seats", (1, "1C"))
        assert min(r.lsn for r in recovered.wal.records() if r.lsn > 6) == 7

    def test_a_torn_last_frame_is_refused(self):
        with pytest.raises(RecoveryError, match="truncated frame payload"):
            WriteAheadLog.load(FOLDED_LOG[:-20])

    def test_legacy_durability_mode_is_refused(self):
        with pytest.raises(DurabilityError, match="WriteAheadLog.load"):
            DurabilityConfig(mode="legacy")
