"""Tests for DML statements, transactions, the WAL and crash recovery."""

from __future__ import annotations

import pytest

from repro.errors import RecoveryError, TransactionError
from repro.relational.database import Database
from repro.relational.dml import Delete, Insert
from repro.relational.recovery import recover_database, replay_into
from repro.relational.transaction import TransactionStatus
from repro.relational.wal import LogRecord, LogRecordType, WriteAheadLog


def make_schema() -> Database:
    database = Database()
    database.create_table("Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"])
    return database


@pytest.fixture
def db() -> Database:
    database = make_schema()
    database.insert("Bookings", ("Mickey", 1, "1A"))
    return database


class TestTransactions:
    def test_commit_applies_changes(self, db):
        with db.begin() as txn:
            txn.insert("Bookings", ("Goofy", 1, "1B"))
            txn.delete("Bookings", ("Mickey", 1, "1A"))
        assert db.table("Bookings").get((1, "1B")) is not None
        assert db.table("Bookings").get((1, "1A")) is None

    def test_abort_rolls_back(self, db):
        txn = db.begin()
        txn.insert("Bookings", ("Goofy", 1, "1B"))
        txn.delete("Bookings", ("Mickey", 1, "1A"))
        txn.abort()
        assert db.table("Bookings").get((1, "1B")) is None
        assert db.table("Bookings").get((1, "1A")) is not None

    def test_exception_in_context_manager_aborts(self, db):
        with pytest.raises(RuntimeError):
            with db.begin() as txn:
                txn.insert("Bookings", ("Goofy", 1, "1B"))
                raise RuntimeError("boom")
        assert db.table("Bookings").get((1, "1B")) is None

    def test_use_after_commit_rejected(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("Bookings", ("Goofy", 1, "1B"))

    def test_statement_application(self, db):
        db.apply(
            [
                Insert("Bookings", ("Goofy", 1, "1B")),
                Delete("Bookings", ("Mickey", 1, "1A")),
            ]
        )
        assert len(db.table("Bookings")) == 2 - 1 + 1 - 1  # started 1, +1, -1 ... = 1
        assert db.table("Bookings").get((1, "1B")) is not None

    def test_mapping_delete_in_any_column_order(self, db):
        removed = db.apply(Delete("Bookings", {"seat": "1A", "flight": 1, "passenger": "Mickey"}))
        assert [row["passenger"] for row in removed] == ["Mickey"]
        assert len(db.table("Bookings")) == 0
        recovered = recover_database(make_schema, db.wal)
        assert recovered.table("Bookings").snapshot() == []


class TestWAL:
    def test_records_appended_in_order(self, db):
        with db.begin() as txn:
            txn.insert("Bookings", ("Goofy", 1, "1B"))
        types = [r.record_type for r in db.wal.records()]
        assert types[-2:] == [LogRecordType.INSERT, LogRecordType.COMMIT]

    def test_committed_ids(self, db):
        txn = db.begin()
        txn.insert("Bookings", ("Goofy", 1, "1B"))
        txn.abort()
        with db.begin() as committed:
            committed.insert("Bookings", ("Minnie", 1, "1C"))
        assert committed.transaction_id in db.wal.committed_transaction_ids()
        assert txn.transaction_id not in db.wal.committed_transaction_ids()

    def test_dump_roundtrip(self, db):
        with db.begin() as txn:
            txn.insert("Bookings", ("Goofy", 1, "1B"))
        dumped = db.wal.dump()
        restored = WriteAheadLog.load(dumped)
        assert [r.record_type for r in restored] == [r.record_type for r in db.wal]
        assert [r.values for r in restored] == [r.values for r in db.wal]

    def test_malformed_record_rejected(self):
        with pytest.raises(RecoveryError):
            LogRecord.from_bytes(b"{not a record}")


class TestWriteAheadOrdering:
    """A log append that raises leaves the table as the log says it is."""

    @staticmethod
    def fail(*_args):
        raise OSError(28, "No space left on device")

    def test_a_failed_insert_append_leaves_no_row(self, monkeypatch):
        db = make_schema()
        monkeypatch.setattr(db.wal, "log_insert", self.fail)
        with pytest.raises(OSError):
            with db.begin() as txn:
                txn.insert("Bookings", ("Goofy", 1, "1B"))
        assert db.table("Bookings").snapshot() == []
        assert [r.record_type for r in db.wal] == [
            LogRecordType.BEGIN,
            LogRecordType.ABORT,
        ]
        assert db.statistics.records == len(db.wal)
        assert recover_database(make_schema, db.wal).table("Bookings").snapshot() == []

    def test_a_failed_delete_append_keeps_the_row(self, db, monkeypatch):
        logged = len(db.wal)
        counted = db.statistics.records
        monkeypatch.setattr(db.wal, "log_delete", self.fail)
        with pytest.raises(OSError):
            with db.begin() as txn:
                txn.delete("Bookings", ("Mickey", 1, "1A"))
        assert db.table("Bookings").snapshot() == [("Mickey", 1, "1A")]
        assert [r.record_type for r in db.wal.records()[logged:]] == [
            LogRecordType.BEGIN,
            LogRecordType.ABORT,
        ]
        assert db.statistics.records - counted == 2
        recovered = recover_database(make_schema, db.wal)
        assert recovered.table("Bookings").snapshot() == [("Mickey", 1, "1A")]

    def test_a_caught_append_failure_aborts_the_commit(self, monkeypatch):
        db = make_schema()
        monkeypatch.setattr(db.wal, "log_insert", self.fail)
        with pytest.raises(TransactionError):
            with db.begin() as txn:
                try:
                    txn.insert("Bookings", ("Goofy", 1, "1B"))
                except OSError:
                    pass
        assert txn.status is TransactionStatus.ABORTED
        assert db.table("Bookings").snapshot() == []
        assert [r.record_type for r in db.wal] == [
            LogRecordType.BEGIN,
            LogRecordType.ABORT,
        ]
        assert (db.statistics.commits, db.statistics.aborts) == (0, 1)
        assert db.statistics.records == len(db.wal)
        assert recover_database(make_schema, db.wal).table("Bookings").snapshot() == []

    def test_a_caught_delete_append_failure_keeps_the_row(self, db, monkeypatch):
        logged = len(db.wal)
        monkeypatch.setattr(db.wal, "log_delete", self.fail)
        with pytest.raises(TransactionError):
            with db.begin() as txn:
                try:
                    txn.delete("Bookings", ("Mickey", 1, "1A"))
                except OSError:
                    pass
        assert txn.status is TransactionStatus.ABORTED
        assert db.table("Bookings").snapshot() == [("Mickey", 1, "1A")]
        assert [r.record_type for r in db.wal.records()[logged:]] == [
            LogRecordType.BEGIN,
            LogRecordType.ABORT,
        ]
        recovered = recover_database(make_schema, db.wal)
        assert recovered.table("Bookings").snapshot() == [("Mickey", 1, "1A")]

    def test_a_caught_append_failure_undoes_the_logged_changes_too(self, monkeypatch):
        db = make_schema()
        log_insert = db.wal.log_insert
        calls = []

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                self.fail()
            log_insert(*args)

        monkeypatch.setattr(db.wal, "log_insert", second_fails)
        with pytest.raises(TransactionError):
            with db.begin() as txn:
                txn.insert("Bookings", ("Goofy", 1, "1B"))
                try:
                    txn.insert("Bookings", ("Pluto", 1, "1C"))
                except OSError:
                    pass
                txn.insert("Bookings", ("Donald", 1, "1D"))
        assert db.table("Bookings").snapshot() == []
        assert [r.record_type for r in db.wal] == [
            LogRecordType.BEGIN,
            LogRecordType.INSERT,
            LogRecordType.INSERT,
            LogRecordType.ABORT,
        ]
        assert db.statistics.records == len(db.wal)
        assert recover_database(make_schema, db.wal).table("Bookings").snapshot() == []

    def test_a_refused_commit_ends_the_transaction(self, monkeypatch):
        db = make_schema()
        monkeypatch.setattr(db.wal, "log_insert", self.fail)
        txn = db.begin()
        with pytest.raises(OSError):
            txn.insert("Bookings", ("Goofy", 1, "1B"))
        with pytest.raises(TransactionError, match="aborted"):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()
        monkeypatch.undo()
        db.checkpoint()  # refused while any transaction is still active
        with db.begin() as retry:
            retry.insert("Bookings", ("Goofy", 1, "1B"))
        recovered = recover_database(make_schema, db.wal)
        assert recovered.table("Bookings").snapshot() == [("Goofy", 1, "1B")]

    def test_a_failed_abort_append_still_ends_the_transaction(self, monkeypatch):
        db = make_schema()
        monkeypatch.setattr(db.wal, "log_abort", self.fail)
        txn = db.begin()
        txn.insert("Bookings", ("Goofy", 1, "1B"))
        with pytest.raises(OSError):
            txn.abort()
        assert txn.status is TransactionStatus.ABORTED
        assert db.table("Bookings").snapshot() == []
        assert db.statistics.aborts == 1
        db.checkpoint()  # refused while any transaction is still active
        # The log holds no COMMIT for the transaction: replay drops its insert.
        monkeypatch.undo()
        recovered = recover_database(make_schema, db.wal)
        assert recovered.table("Bookings").snapshot() == []


class TestRecovery:
    def test_recover_committed_only(self):
        database = make_schema()
        with database.begin() as txn:
            txn.insert("Bookings", ("Mickey", 1, "1A"))
        uncommitted = database.begin()
        uncommitted.insert("Bookings", ("Goofy", 1, "1B"))
        # Crash: the uncommitted transaction never commits or aborts.
        recovered = recover_database(make_schema, database.wal)
        rows = recovered.table("Bookings").snapshot()
        assert rows == [("Mickey", 1, "1A")]

    def test_recover_delete(self):
        database = make_schema()
        database.insert("Bookings", ("Mickey", 1, "1A"))
        database.delete("Bookings", ("Mickey", 1, "1A"))
        recovered = recover_database(make_schema, database.wal)
        assert len(recovered.table("Bookings")) == 0

    def test_recovered_database_keeps_logging(self):
        database = make_schema()
        database.insert("Bookings", ("Mickey", 1, "1A"))
        recovered = recover_database(make_schema, database.wal)
        recovered.insert("Bookings", ("Goofy", 1, "1B"))
        twice = recover_database(make_schema, recovered.wal)
        assert len(twice.table("Bookings")) == 2

    def test_corrupt_log_detected(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        wal.log_delete(1, "Bookings", ("Ghost", 9, "9Z"))
        wal.log_commit(1)
        with pytest.raises(RecoveryError):
            replay_into(make_schema(), wal)


class TestDatabaseFacade:
    def test_snapshot_restore(self, db):
        snapshot = db.snapshot()
        db.delete("Bookings", ("Mickey", 1, "1A"))
        db.restore(snapshot)
        assert db.table("Bookings").get((1, "1A")) is not None

    def test_table_names(self, db):
        db.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
        assert db.table_names() == ("Bookings", "Available")
        assert db.has_table("Available") and not db.has_table("Nope")

    def test_copy_independent(self, db):
        clone = db.copy()
        clone.insert("Bookings", ("Goofy", 1, "1B"))
        assert len(db.table("Bookings")) == 1
        assert len(clone.table("Bookings")) == 2
