"""Crash atomicity of the quantum layer's own protocols.

The storage engine has crash-point suites of its own
(``tests/storage/test_crash_recovery.py``); this one cuts *above* it.  The
paper's recovery paragraph makes two pairs of events one — a pending
transaction is in the pending table "before the transaction commits", and
"when a pending resource transaction is grounded and executed, it is
removed from the pending transactions table" — and a writer operation
reaches the log as one store transaction so that no crash can separate
either pair:

* **The probe** (``TestGroundingIsOneStoreTransaction``): the store fails
  at every record a ``check_in``'s grounding appends.  Whatever survived is
  recovered and grounded; the passenger holds exactly one seat.  Before the
  pending-row deletion joined the grounding's transaction, a failure after
  the grounding's COMMIT replayed a booking *and* its pending row and the
  passenger was booked twice.

* **The cut suite** (``TestEveryCommitBoundary``): seeded mixed streams
  (bookings, blind writes, collapse reads, check-ins) are driven through
  ``execute`` and through ``commit_batch`` in runs, unsharded and on two
  shards; the dumped log is cut at *every* COMMIT-record boundary, recovered
  and grounded.  At every cut the recovered store and pending set are the
  live ones of the operation that wrote that COMMIT (so an operation is one
  transaction, and no acknowledged commit is lost), and after
  ``ground_all`` every committed client holds one seat, no booked seat is
  still available and the pending table is empty.  Two seeds repeat it on
  the segmented engine, copying the directory at every acknowledgement and
  abandoning the engine un-closed.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass

import pytest

from repro import QuantumConfig, QuantumDatabase, WriteAheadLog
from repro.core.recovery import PENDING_TABLE, PendingTransactionStore
from repro.errors import DurabilityError, ReproError
from repro.relational import Database, recover_database
from repro.relational.wal import LogRecordType
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog, recover

from tests.conftest import first_frames, make_tiny_flight_db
from tests.test_properties_admission import (
    FLIGHTS,
    Op,
    booking_text,
    generate_stream,
    seat_database,
)

SEEDS = range(8)
SEGMENTED_SEEDS = (0, 1)


# -- the ROADMAP probe ---------------------------------------------------------


def tiny_schema() -> Database:
    """The tiny flight database's tables, empty (the log refills them)."""
    database = make_tiny_flight_db(seats=0)
    PendingTransactionStore(database)
    return database


def fail_appends_from(wal: WriteAheadLog, survivors: int) -> None:
    """Let ``survivors`` more records reach the log, then fail every append."""
    real_append = wal.append
    budget = [survivors]

    def append(*args, **kwargs):
        if budget[0] <= 0:
            raise DurabilityError("injected store failure")
        budget[0] -= 1
        return real_append(*args, **kwargs)

    wal.append = append  # type: ignore[method-assign]


class TestGroundingIsOneStoreTransaction:
    #: BEGIN, -Available, +Bookings, -pending row, COMMIT.
    GROUNDING_RECORDS = 5

    @pytest.mark.parametrize("survivors", range(GROUNDING_RECORDS + 1))
    def test_store_failure_during_check_in_books_one_seat(self, survivors):
        qdb = QuantumDatabase(make_tiny_flight_db(seats=3))
        booked = {}
        for name in ("Goofy", "Mickey"):
            result = qdb.execute(
                f"-Available(123, ?s), +Bookings('{name}', 123, ?s) "
                ":-1 Available(123, ?s)"
            )
            assert result.committed and result.pending
            booked[name] = result.transaction_id
        wal = qdb.database.wal
        before = len(wal)
        fail_appends_from(wal, survivors)
        if survivors < self.GROUNDING_RECORDS:
            with pytest.raises(DurabilityError):
                qdb.check_in(booked["Goofy"])
        else:
            assert qdb.check_in(booked["Goofy"]) is not None
        assert len(wal) == before + survivors

        # The crash: only the log survives.
        recovered = QuantumDatabase.recover(
            recover_database(tiny_schema, WriteAheadLog.load(wal.dump()))
        )
        grounded_before_crash = survivors == self.GROUNDING_RECORDS
        assert recovered.pending_count == (1 if grounded_before_crash else 2)
        recovered.ground_all()
        bookings = recovered.table("Bookings").snapshot()
        assert sorted(name for name, _f, _s in bookings) == ["Goofy", "Mickey"]
        assert len({seat for _n, _f, seat in bookings}) == 2
        assert len(recovered.table("Available")) == 1
        assert not recovered.pending_store.pending_ids()

    def test_a_grounding_is_one_commit_record(self):
        qdb = QuantumDatabase(make_tiny_flight_db(seats=3))
        result = qdb.execute(
            "-Available(123, ?s), +Bookings('Goofy', 123, ?s) :-1 Available(123, ?s)"
        )
        before = len(qdb.database.wal)
        qdb.check_in(result.transaction_id)
        written = qdb.database.wal.records()[before:]
        assert [record.record_type for record in written] == [
            LogRecordType.BEGIN,
            LogRecordType.DELETE,
            LogRecordType.INSERT,
            LogRecordType.DELETE,
            LogRecordType.COMMIT,
        ]
        assert written[3].table == PENDING_TABLE
        assert len({record.transaction_id for record in written}) == 1


# -- the cut suite --------------------------------------------------------------


def seat_schema() -> Database:
    database = seat_database(0)  # the tables without a seat
    PendingTransactionStore(database)
    return database


def image(database: Database) -> dict[str, list[tuple]]:
    return {name: sorted(rows) for name, rows in database.snapshot().items()}


@dataclass
class Acknowledged:
    """The live state right after one operation returned to its caller."""

    image: dict[str, list[tuple]]
    pending_ids: frozenset[int]
    committed: tuple[str, ...]  # clients whose CommitResult has been returned


def operations(ops: list[Op], run: int) -> list[list[Op]]:
    """Group the stream into operations: bookings in runs of up to ``run``."""
    grouped: list[list[Op]] = []
    for op in ops:
        if (
            op.kind == "book"
            and run > 1
            and grouped
            and grouped[-1][0].kind == "book"
            and len(grouped[-1]) < run
        ):
            grouped[-1].append(op)
        else:
            grouped.append([op])
    return grouped


def drive(qdb: QuantumDatabase, ops: list[Op], run: int, after_operation) -> None:
    """Run the stream, calling ``after_operation(committed)`` after each one."""
    committed: list[str] = []
    booking_ids: list[int] = []
    for group in operations(ops, run):
        op = group[0]
        if op.kind == "book":
            if run == 1:
                results = [qdb.execute(booking_text(op))]
            else:
                results = qdb.commit_batch([booking_text(each) for each in group])
            for each, result in zip(group, results):
                if result.committed:
                    committed.append(each.client)
                    booking_ids.append(result.transaction_id)
        elif op.kind in ("insert", "delete"):
            try:
                if op.kind == "insert":
                    qdb.insert("Available", (op.flight, op.seat))
                else:
                    qdb.delete("Available", (op.flight, op.seat))
            except ReproError:
                pass
        elif op.kind == "read":
            qdb.read("Bookings", [None, op.flight, None])
        elif booking_ids:  # check_in
            qdb.check_in(booking_ids[op.target % len(booking_ids)])
        after_operation(tuple(committed))


def assert_recovers_to(database: Database, live: Acknowledged) -> None:
    """``database`` was recovered from a cut right after ``live``."""
    assert image(database) == live.image
    recovered = QuantumDatabase.recover(database)
    assert recovered.pending_store.pending_ids() == live.pending_ids
    assert {
        entry.transaction_id for entry in recovered.state.pending_transactions()
    } == live.pending_ids
    recovered.ground_all()
    assert recovered.pending_count == 0
    assert not recovered.pending_store.pending_ids()
    bookings = recovered.table("Bookings").snapshot()
    # Every acknowledged commit holds exactly one seat, nobody else does.
    assert sorted(name for name, _f, _s in bookings) == sorted(live.committed)
    available = set(recovered.table("Available").snapshot())
    assert not available & {(flight, seat) for _n, flight, seat in bookings}
    assert {flight for _n, flight, _s in bookings} <= set(FLIGHTS)


MODES = {
    "execute": (1, QuantumConfig()),
    "runs-of-2": (2, QuantumConfig()),
    "runs-of-5": (5, QuantumConfig()),
    "sharded-runs-of-5": (5, QuantumConfig(shards=2)),
}


class TestEveryCommitBoundary:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_in_memory_log_cut_at_every_commit(self, seed, mode):
        run, config = MODES[mode]
        seats_per_flight, ops = generate_stream(seed)
        qdb = QuantumDatabase(seat_database(seats_per_flight), config)
        wal = qdb.database.wal
        acknowledged: dict[int, Acknowledged] = {}

        def note(committed: tuple[str, ...]) -> None:
            # Keyed by the log length: where a crash right now would cut.
            acknowledged[len(wal)] = Acknowledged(
                image(qdb.database),
                qdb.pending_store.pending_ids(),
                committed,
            )

        note(())  # the loaded seat map
        loaded = len(wal)
        try:
            drive(qdb, ops, run, note)
        finally:
            qdb.close()
        records = wal.records()
        cuts = [
            index + 1
            for index, record in enumerate(records)
            if record.record_type is LogRecordType.COMMIT and index + 1 >= loaded
        ]
        assert len(cuts) > 3
        dump = wal.dump()
        for cut in cuts:
            # One store transaction per operation: a COMMIT record is the
            # last thing an operation writes, so every cut is a state some
            # caller was handed.
            assert cut in acknowledged, f"COMMIT at {cut} is inside an operation"
            survivor = WriteAheadLog.load(first_frames(dump, cut))
            assert_recovers_to(
                recover_database(seat_schema, survivor), acknowledged[cut]
            )

    @pytest.mark.parametrize("seed", SEGMENTED_SEEDS)
    def test_segmented_directory_copied_at_every_acknowledgement(
        self, tmp_path, seed
    ):
        seats_per_flight, ops = generate_stream(seed)
        database = seat_database(seats_per_flight)
        live_dir = tmp_path / "live"
        config = DurabilityConfig(
            mode="segmented",
            directory=str(live_dir),
            segment_max_records=16,
            base_interval=2,
        )
        engine = SegmentedWriteAheadLog(live_dir, config)
        engine.adopt(database.wal)
        database.wal = engine
        qdb = QuantumDatabase(database)
        copies: list[tuple[str, Acknowledged]] = []

        def crash_copy(committed: tuple[str, ...]) -> None:
            copy = str(tmp_path / f"crash{len(copies)}")
            shutil.copytree(live_dir, copy)
            copies.append(
                (
                    copy,
                    Acknowledged(
                        image(qdb.database),
                        qdb.pending_store.pending_ids(),
                        committed,
                    ),
                )
            )
            if len(copies) % 5 == 0:
                qdb.checkpoint()  # the lineage carries the pending table too

        try:
            drive(qdb, ops, 2, crash_copy)
        finally:
            # Every copy was taken from an open engine, as a crashed
            # process leaves it; closing now only returns the handles.
            engine.close()
        assert len(copies) > 10
        for copy, live in copies:
            recovered = recover(copy, seat_schema)
            try:
                assert_recovers_to(recovered, live)
            finally:
                recovered.wal.close()
