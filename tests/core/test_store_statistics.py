"""``store.commits`` / ``store.aborts`` / ``store.records``: the contract.

One store transaction per writer operation, by count.  The counters are
incremented where ``Transaction.commit`` / ``abort`` run and surface through
``statistics_report()`` (and therefore the wire's ``stats`` opcode), so the
store commits behind a booking can be read off a running server.  On a
fixed stream: exactly one commit per ``execute``, per server commit run,
per collapse read that grounds and per ``ground_all``; none per rejected
admission, per lookup read and per ``check_in`` of an already grounded id;
and the records of a committing operation are BEGIN, one per row written,
COMMIT.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import NetClient, NetworkServer, QuantumConfig, QuantumDatabase
from repro.errors import WriteRejected
from repro.relational.wal import LogRecordType
from repro.server import QuantumServer
from repro.workloads.flights import FlightDatabaseSpec, build_flight_database

from tests.conftest import make_tiny_flight_db

SPEC = FlightDatabaseSpec(num_flights=2, rows_per_flight=2)  # 6 seats each
FIRST, SECOND = SPEC.first_flight_number, SPEC.first_flight_number + 1
ROW_TYPES = (LogRecordType.INSERT, LogRecordType.DELETE)


def booking(name: str, flight: int) -> str:
    return (
        f"-Available({flight}, ?s), +Bookings('{name}', {flight}, ?s) "
        f":-1 Available({flight}, ?s)"
    )


class Ledger:
    """Deltas of the ``store.*`` counters and of the log, per operation."""

    def __init__(self, qdb: QuantumDatabase) -> None:
        self.qdb = qdb
        self.mark()

    def mark(self) -> None:
        report = self.qdb.statistics_report()
        self.commits = report["store.commits"]
        self.aborts = report["store.aborts"]
        self.records = report["store.records"]
        self.logged = len(self.qdb.database.wal)

    def expect(self, *, commits: int, rows: int = 0, aborts: int = 0) -> None:
        """The operation since the last mark ended ``commits`` + ``aborts``
        transactions that wrote ``rows`` rows between them."""
        report = self.qdb.statistics_report()
        written = self.qdb.database.wal.records()[self.logged :]
        assert report["store.commits"] - self.commits == commits
        assert report["store.aborts"] - self.aborts == aborts
        assert sum(r.record_type in ROW_TYPES for r in written) == rows
        # BEGIN + one per row + COMMIT (or ABORT), and nothing else logged.
        assert report["store.records"] - self.records == len(written)
        assert len(written) == (rows + 2 * (commits + aborts) if written else 0)
        self.mark()


def test_one_store_transaction_per_operation():
    qdb = QuantumDatabase(build_flight_database(SPEC), QuantumConfig(k=8))
    ledger = Ledger(qdb)

    # execute: one commit carrying the pending row.
    goofy = qdb.execute(booking("Goofy", FIRST))
    assert goofy.pending
    ledger.expect(commits=1, rows=1)
    mickey = qdb.execute(booking("Mickey", FIRST))
    ledger.expect(commits=1, rows=1)
    donald = qdb.execute(booking("Donald", SECOND))
    ledger.expect(commits=1, rows=1)

    # A lookup read unifies with no pending update: no record, no commit.
    assert qdb.read("Bookings", ["Nobody", None, None]) == []
    ledger.expect(commits=0)

    # A collapse read that grounds: -Available, +Bookings, -pending row.
    assert len(qdb.read("Bookings", ["Goofy", None, None])) == 1
    ledger.expect(commits=1, rows=3)
    # The same read again finds it grounded.
    assert len(qdb.read("Bookings", ["Goofy", None, None])) == 1
    ledger.expect(commits=0)

    # check_in: one commit while pending, none once grounded.
    assert qdb.check_in(mickey.transaction_id) is not None
    ledger.expect(commits=1, rows=3)
    assert qdb.check_in(mickey.transaction_id) is not None
    assert qdb.check_in(goofy.transaction_id) is not None
    ledger.expect(commits=0)

    # commit_batch: one commit for the whole batch.
    results = qdb.commit_batch(
        [booking("Minnie", FIRST), booking("Daisy", SECOND), booking("Pluto", FIRST)]
    )
    assert all(result.pending for result in results)
    ledger.expect(commits=1, rows=3)

    # ground_all: four pending transactions in two partitions, one commit.
    assert qdb.pending_count == 4
    assert len(qdb.ground_all()) == 4
    ledger.expect(commits=1, rows=12)
    assert qdb.ground_all() == []
    ledger.expect(commits=0)
    assert donald.transaction_id in qdb.state.grounded_results

    # Blind writes keep their own transaction: they alone need abort.
    qdb.insert("Available", (FIRST, "9Z"))
    ledger.expect(commits=1, rows=1)
    qdb.delete("Available", (FIRST, "9Z"))
    ledger.expect(commits=1, rows=1)


def test_rejections_write_nothing():
    qdb = QuantumDatabase(make_tiny_flight_db(seats=2))
    ledger = Ledger(qdb)
    assert qdb.execute(booking("a", 123)).committed
    assert qdb.execute(booking("b", 123)).committed
    ledger.expect(commits=2, rows=2)
    rejected = qdb.execute(booking("c", 123))
    assert not rejected.committed
    ledger.expect(commits=0)
    # A batch of rejections allocates no transaction either.
    assert not any(qdb.commit_batch([booking("d", 123), booking("e", 123)]))
    ledger.expect(commits=0)
    # A rejected blind write is the one abort.
    with pytest.raises(WriteRejected):
        qdb.delete("Available", (123, "1A"))
    ledger.expect(commits=0, aborts=1, rows=1)


def test_clearing_the_pending_table_is_one_transaction():
    qdb = QuantumDatabase(build_flight_database(SPEC))
    qdb.commit_batch([booking(name, FIRST) for name in "abc"])
    ledger = Ledger(qdb)
    qdb.pending_store.clear()
    assert len(qdb.pending_store) == 0
    ledger.expect(commits=1, rows=3)
    qdb.pending_store.clear()
    ledger.expect(commits=0)


def test_forced_and_partner_groundings_join_the_admitting_operation():
    # k=1: admitting the second booking of a partition forces the first out.
    qdb = QuantumDatabase(make_tiny_flight_db(seats=3), QuantumConfig(k=1))
    ledger = Ledger(qdb)
    qdb.execute(booking("a", 123))
    ledger.expect(commits=1, rows=1)
    second = qdb.execute(booking("b", 123))
    assert second.committed and qdb.statistics.forced_groundings == 1
    # The forced grounding (3 rows) and the survivor's pending row: one COMMIT.
    ledger.expect(commits=1, rows=4)

    # A partner's arrival grounds the pair inside the arriving execute; the
    # arriving transaction never gets a pending row at all.
    qdb = QuantumDatabase(make_tiny_flight_db(seats=3))
    ledger = Ledger(qdb)

    def entangled(name: str, partner: str) -> str:
        return (
            f"-Available(123, ?s), +Bookings('{name}', 123, ?s) "
            f":-1 Available(123, ?s), [Bookings('{partner}', 123, ?s2)], "
            "[Adjacent(123, ?s, ?s2)]"
        )

    qdb.execute(entangled("Goofy", "Mickey"), client="Goofy", partner="Mickey")
    ledger.expect(commits=1, rows=1)
    result = qdb.execute(entangled("Mickey", "Goofy"), client="Mickey", partner="Goofy")
    assert len(result.grounded) == 2 and not result.pending
    ledger.expect(commits=1, rows=5)  # two bookings (2 rows each) + Goofy's row
    assert len(qdb.pending_store) == 0


def test_one_store_commit_per_server_commit_run_and_over_the_wire():
    async def scenario():
        qdb = QuantumDatabase(build_flight_database(SPEC), QuantumConfig(k=2))
        async with QuantumServer(qdb) as server:
            before = server.statistics_report()

            async def client(name: str) -> None:
                async with server.session(client=name) as session:
                    for index in range(4):
                        flight = FIRST if index % 2 else SECOND
                        result = await session.commit(booking(f"{name}{index}", flight))
                        assert result.committed

            await asyncio.gather(*(client(name) for name in "abc"))
            after = server.statistics_report()
        runs = after["server.commit_runs"] - before["server.commit_runs"]
        assert 0 < runs < 12  # concurrent sessions really shared runs
        assert after["state.forced_groundings"] > 0
        assert after["store.commits"] - before["store.commits"] == runs

        qdb = QuantumDatabase(build_flight_database(SPEC))
        async with NetworkServer(qdb) as net:
            wire = await NetClient.connect("127.0.0.1", net.port, client="w")
            assert (await wire.commit(booking("w", FIRST))).committed
            stats = await wire.stats()
            await wire.close()
        assert stats["store.commits"] == qdb.statistics_report()["store.commits"]
        assert stats["store.records"] >= 3 and stats["store.aborts"] == 0

    asyncio.run(asyncio.wait_for(scenario(), timeout=60))
