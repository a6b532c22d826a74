"""The five workloads.

Each ``run_round`` builds a fresh database from generated inputs, times
the set-up, runs the measured region (closed loop: a connection sends
its next request only after the previous reply), checks the outputs and
times cold restarts from a copy of the log.  A round uses only public
names of ``repro``; the quantum workloads share the pinned
``QuantumConfig`` and the durable ones the pinned flush policy.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Sequence

from bench import generator as gen
from bench.reference import Sampler, slowdown
from bench.stats import MIN_SAMPLES_BEYOND
from bench.settings import (
    BATCH_SIZE,
    CHECKPOINT_WAL_RECORDS,
    CONNECTIONS,
    EXTRA_SEAT,
    OUT_DIR,
    RECOVERIES_PER_ROUND,
    SEATS_PER_FLIGHT,
    STORE_TXNS_PER_CHECKPOINT,
    durability_config,
    quantum_config,
)


@dataclass
class Round:
    """Everything one round measured and checked."""

    setup_s: float = 0.0
    measure_s: float = 0.0
    cpu_s: float = 0.0
    #: Operation kind -> latencies in seconds (request sent -> reply).
    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: Operations of the measured region; the first commit after each
    #: restart is counted apart so that it does not inflate ``ops_per_s``.
    attempted: int = 0
    failed: int = 0
    restarts_attempted: int = 0
    restarts_failed: int = 0
    recover_s: list[float] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    #: Counter deltas over the measured region, and the final report.
    delta: dict[str, float] = field(default_factory=dict)
    final: dict[str, Any] = field(default_factory=dict)
    #: Round-level facts: coordinated_pct, disk/live/appended bytes.
    facts: dict[str, float] = field(default_factory=dict)
    #: Phase ("setup", "measure", "recover") -> how many times slower than
    #: on the quiet reference box the reference work ran in that region.
    slowdown: dict[str, float] = field(default_factory=dict)

    def record(self, kind: str, seconds: float, ok: bool, count: int = 1) -> None:
        self.latencies.setdefault(kind, []).append(seconds)
        self.attempted += count
        if not ok:
            self.failed += count

    def samples(self, kinds: Sequence[str]) -> list[float]:
        """The latencies of the operation kinds ``kinds`` together."""
        return [s for kind in kinds for s in self.latencies.get(kind, ())]

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.violations.append(message)

    def count(self, before: dict[str, Any], after: dict[str, Any]) -> None:
        self.final = after
        self.delta = {
            key: value - before.get(key, 0)
            for key, value in after.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }


class _Region:
    """Times one region of a round and names it for the span recorder.

    A region that reports a time (every phase but "after") also samples
    the reference work: a burst before its clock starts and one after it
    stops, and in between whenever the region calls ``reference.tick``.
    Its slowdown lands in ``rnd.slowdown`` under the phase.
    """

    def __init__(self, rnd: Round, recorder, phase: str) -> None:
        self.rnd, self.recorder, self.phase = rnd, recorder, phase
        self.reference = Sampler() if phase != "after" else None

    def __enter__(self) -> "_Region":
        if self.recorder is not None:
            self.recorder.phase = self.phase
        if self.reference is not None:
            self.reference.burst()
        self.cpu = time.process_time()
        self.wall = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self.wall
        self.cpu = time.process_time() - self.cpu
        if self.reference is not None:
            self.reference.burst()
            self.rnd.slowdown[self.phase] = slowdown(self.reference.samples)


# -- shared building blocks -------------------------------------------------


def flight_schema():
    """An empty flight database, as the recovery paths expect it."""
    from repro import Database
    from repro.core.recovery import PendingTransactionStore
    from repro.workloads.flights import create_flight_tables

    database = Database()
    create_flight_tables(database)
    PendingTransactionStore(database)
    return database


def build_flights(flights: Sequence[int], *, lanes: bool = False):
    """A quantum database with ``flights`` loaded and fully available."""
    from repro import Database, QuantumDatabase
    from repro.workloads.flights import create_flight_tables

    database = Database()
    create_flight_tables(database)
    qdb = QuantumDatabase(database, quantum_config(lanes=lanes))
    qdb.load_rows("Available", gen.available_rows(flights))
    qdb.load_rows("Adjacent", gen.adjacent_rows(flights))
    return qdb


def scratch_directory() -> str:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix="wal-", dir=OUT_DIR)


def directory_bytes(directory: str) -> int:
    """Bytes on disk; a running compactor may remove a file mid-walk."""
    total = 0
    for root, _, names in os.walk(directory):
        for name in names:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except FileNotFoundError:
                pass
    return total


def live_bytes(snapshot: dict[str, list[tuple]]) -> int:
    """JSON-encoded size of the user rows (the pending table is system data)."""
    from repro.core.recovery import PENDING_TABLE

    return sum(
        len(json.dumps(row))
        for table, rows in snapshot.items()
        if table != PENDING_TABLE
        for row in rows
    )


def normalized(snapshot: dict[str, list[tuple]]) -> dict[str, list[tuple]]:
    return {table: sorted(rows) for table, rows in snapshot.items()}


def quiesce(engine) -> None:
    """Stop the compactor thread and finish whatever it had left."""
    engine.stop_compactor()
    engine.compact_now()


def copy_log(directory: str, live: str) -> list[str]:
    """One private copy of the live log per timed restart."""
    copies = []
    for index in range(RECOVERIES_PER_ROUND):
        copy = os.path.join(directory, f"copy{index}")
        shutil.copytree(live, copy)
        copies.append(copy)
    return copies


async def drive(
    rnd: Round,
    streams: Sequence[Sequence[gen.Op]],
    handles: Sequence[Any],
    perform: Callable[[Any, gen.Op, int, dict], Awaitable[bool]],
    reference: Sampler,
) -> None:
    """Run each stream on its handle, closed loop, all from this thread.

    ``perform`` gets the operation, its position in the stream and a
    per-stream dictionary in which bookings leave their transaction id
    under their position (check-ins refer to it).  Between two operations
    the reference work is sampled when it is due.
    """
    from repro import ReproError

    async def one(handle, stream) -> None:
        ids: dict[int, int] = {}
        for position, op in enumerate(stream):
            start = time.perf_counter()
            try:
                ok = await perform(handle, op, position, ids)
            except ReproError as exc:
                ok = False
                rnd.violations.append(f"{op.kind} raised {exc!r}")
            end = time.perf_counter()
            rnd.record(op.kind, end - start, ok)
            reference.tick(end)

    await asyncio.gather(*(one(h, s) for h, s in zip(handles, streams)))


async def serve_tcp(qdb, server_config=None):
    """Start the network server in this loop and connect the clients."""
    from repro import NetClient, NetworkServer

    net = await NetworkServer(qdb, server_config=server_config).start()
    clients = [
        await NetClient.connect("127.0.0.1", net.port) for _ in range(CONNECTIONS)
    ]
    return net, clients


def check_flights(rnd: Round, database, booked: Sequence[int], idle: Sequence[int]):
    """No seat double-booked, every passenger seated once, seats conserved."""
    seats = set(gen.seat_labels())
    bookings: dict[int, list[tuple]] = {}
    for name, flight, seat in database.table("Bookings").snapshot():
        bookings.setdefault(flight, []).append((name, seat))
    available: dict[int, int] = {}
    for flight, _seat in database.table("Available").snapshot():
        available[flight] = available.get(flight, 0) + 1
    full = set(booked)
    for flight in (*booked, *idle):
        rows = bookings.get(flight, [])
        want = SEATS_PER_FLIGHT if flight in full else 0
        rnd.expect(
            len(rows) + available.get(flight, 0) == SEATS_PER_FLIGHT,
            f"flight {flight}: bookings + available != seats loaded",
        )
        rnd.expect(len(rows) == want, f"flight {flight}: {len(rows)} bookings")
        rnd.expect(
            len({seat for _, seat in rows}) == len(rows)
            and all(seat in seats for _, seat in rows),
            f"flight {flight}: a seat is double-booked or unknown",
        )
        names = {gen.passenger(flight, i) for i in range(want)}
        rnd.expect(
            {name for name, _ in rows} == names,
            f"flight {flight}: passengers do not hold exactly one seat each",
        )


def check_quantum_end(rnd: Round, qdb) -> None:
    """After the final ``ground_all``: nothing pending; note coordination."""
    rnd.expect(qdb.pending_count == 0, "transactions pending after ground_all")
    rnd.facts["coordinated_pct"] = qdb.coordination_report()["percentage"]


def restart_quantum(rnd: Round, reopen: Callable[[], Any], probe, live) -> None:
    """Time one cold restart up to its first accepted commit, then compare
    the recovered tables and pending set with the live state at copy time."""
    from repro import QuantumDatabase

    snapshot, pending = live
    gc.collect()  # so that no restart pays for garbage it did not make
    start = time.perf_counter()
    qdb = QuantumDatabase.recover(reopen(), quantum_config())
    recovered = time.perf_counter()
    same = normalized(qdb.database.snapshot()) == snapshot
    same_pending = qdb.pending_store.pending_ids() == pending
    checked = time.perf_counter()
    result = qdb.execute(probe.text, client=probe.client, partner=probe.partner)
    rnd.recover_s.append(time.perf_counter() - checked + recovered - start)
    rnd.restarts_attempted += 1
    rnd.restarts_failed += not result.committed
    rnd.expect(same, "recovered tables differ from the live state")
    rnd.expect(same_pending, "recovered pending set differs from the live one")
    rnd.expect(result.committed, "first commit after restart was refused")
    qdb.close()
    close = getattr(qdb.database.wal, "close", None)
    if close is not None:
        close()


def restart_from_memory(rnd: Round, qdb, probe, recorder) -> None:
    """Cold restarts of an in-memory-log workload from the dumped log."""
    from repro import WriteAheadLog
    from repro.relational import recover_database

    text = qdb.database.wal.dump()
    live = (normalized(qdb.database.snapshot()), qdb.pending_store.pending_ids())

    def reopen():
        return recover_database(flight_schema, WriteAheadLog.load(text))

    with _Region(rnd, recorder, "recover"):
        for _ in range(RECOVERIES_PER_ROUND):
            restart_quantum(rnd, reopen, probe, live)


def probe_booking(flight: int) -> gen.Booking:
    """The first commit after a restart: a booking on a never-used flight."""
    return gen.booking(gen.passenger(flight, 0), gen.passenger(flight, 1), flight)


# -- operations --------------------------------------------------------------


async def tcp_perform(client, op: gen.Op, _position: int, _ids: dict) -> bool:
    if op.kind == "book":
        b = op.booking
        result = await client.commit(b.text, client=b.client, partner=b.partner)
        return result.committed
    rows = await client.read("Bookings", [op.name, None, None])
    return rows == [{"_1": op.flight, "_2": op.seat}]


async def session_perform(session, op: gen.Op, position: int, ids: dict) -> bool:
    if op.kind == "book":
        b = op.booking
        result = await session.commit(b.text, client=b.client, partner=b.partner)
        ids[position] = result.transaction_id
        return result.committed
    if op.kind == "read":
        rows = await session.read("Bookings", [op.name, None, None])
        return len(rows) == 1 and rows[0]["_1"] == op.flight
    if op.kind == "check_in":
        record = await session.check_in(ids[op.index])
        return record is not None and "s" in record.valuation
    await session.insert("Available", (op.flight, op.seat))
    await session.delete("Available", (op.flight, op.seat))
    return True


# -- book_tcp -----------------------------------------------------------------


async def _book_tcp(seed: int, size: dict, recorder) -> Round:
    from repro import CheckpointPolicy, ServerConfig
    import repro.storage as storage

    rnd = Round()
    *flights, spare = gen.flight_numbers(size["flights"] + 1)
    streams = gen.booking_streams(seed, flights, CONNECTIONS)
    directory = scratch_directory()
    live_dir = os.path.join(directory, "live")
    try:
        with _Region(rnd, recorder, "setup") as region:
            qdb = build_flights([*flights, spare])
            config = ServerConfig(
                durability=durability_config(live_dir),
                checkpoint_policy=CheckpointPolicy(
                    max_wal_records=CHECKPOINT_WAL_RECORDS
                ),
            )
            net, clients = await serve_tcp(qdb, config)
        rnd.setup_s = region.wall
        before = net.statistics_report()
        bytes_at_start = directory_bytes(live_dir)
        with _Region(rnd, recorder, "measure") as region:
            await drive(rnd, streams, clients, tcp_perform, region.reference)
        rnd.measure_s, rnd.cpu_s = region.wall, region.cpu
        with _Region(rnd, recorder, "after"):
            engine = qdb.database.wal
            quiesce(engine)
            rnd.count(before, net.statistics_report())
            snapshot = normalized(qdb.database.snapshot())
            disk = directory_bytes(live_dir)
            rnd.facts.update(
                disk_bytes=disk,
                live_bytes=live_bytes(snapshot),
                appended_bytes=disk
                + rnd.delta["durability.bytes_reclaimed"]
                - bytes_at_start,
            )
            # The engine is abandoned un-closed: every acknowledged commit
            # was fsynced before its reply, so the copy must hold them all.
            live = (snapshot, qdb.pending_store.pending_ids())
            copies = copy_log(directory, live_dir)
            await net.server.ground_all()
            check_quantum_end(rnd, qdb)
            check_flights(rnd, qdb.database, flights, [spare])
            for client in clients:
                await client.close()
            await net.drain()
            engine.close()
        with _Region(rnd, recorder, "recover"):
            for copy in copies:
                restart_quantum(
                    rnd,
                    lambda: storage.recover(
                        copy, flight_schema, durability_config(copy)
                    ),
                    probe_booking(spare),
                    live,
                )
    finally:
        # After an exception the engine may still be open and writing.
        shutil.rmtree(directory, ignore_errors=True)
    return rnd


def book_tcp(seed: int, size: dict, recorder=None) -> Round:
    return asyncio.run(_book_tcp(seed, size, recorder))


# -- book_batch -----------------------------------------------------------------


def book_batch(seed: int, size: dict, recorder=None) -> Round:
    from repro import parse_transaction

    rnd = Round()
    *flights, spare = gen.flight_numbers(size["flights"] + 1)
    (stream,) = gen.booking_streams(seed, flights, 1)
    batches = [
        [op.booking for op in stream[start : start + BATCH_SIZE]]
        for start in range(0, len(stream), BATCH_SIZE)
    ]
    with _Region(rnd, recorder, "setup") as region:
        qdb = build_flights([*flights, spare], lanes=True)
    rnd.setup_s = region.wall
    before = qdb.statistics_report()
    with _Region(rnd, recorder, "measure") as region:
        for batch in batches:
            start = time.perf_counter()
            results = qdb.commit_batch(
                [
                    parse_transaction(b.text, client=b.client, partner=b.partner)
                    for b in batch
                ]
            )
            elapsed = time.perf_counter() - start
            refused = sum(not result.committed for result in results)
            rnd.record("batch", elapsed, True, count=len(batch))
            rnd.failed += refused
            region.reference.tick(time.perf_counter())
    rnd.measure_s, rnd.cpu_s = region.wall, region.cpu
    with _Region(rnd, recorder, "after"):
        rnd.count(before, qdb.statistics_report())
    restart_from_memory(rnd, qdb, probe_booking(spare), recorder)
    with _Region(rnd, recorder, "after"):
        qdb.ground_all()
        check_quantum_end(rnd, qdb)
        check_flights(rnd, qdb.database, flights, [spare])
        qdb.close()
    return rnd


# -- mixed_session ------------------------------------------------------------


async def _mixed_session(seed: int, size: dict, recorder) -> Round:
    from repro import QuantumServer

    rnd = Round()
    *flights, spare = gen.flight_numbers(size["flights"] + 1)
    streams = gen.mixed_streams(seed, flights, CONNECTIONS)
    with _Region(rnd, recorder, "setup") as region:
        qdb = build_flights([*flights, spare])
        server = await QuantumServer(qdb).start()
        sessions = [
            server.session(client=f"connection{i}") for i in range(CONNECTIONS)
        ]
    rnd.setup_s = region.wall
    before = server.statistics_report()
    with _Region(rnd, recorder, "measure") as region:
        await drive(rnd, streams, sessions, session_perform, region.reference)
    rnd.measure_s, rnd.cpu_s = region.wall, region.cpu
    with _Region(rnd, recorder, "after"):
        rnd.count(before, server.statistics_report())
    restart_from_memory(rnd, qdb, probe_booking(spare), recorder)
    with _Region(rnd, recorder, "after"):
        await server.ground_all()
        check_quantum_end(rnd, qdb)
        check_flights(rnd, qdb.database, flights, [spare])
        extra = [
            row
            for row in qdb.database.table("Available").snapshot()
            if row[1] == EXTRA_SEAT
        ]
        rnd.expect(not extra, "a blind write left its extra seat behind")
        await server.shutdown()
    return rnd


def mixed_session(seed: int, size: dict, recorder=None) -> Round:
    return asyncio.run(_mixed_session(seed, size, recorder))


# -- lookup_tcp ---------------------------------------------------------------


async def _lookup_tcp(seed: int, size: dict, recorder) -> Round:
    rnd = Round()
    numbers = gen.flight_numbers(size["booked_flights"] + size["open_flights"] + 1)
    booked = numbers[: size["booked_flights"]]
    *open_flights, spare = numbers[size["booked_flights"] :]
    booked_rows = gen.booked_rows(seed, booked)
    streams = gen.lookup_streams(seed, booked_rows, open_flights, CONNECTIONS)
    with _Region(rnd, recorder, "setup") as region:
        qdb = build_flights([*open_flights, spare])
        qdb.load_rows("Bookings", booked_rows)
        net, clients = await serve_tcp(qdb)
    rnd.setup_s = region.wall
    before = net.statistics_report()
    with _Region(rnd, recorder, "measure") as region:
        await drive(rnd, streams, clients, tcp_perform, region.reference)
    rnd.measure_s, rnd.cpu_s = region.wall, region.cpu
    with _Region(rnd, recorder, "after"):
        rnd.count(before, net.statistics_report())
    restart_from_memory(rnd, qdb, probe_booking(spare), recorder)
    with _Region(rnd, recorder, "after"):
        await net.server.ground_all()
        check_quantum_end(rnd, qdb)
        check_flights(rnd, qdb.database, [*booked, *open_flights], [spare])
        for client in clients:
            await client.close()
        await net.drain()
    return rnd


def lookup_tcp(seed: int, size: dict, recorder=None) -> Round:
    return asyncio.run(_lookup_tcp(seed, size, recorder))


# -- store_churn --------------------------------------------------------------


def durability_report(engine) -> dict[str, Any]:
    """The engine's counters under the keys ``statistics_report()`` uses."""
    return {
        f"durability.{key}": value
        for key, value in engine.durability_statistics().items()
    }


def store_schema():
    from repro import Database

    database = Database()
    database.create_table("Rows", ["id", "payload"], key=["id"])
    return database


def store_churn(seed: int, size: dict, recorder=None) -> Round:
    from repro import SegmentedWriteAheadLog
    import repro.storage as storage

    rnd = Round()
    rows = gen.store_rows(seed, 0, size["rows"])
    transactions = gen.store_transactions(seed, rows, size["transactions"])
    directory = scratch_directory()
    live_dir = os.path.join(directory, "live")
    try:
        with _Region(rnd, recorder, "setup") as region:
            database = store_schema()
            engine = SegmentedWriteAheadLog(live_dir, durability_config(live_dir))
            engine.adopt(database.wal)
            database.wal = engine
            engine.start_compactor()
            with database.begin() as txn:
                for row in rows:
                    txn.insert("Rows", row)
            database.checkpoint()
        rnd.setup_s = region.wall
        before = durability_report(engine)
        bytes_at_start = directory_bytes(live_dir)
        with _Region(rnd, recorder, "measure") as region:
            for index, (deletes, inserts) in enumerate(transactions, start=1):
                start = time.perf_counter()
                with database.begin() as txn:
                    for row in deletes:
                        txn.delete("Rows", row)
                    for row in inserts:
                        txn.insert("Rows", row)
                # The checkpoint is charged to the transaction that
                # triggers it: in a server the next request waits for it.
                if index % STORE_TXNS_PER_CHECKPOINT == 0:
                    database.checkpoint()
                end = time.perf_counter()
                rnd.record("txn", end - start, True)
                region.reference.tick(end)
        rnd.measure_s, rnd.cpu_s = region.wall, region.cpu
        with _Region(rnd, recorder, "after"):
            quiesce(engine)
            rnd.count(before, durability_report(engine))
            snapshot = normalized(database.snapshot())
            disk = directory_bytes(live_dir)
            rnd.facts.update(
                disk_bytes=disk,
                live_bytes=live_bytes(snapshot),
                appended_bytes=disk
                + rnd.delta["durability.bytes_reclaimed"]
                - bytes_at_start,
            )
            churned = len(transactions) * len(transactions[0][0])
            expected = sorted(
                rows[churned:] + [r for _, ins in transactions for r in ins]
            )
            rnd.expect(
                snapshot == {"Rows": expected},
                "the store does not hold exactly the rows it should",
            )
            copies = copy_log(directory, live_dir)
            engine.close()
        probe = gen.store_rows(seed, -1, 1)[0]
        with _Region(rnd, recorder, "recover"):
            for copy in copies:
                gc.collect()  # as in restart_quantum
                start = time.perf_counter()
                recovered = storage.recover(
                    copy, store_schema, durability_config(copy)
                )
                elapsed = time.perf_counter() - start
                same = normalized(recovered.snapshot()) == snapshot
                start = time.perf_counter()
                with recovered.begin() as txn:
                    txn.insert("Rows", probe)
                rnd.recover_s.append(elapsed + time.perf_counter() - start)
                rnd.restarts_attempted += 1
                rnd.expect(same, "recovered rows differ from the live state")
                recovered.wal.close()
    finally:
        # After an exception the engine may still be open and writing.
        shutil.rmtree(directory, ignore_errors=True)
    return rnd


# -- the registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    run_round: Callable[..., Round]
    #: The operation kinds ``op_p50_ms``/``op_tail_ms`` report, and the
    #: percentile of the tail (a run has ten samples or more beyond it).
    primary: tuple[str, ...]
    tail_percentile: int
    why: str
    #: Take the tail percentile over the whole run's samples, not per
    #: round (for a workload whose rounds have too few samples).
    pooled_tail: bool = False

    @property
    def min_samples(self) -> int:
        """Samples a run needs for ten to lie beyond the tail percentile."""
        return -(-MIN_SAMPLES_BEYOND * 100 // (100 - self.tail_percentile))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "book_tcp", book_tcp, ("book",), 95,
            "Entangled bookings as single commits over loopback TCP into the "
            "durable segmented engine, then crash recovery: every layer "
            "participates and admission dominates.",
        ),
        Workload(
            "book_batch", book_batch, ("batch",), 90,
            "The same bookings through embedded commit_batch with admission "
            "lanes and an in-memory log: bypasses wire and storage, exercises "
            "the lane ladder and batch composition.",
            pooled_tail=True,
        ),
        Workload(
            "mixed_session", mixed_session, ("read", "check_in"), 95,
            "Bookings mixed with collapse reads, check-ins and blind writes over "
            "in-process sessions: reads force grounding and writes pay "
            "witness-footprint validation.",
        ),
        Workload(
            "lookup_tcp", lookup_tcp, ("lookup",), 99,
            "Point lookups over TCP with sparse live bookings: codec, net and "
            "service do most of the work, admission almost none; p99 shows "
            "head-of-line blocking behind the writer.",
        ),
        Workload(
            "store_churn", store_churn, ("txn",), 99,
            "The relational store on the durable engine without the quantum "
            "layer: 10-row replace transactions with delta checkpoints, "
            "compaction and cold replay.",
        ),
    )
}
