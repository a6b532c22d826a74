#!/usr/bin/env python
"""Profile one fixed-seed round of a repository-benchmark workload.

The repository benchmark (``bench/``) measures the program from outside;
when one of its numbers is to be moved, the first question is where a
commit spends its time.  This script answers it from one command::

    python scripts/profile_workload.py --workload book_batch
    make profile WORKLOAD=book_batch

It generates the round's inputs exactly as the benchmark does
(``bench.generator`` and the pinned sizes and configuration of
``bench.settings``; nothing under ``bench/`` is edited or run) and drives
them through an embedded ``QuantumDatabase`` twice:

1. under coarse wall-clock **phase timers** — parse (text to
   transaction), admit (routing, composition, the admission search), plan
   (serialization order plus the grounding search), apply (executing a
   plan: store writes, witnesses, recomposition) and persist (inside
   ``Transaction.commit``: the COMMIT record's append, flush and fsync) —
   followed by the search counters, the store commits, WAL records and
   fsyncs behind one booking, and a digest of the round's decisions, which
   two checkouts must agree on when a change claims to keep them;
2. under ``cProfile``.

Both passes run on one thread, through the in-process API and with
admission lanes off: lanes run admissions on their own threads, where
neither a wall clock (the threads wait for each other's interpreter lock)
nor the calling thread's profiler (it sees only the waiting) can be read
phase by phase, and inline admission runs the same code.  ``book_tcp`` is
its bookings without the wire, on the segmented engine under the
benchmark's pinned flush policy (``bench.settings.durability_config``, in a
temporary directory): each turn of its closed-loop connections is admitted
as one commit run, the way the server's writer drains it
(``service.mean_commit_run`` reads 2.0 on the benchmark).  ``mixed_session``
is its operations without the session layer, on the in-memory log it runs
on there.  ``lookup_tcp`` and ``store_churn`` spend their time in layers
this script has no phases for and are refused.

cProfile inflates call-heavy code; use the profile to find candidates and
``make pairbench`` to measure them.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import pstats
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from bench import generator as gen  # noqa: E402
from bench import settings  # noqa: E402
from repro import Database, QuantumDatabase, parse_transaction  # noqa: E402
from repro.core.quantum_state import QuantumState  # noqa: E402
from repro.relational.transaction import Transaction  # noqa: E402
from repro.storage import SegmentedWriteAheadLog  # noqa: E402
from repro.workloads.flights import create_flight_tables  # noqa: E402

WORKLOADS = ("book_batch", "book_tcp", "mixed_session")
PHASES = ("parse", "admit", "plan", "apply", "persist")


class PhaseTimers:
    """Wall-clock self time per phase (single-threaded, nesting-aware).

    A forced grounding runs inside an admission: its plan and apply time
    is charged to plan and apply, not to admit a second time; likewise a
    store commit inside an apply is charged to persist alone.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Set outside the measured region (the set-up and the clean-up run
        #: through the wrapped methods too).
        self.stopped = False
        self._nested: list[float] = []

    @contextmanager
    def phase(self, name: str):
        if self.stopped:
            yield
            return
        self._nested.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            nested = self._nested.pop()
            if self._nested:
                self._nested[-1] += elapsed
            self.seconds[name] += elapsed - nested
            self.calls[name] += 1

    def wrap(self, name: str, function):
        def timed(*args, **kwargs):
            with self.phase(name):
                return function(*args, **kwargs)

        return timed

    @contextmanager
    def installed(self):
        """Time ``QuantumState.admit`` / ``plan_grounding`` /
        ``apply_grounding`` and ``Transaction.commit``."""
        targets = {
            "admit": (QuantumState, "admit"),
            "plan": (QuantumState, "plan_grounding"),
            "apply": (QuantumState, "apply_grounding"),
            "persist": (Transaction, "commit"),
        }
        originals = {
            name: getattr(owner, attr) for name, (owner, attr) in targets.items()
        }
        for name, (owner, attr) in targets.items():
            setattr(owner, attr, self.wrap(name, originals[name]))
        try:
            yield self
        finally:
            for name, (owner, attr) in targets.items():
                setattr(owner, attr, originals[name])


def build(flights, wal_directory: str | None = None) -> QuantumDatabase:
    """The round's database; on the segmented engine when given a directory."""
    database = Database()
    create_flight_tables(database)
    qdb = QuantumDatabase(database, settings.quantum_config(lanes=False))
    qdb.load_rows("Available", gen.available_rows(flights))
    qdb.load_rows("Adjacent", gen.adjacent_rows(flights))
    if wal_directory is not None:
        engine = SegmentedWriteAheadLog(
            wal_directory, settings.durability_config(wal_directory)
        )
        engine.adopt(database.wal)
        database.wal = engine
    return qdb


def parse(booking: gen.Booking, timers: PhaseTimers | None):
    with timers.phase("parse") if timers is not None else nullcontext():
        return parse_transaction(
            booking.text, client=booking.client, partner=booking.partner
        )


def drive(workload: str, seed: int, timers: PhaseTimers | None = None):
    """One round of ``workload``: ``(operations, failed, seconds, counters)``."""
    flights = gen.flight_numbers(settings.SIZES[workload]["flights"])
    if workload == "mixed_session":
        streams = gen.mixed_streams(seed, flights, settings.CONNECTIONS)
    else:
        connections = 1 if workload == "book_batch" else settings.CONNECTIONS
        streams = gen.booking_streams(seed, flights, connections)
    # One thread stands in for the benchmark's closed-loop connections:
    # their streams are taken in turn, operation by operation.
    operations = [
        (connection, position, stream[position])
        for position in range(max(map(len, streams)))
        for connection, stream in enumerate(streams)
        if position < len(stream)
    ]
    scratch = tempfile.TemporaryDirectory() if workload == "book_tcp" else None
    if timers is not None:
        timers.stopped = True
    qdb = build(flights, scratch.name if scratch is not None else None)
    if timers is not None:
        timers.stopped = False
    failed = 0
    ids: dict[tuple[int, int], int] = {}
    logged = len(qdb.database.wal)
    fsyncs = qdb.statistics_report().get("durability.fsyncs", 0)
    start = time.perf_counter()
    try:
        if workload != "mixed_session":
            # ``book_batch`` in its batches, ``book_tcp`` in commit runs of
            # one booking per connection.
            size = settings.BATCH_SIZE if workload == "book_batch" else connections
            for first in range(0, len(operations), size):
                batch = [
                    parse(op.booking, timers)
                    for _connection, _position, op in operations[first : first + size]
                ]
                results = qdb.commit_batch(batch)
                failed += sum(not result.committed for result in results)
        else:
            for connection, position, op in operations:
                if op.kind == "book":
                    result = qdb.execute(parse(op.booking, timers))
                    ids[connection, position] = result.transaction_id
                    failed += not result.committed
                elif op.kind == "read":
                    rows = qdb.read("Bookings", [op.name, None, None])
                    failed += len(rows) != 1
                elif op.kind == "check_in":
                    failed += qdb.check_in(ids[connection, op.index]) is None
                else:
                    qdb.insert("Available", (op.flight, op.seat))
                    qdb.delete("Available", (op.flight, op.seat))
        elapsed = time.perf_counter() - start
        if timers is not None:
            timers.stopped = True
        report = qdb.statistics_report()
        report["wal.records"] = len(qdb.database.wal) - logged
        report["wal.fsyncs"] = report.get("durability.fsyncs", 0) - fsyncs
        report["decisions"] = decisions_digest(qdb)
    finally:
        qdb.close()
        if scratch is not None:
            qdb.database.wal.close()
            scratch.cleanup()
    return len(operations), failed, elapsed, report


def decisions_digest(qdb: QuantumDatabase) -> str:
    """What the round decided, as one comparable token.

    ``<summed satisfied optionals>/<hash of every grounded valuation and of
    the final tables>`` — equal on two checkouts exactly when they chose the
    same seats for the same passengers (fixed inputs make it exact).
    """
    qdb.ground_all()
    grounded = sorted(
        (
            record.transaction.client,
            sorted(record.valuation.items()),
            record.satisfied_optionals,
            record.forced,
        )
        for record in qdb.state.grounded_results.values()
    )
    tables = [
        sorted(tuple(row.values) for row in qdb.database.table(name).scan())
        for name in ("Available", "Bookings")
    ]
    digest = hashlib.sha256(repr((grounded, tables)).encode()).hexdigest()[:12]
    return f"{sum(entry[2] for entry in grounded)}/{digest}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="book_batch")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=40, help="profile rows to print")
    parser.add_argument(
        "--sort", default="cumulative", help="pstats sort key (cumulative, tottime)"
    )
    parser.add_argument("--out", help="also dump the raw profile to this file")
    args = parser.parse_args(argv)

    timers = PhaseTimers()
    with timers.installed():
        count, failed, elapsed, report = drive(args.workload, args.seed, timers)
    print(
        f"{args.workload} seed {args.seed}: {count} operations in {elapsed:.3f} s "
        f"({count / elapsed:.0f}/s), {failed} failed"
    )
    accounted = sum(timers.seconds[phase] for phase in PHASES)
    print(f"\n{'phase':8s} {'calls':>7s} {'self s':>9s} {'ms/call':>9s} {'share':>7s}")
    for phase in PHASES:
        seconds, calls = timers.seconds[phase], timers.calls[phase]
        per_call = 1000 * seconds / calls if calls else 0.0
        print(
            f"{phase:8s} {calls:7d} {seconds:9.3f} {per_call:9.3f} "
            f"{100 * seconds / elapsed:6.1f}%"
        )
    print(
        f"{'other':8s} {'':7s} {elapsed - accounted:9.3f} {'':9s} "
        f"{100 * (elapsed - accounted) / elapsed:6.1f}%   "
        "(batching, entanglement, pending rows, reads, writes)"
    )
    bookings = timers.calls["parse"]
    print(
        f"\nper booking ({bookings}): "
        f"store commits {timers.calls['persist'] / bookings:.2f}, "
        f"WAL records {report['wal.records'] / bookings:.2f}, "
        f"fsyncs {report['wal.fsyncs'] / bookings:.2f}"
    )
    print(
        "\ncounters: "
        + ", ".join(
            f"{name}={report[name]}"
            for name in (
                "search.searches",
                "search.nodes",
                "state.semantic_reorders",
                "state.forced_groundings",
                "partitions.max_partition_size",
                "partitions.max_composed_atoms",
                "decisions",
            )
        )
    )

    profiler = cProfile.Profile()
    profiler.enable()
    drive(args.workload, args.seed)
    profiler.disable()
    if args.out:
        profiler.dump_stats(args.out)
    print(f"\ncProfile, top {args.top} by {args.sort}:")
    pstats.Stats(profiler).sort_stats(args.sort).print_stats(args.top)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
