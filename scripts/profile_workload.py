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
them through an embedded ``QuantumDatabase`` twice, then restarts it:

1. under coarse wall-clock **phase timers** — parse (text to
   transaction), admit (routing, composition, the admission search), plan
   (serialization order plus the grounding search), apply (executing a
   plan: store writes, the successor composition, index retraction, delta
   notification and the successor's witness) and persist (inside
   ``Transaction.commit``: the COMMIT record's append, flush and fsync),
   with the cyclic garbage collector's passes on a ``gc`` line of their own
   (timed through ``gc.callbacks`` and taken out of whichever phase
   triggered them, with the collections per generation) — followed by
   the search counters, the store commits, WAL records and fsyncs behind
   one booking, and a digest of the round's decisions, which
   two checkouts must agree on when a change claims to keep them;
2. under ``cProfile``;
3. then one cold **restart** from a copy of the first pass's log, taken
   before its final ``ground_all`` (as the benchmark takes its crash
   copies), split the same way: engine open (reading and decoding the log)
   and replay (redoing it into the tables), with the restore of checkpoint
   records on its own line, then the quantum state's decode (pending rows
   to transactions), rebuild (routing them into partitions), solve (one
   search per partition) and ``k`` bound steps.

Both passes run on one thread, through the in-process API, under the
benchmark's pinned ``QuantumConfig``: admission is serial, so the profile
of ``book_batch`` is the code its benchmark runs.  ``book_tcp`` is
its bookings without the wire, on the segmented engine under the
benchmark's pinned flush policy (``bench.settings.durability_config``, in a
temporary directory): each turn of its closed-loop connections is admitted
as one commit run, the way the server's writer drains it
(``service.mean_commit_run`` reads 2.0 on the benchmark).  Its log starts
with a base checkpoint of the loaded flights, taken before the round, so
that its restart restores a snapshot as the benchmark's does (the server's
record-count checkpoints are not replayed here).  ``mixed_session``
is its operations without the session layer, on the in-memory log it runs
on there.  ``lookup_tcp`` and ``store_churn`` spend their time in layers
this script has no phases for and are refused.

cProfile inflates call-heavy code; use the profile to find candidates and
``make pairbench`` to measure them.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import os
import pstats
import shutil
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
from repro import (  # noqa: E402
    Database,
    QuantumDatabase,
    WriteAheadLog,
    parse_transaction,
)
from repro.core.quantum_state import QuantumState  # noqa: E402
from repro.core.recovery import PendingTransactionStore  # noqa: E402
from repro.core.solution_cache import SolutionCache  # noqa: E402
from repro.relational import recovery as relational_recovery  # noqa: E402
from repro.relational.transaction import Transaction  # noqa: E402
from repro.storage import SegmentedWriteAheadLog  # noqa: E402
from repro.workloads.flights import create_flight_tables  # noqa: E402

WORKLOADS = ("book_batch", "book_tcp", "mixed_session")
#: Printed in this order; ``gc`` is timed by :meth:`PhaseTimers._on_collection`.
PHASES = ("parse", "admit", "plan", "apply", "persist", "gc")
RESTART_PHASES = (
    "open",
    "replay",
    "checkpoint",
    "decode",
    "rebuild",
    "solve",
    "k bound",
    "gc",
)
ROUND_TARGETS = {
    "admit": (QuantumState, "admit"),
    "plan": (QuantumState, "plan_grounding"),
    "apply": (QuantumState, "apply_grounding"),
    "persist": (Transaction, "commit"),
}
#: The restart's phases but ``open``, which :func:`restart` times itself.
RESTART_TARGETS = {
    "replay": (relational_recovery, "replay_into"),
    "checkpoint": (relational_recovery, "apply_checkpoint_record"),
    "decode": (PendingTransactionStore, "restore"),
    "rebuild": (QuantumState, "rebuild"),
    "solve": (SolutionCache, "ensure"),
    "k bound": (QuantumState, "enforce_bounds"),
}


class PhaseTimers:
    """Wall-clock self time per phase (single-threaded, nesting-aware).

    A forced grounding runs inside an admission: its plan and apply time
    is charged to plan and apply, not to admit a second time; likewise a
    store commit inside an apply is charged to persist alone, and a
    garbage collection to ``gc`` alone, whichever phase's allocation
    triggered it.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Garbage collections per generation while installed and running.
        self.collections = [0] * len(gc.get_count())
        #: Set outside the measured region (the set-up and the clean-up run
        #: through the wrapped methods too).
        self.stopped = False
        self._nested: list[float] = []
        self._collection_start: float | None = None

    def _on_collection(self, event: str, info: dict) -> None:
        """``gc.callbacks`` hook: charge a collection to ``gc``, and count it
        as nested time of the phase it interrupted."""
        if event == "start":
            self._collection_start = None if self.stopped else time.perf_counter()
            return
        if self._collection_start is None:
            return
        elapsed = time.perf_counter() - self._collection_start
        self._collection_start = None
        if self._nested:
            self._nested[-1] += elapsed
        self.seconds["gc"] += elapsed
        self.collections[info["generation"]] += 1

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
    def installed(self, targets=None):
        """Time each ``phase: (owner, attribute)`` of ``targets`` — by
        default the round's: ``QuantumState.admit`` / ``plan_grounding`` /
        ``apply_grounding`` and ``Transaction.commit``."""
        targets = targets or ROUND_TARGETS
        originals = {
            name: getattr(owner, attr) for name, (owner, attr) in targets.items()
        }
        for name, (owner, attr) in targets.items():
            setattr(owner, attr, self.wrap(name, originals[name]))
        gc.callbacks.append(self._on_collection)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_collection)
            for name, (owner, attr) in targets.items():
                setattr(owner, attr, originals[name])


def build(flights, wal_directory: str | None = None) -> QuantumDatabase:
    """The round's database; on the segmented engine when given a directory
    (and then with a base checkpoint of the loaded flights)."""
    database = Database()
    create_flight_tables(database)
    qdb = QuantumDatabase(database, settings.quantum_config())
    qdb.load_rows("Available", gen.available_rows(flights))
    qdb.load_rows("Adjacent", gen.adjacent_rows(flights))
    if wal_directory is not None:
        engine = SegmentedWriteAheadLog(
            wal_directory, settings.durability_config(wal_directory)
        )
        engine.adopt(database.wal)
        database.wal = engine
        qdb.checkpoint()
    return qdb


def flight_schema() -> Database:
    """The round's tables, empty: what a restart replays its log into."""
    database = Database()
    create_flight_tables(database)
    PendingTransactionStore(database)
    return database


def copy_log(qdb: QuantumDatabase, scratch) -> str | Path:
    """The round's log as a crash would leave it: the dumped in-memory log,
    or a copy of the segment directory (the engine stays open)."""
    if scratch is None:
        return qdb.database.wal.dump()
    copy = Path(scratch.name) / "copy"
    shutil.copytree(Path(scratch.name) / "live", copy)
    return copy


def restart(log: str | Path, timers: PhaseTimers) -> dict[str, float]:
    """One cold restart from ``log`` (see :func:`copy_log`), timed by phase."""
    with timers.installed(RESTART_TARGETS):
        start = time.perf_counter()
        with timers.phase("open"):
            if isinstance(log, Path):
                directory = str(log)
                wal = SegmentedWriteAheadLog(
                    directory, settings.durability_config(directory)
                )
            else:
                wal = WriteAheadLog.load(log)
        database = relational_recovery.recover_database(flight_schema, wal)
        qdb = QuantumDatabase.recover(database, settings.quantum_config())
        seconds = time.perf_counter() - start
    try:
        return {
            "restart.seconds": seconds,
            "restart.pending": qdb.pending_count,
            "restart.partitions": len(qdb.state.partitions),
            "restart.searches": qdb.statistics_report()["search.searches"],
        }
    finally:
        qdb.close()
        if isinstance(log, Path):
            wal.close()


def parse(booking: gen.Booking, timers: PhaseTimers | None):
    with timers.phase("parse") if timers is not None else nullcontext():
        return parse_transaction(
            booking.text, client=booking.client, partner=booking.partner
        )


def drive(
    workload: str,
    seed: int,
    timers: PhaseTimers | None = None,
    restart_timers: PhaseTimers | None = None,
):
    """One round of ``workload``: ``(operations, failed, seconds, counters)``.

    With ``restart_timers`` the counters also hold a :func:`restart` from a
    copy of the round's log, taken before the final ``ground_all``.
    """
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
    qdb = build(flights, os.path.join(scratch.name, "live") if scratch else None)
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
        log = copy_log(qdb, scratch) if restart_timers is not None else None
        report["decisions"] = decisions_digest(qdb)
        if log is not None:
            report.update(restart(log, restart_timers))
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

    timers, restart_timers = PhaseTimers(), PhaseTimers()
    with timers.installed():
        count, failed, elapsed, report = drive(
            args.workload, args.seed, timers, restart_timers
        )
    print(
        f"{args.workload} seed {args.seed}: {count} operations in {elapsed:.3f} s "
        f"({count / elapsed:.0f}/s), {failed} failed"
    )
    accounted = sum(timers.seconds[phase] for phase in PHASES)
    print(f"\n{'phase':8s} {'calls':>7s} {'self s':>9s} {'ms/call':>9s} {'share':>7s}")
    for phase in PHASES:
        seconds, calls = timers.seconds[phase], timers.calls[phase]
        note = ""
        if phase == "gc":
            calls = sum(timers.collections)
            note = collections_note(timers)
        per_call = 1000 * seconds / calls if calls else 0.0
        print(
            f"{phase:8s} {calls:7d} {seconds:9.3f} {per_call:9.3f} "
            f"{100 * seconds / elapsed:6.1f}%{note}"
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
    print_restart(report, restart_timers)
    return 1 if failed else 0


def collections_note(timers: PhaseTimers) -> str:
    """The ``gc`` row's note: how many collections of each generation ran."""
    return f"   (collections by generation: {'/'.join(map(str, timers.collections))})"


def print_restart(report: dict, timers: PhaseTimers) -> None:
    seconds = report["restart.seconds"]
    print(
        f"\nrestart from a copy of the round's log: {1000 * seconds:.1f} ms, "
        f"{report['restart.pending']} pending in "
        f"{report['restart.partitions']} partitions, "
        f"{report['restart.searches']} searches"
    )
    print(f"{'phase':10s} {'ms':>8s} {'share':>7s}")
    for phase in (*RESTART_PHASES, "other"):
        spent = (
            seconds - sum(timers.seconds.values())
            if phase == "other"
            else timers.seconds[phase]
        )
        note = collections_note(timers) if phase == "gc" else ""
        print(f"{phase:10s} {1000 * spent:8.2f} {100 * spent / seconds:6.1f}%{note}")


if __name__ == "__main__":
    sys.exit(main())
