"""The partition-resident solution record: identity goldens and lifecycle.

A partition's one known grounding lives on the partition
(:attr:`~repro.core.partition.Partition.solution`) and one flow —
:meth:`~repro.core.solution_cache.SolutionCache.ensure` — verifies, extends
or re-solves it for admission, blind-write validation and peek reads.

**Goldens.**  ``solution_record_goldens.json`` was recorded at the commit
*before* the record replaced ``Partition.cached_solution``, the witness
side table and the thread-local outcome flags.  For every scenario below it
holds the decision vector (``CommitResult.method`` included where the
scenario drives commits itself), the grounded valuations, the
final store and every ``cache.*`` / ``search.*`` / ``state.*`` counter; the
suite holds the current tree to them bit for bit, under fixed and random
string hashing alike (CI runs it under three hash seeds).  Regenerate the
file only from a commit whose behaviour *is* the reference::

    PYTHONPATH=src:. python tests/core/test_solution_record.py --record

**Lifecycle.**  The record's lifetime is the partition's: the second half
asserts the cases the side table needed explicit cleanup for.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import weakref
from pathlib import Path

import pytest

from repro import (
    AdmissionSearchConfig,
    QuantumConfig,
    QuantumDatabase,
    ReadMode,
    parse_transaction,
)
from repro.core.partition import Partition
from repro.core.solution_cache import SolutionCache
from repro.errors import ReproError, WriteRejected
from repro.workloads.flights import FlightDatabaseSpec, build_flight_database

from tests.conftest import make_tiny_flight_db
from tests.test_properties_admission import run_stream

GOLDENS = Path(__file__).with_name("solution_record_goldens.json")

COUNTER_SECTIONS = ("cache.", "search.", "state.")


def counters(qdb: QuantumDatabase) -> dict[str, int]:
    return {
        name: value
        for name, value in sorted(qdb.statistics_report().items())
        if name.startswith(COUNTER_SECTIONS)
    }


def store(qdb: QuantumDatabase, tables=("Available", "Bookings")) -> dict:
    return {name: sorted(map(list, qdb.table(name).snapshot())) for name in tables}


def valuations(qdb: QuantumDatabase) -> list:
    """Grounded valuations in grounding order, keyed by what the transaction
    inserts (transaction ids are process-global, so they are no key)."""
    return [
        [
            sorted(str(statement) for statement in record.statements),
            sorted(record.valuation.items()),
            record.satisfied_optionals,
            record.forced,
        ]
        for record in qdb.state.grounded_results.values()
    ]


def fingerprint(qdb: QuantumDatabase, decisions: list) -> dict:
    """Everything the goldens pin, taken after grounding what is left."""
    qdb.ground_all()
    trace = {
        "decisions": decisions,
        "valuations": valuations(qdb),
        "store": store(qdb),
        "counters": counters(qdb),
    }
    qdb.close()
    return json.loads(json.dumps(trace))  # tuples -> lists, as stored


# -- scenario 1: the admission property streams ------------------------------

STREAM_SEEDS = range(8)


def stream_trace(seed: int, witness: bool) -> dict:
    decisions, qdb, _committed = run_stream(seed, witness=witness)
    return fingerprint(qdb, decisions)


# -- scenario 2: entangled bookings, blind writes, collapse and peek reads ----

MIXED_FLIGHTS = (1, 2, 3, 4)
MIXED_ROWS = 3  # three rows of three seats per flight


def booking(user: str, flight, partner: str | None):
    flight_term = "?f" if flight is None else flight
    text = (
        f"-Available({flight_term}, ?s), +Bookings('{user}', {flight_term}, ?s) "
        f":-1 Available({flight_term}, ?s)"
    )
    if partner is not None:
        text += (
            f", [Bookings('{partner}', {flight_term}, ?s2)], "
            f"[Adjacent({flight_term}, ?s, ?s2)]"
        )
    return parse_transaction(text, client=user, partner=partner)


def available(qdb: QuantumDatabase, flight: int) -> list[str]:
    """The flight's free seats in store order (the order searches try them,
    so the first ones are the seats a witness sits on)."""
    return [seat for f, seat in qdb.table("Available").snapshot() if f == flight]


def mixed_trace(config: QuantumConfig, *, seed: int = 7, length: int = 90) -> dict:
    """One seeded stream over every path that reads or moves the record:
    admissions (witness hits, misses, merges through flight-agnostic
    bookings, rejections on full flights), forced groundings (``k=4``),
    partner groundings, blind inserts and deletes (of witnessed and of
    unwitnessed seats, accepted and rejected), collapse reads, peek reads
    and check-ins."""
    rng = random.Random(seed)
    database = build_flight_database(
        FlightDatabaseSpec(
            num_flights=len(MIXED_FLIGHTS), rows_per_flight=MIXED_ROWS,
            first_flight_number=MIXED_FLIGHTS[0],
        )
    )
    qdb = QuantumDatabase(database, config)
    decisions: list = []
    booked: list[int] = []
    waiting: list[tuple[str, str, int]] = []  # partners still to arrive
    users = 0
    for index in range(length):
        roll = rng.random()
        if roll < 0.55:
            if waiting and rng.random() < 0.6:
                user, partner, flight = waiting.pop(rng.randrange(len(waiting)))
            else:
                user, partner = f"u{users}", f"u{users + 1}"
                users += 2
                flight = rng.choice(MIXED_FLIGHTS)
                waiting.append((partner, user, flight))
            if rng.random() < 0.15:
                flight, partner = None, None  # any flight: merges partitions
            result = qdb.execute(booking(user, flight, partner))
            if result.committed:
                booked.append(result.transaction_id)
            decisions.append(
                ["book", result.committed, result.pending, result.method,
                 len(result.grounded)]
            )
        elif roll < 0.75:
            flight = rng.choice(MIXED_FLIGHTS)
            if rng.random() < 0.35:
                op, values = "insert", (flight, f"9{chr(ord('A') + index % 26)}")
            else:
                free = available(qdb, flight) or ["1A"]
                seat = free[0] if rng.random() < 0.5 else rng.choice(free)
                op, values = "delete", (flight, seat)
            try:
                getattr(qdb, op)("Available", values)
                decisions.append([op, "ok"])
            except ReproError as exc:
                decisions.append([op, type(exc).__name__])
        elif roll < 0.85:
            rows = qdb.read("Bookings", [None, rng.choice(MIXED_FLIGHTS), None])
            decisions.append(["read", sorted(sorted(row.items()) for row in rows)])
        elif roll < 0.92:
            rows = qdb.read(
                "Bookings", [None, rng.choice(MIXED_FLIGHTS), None],
                mode=ReadMode.PEEK,
            )
            decisions.append(["peek", len(rows)])
        elif booked:
            record = qdb.check_in(booked[rng.randrange(len(booked))])
            decisions.append(["check_in", sorted(record.valuation.items())])
    return fingerprint(qdb, decisions)


# -- scenario 3: commit_batch on a sharded database ---------------------------

BATCH_FLIGHTS = 4


def batch_trace(seed: int) -> dict:
    """Batches through ``commit_batch`` on two shards, with blind deletes.

    The goldens were recorded with these batches admitted on per-shard
    admission lanes, hence the ``lanes-thread-{0,1}`` keys; since the lanes
    were deleted the same batches run through the serial batch loop and
    must match them bit for bit.  (Before that, the process shard backend
    ran them as ``lanes-process-{0,1}``; it folded a worker's
    ``search.nodes`` back into the writer's totals but not its
    ``searches`` / ``backtracks`` / ``rows_examined`` / ``choice_points``,
    so those four goldens were re-recorded for threads.)
    """
    rng = random.Random(seed)
    qdb = QuantumDatabase(config=QuantumConfig(k=3, shards=2))
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    qdb.load_rows(
        "Available",
        [(f, f"s{i}") for f in range(1, BATCH_FLIGHTS + 1) for i in range(4)],
    )
    decisions: list = []
    user = 0
    for _batch in range(3):
        batch = []
        for _ in range(8):
            flight = None if rng.random() < 0.15 else rng.randrange(1, BATCH_FLIGHTS + 1)
            batch.append(booking(f"p{user}", flight, None))
            user += 1
        for result in qdb.commit_batch(batch):
            decisions.append(
                [result.committed, result.pending, result.method,
                 len(result.grounded)]
            )
        flight = rng.randrange(1, BATCH_FLIGHTS + 1)
        try:
            qdb.delete("Available", (flight, (available(qdb, flight) or ["s0"])[0]))
            decisions.append(["delete", "ok"])
        except ReproError as exc:
            decisions.append(["delete", type(exc).__name__])
    return fingerprint(qdb, decisions)


SCENARIOS = {
    **{
        f"stream-{seed}-{'witness' if witness else 'seed'}": (
            lambda seed=seed, witness=witness: stream_trace(seed, witness)
        )
        for seed in STREAM_SEEDS
        for witness in (True, False)
    },
    "mixed-default": lambda: mixed_trace(QuantumConfig(k=4)),
    "mixed-witness-off": lambda: mixed_trace(QuantumConfig(k=4, witness_cache=False)),
    "mixed-sharded": lambda: mixed_trace(QuantumConfig(k=4, shards=2)),
    "lanes-thread-0": lambda: batch_trace(0),
    "lanes-thread-1": lambda: batch_trace(1),
}


class TestGoldens:
    """Bit-identity with the commit before the record existed."""

    @pytest.fixture(scope="class")
    def goldens(self) -> dict:
        return json.loads(GOLDENS.read_text())

    def test_every_scenario_has_a_golden(self, goldens):
        assert sorted(goldens) == sorted(SCENARIOS)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_matches_its_golden(self, goldens, name):
        expected, observed = goldens[name], SCENARIOS[name]()
        # Facet by facet, so a failure names what moved.
        for facet in ("decisions", "valuations", "store"):
            assert observed[facet] == expected[facet], (name, facet)
        moved = {
            counter: (expected["counters"].get(counter), value)
            for counter, value in observed["counters"].items()
            if expected["counters"].get(counter) != value
        }
        assert not moved, (name, moved)
        assert observed["counters"].keys() == expected["counters"].keys()


# -- lifecycle ---------------------------------------------------------------

ANY_SEAT = (
    "-Available({flight}, ?s), +Bookings('{name}', {flight}, ?s) "
    ":-1 Available({flight}, ?s)"
)
ANY_FLIGHT = "-Available(?f, ?s), +Bookings('{name}', ?f, ?s) :-1 Available(?f, ?s)"


def two_flight_qdb(shards: int) -> QuantumDatabase:
    spec = FlightDatabaseSpec(num_flights=2, rows_per_flight=1, first_flight_number=100)
    return QuantumDatabase(build_flight_database(spec), QuantumConfig(shards=shards))


@pytest.fixture
def created(monkeypatch) -> list:
    """Weak references to every partition created during the test."""
    refs: list[weakref.ref] = []
    original = Partition.__init__

    def tracking(self, *args, **kwargs):
        original(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Partition, "__init__", tracking)
    return refs


def assert_only_live_partitions_survive(qdb: QuantumDatabase, created: list) -> None:
    """A record is a field of its partition, so a dead partition's solution
    state is unreachable exactly when the partition itself is: after a
    collection, the partitions alive are the manager's, nothing else."""
    gc.collect()
    alive = {id(ref()) for ref in created if ref() is not None}
    assert alive == {id(partition) for partition in qdb.state.partitions}
    # ... and the cache keeps no per-partition container of its own.
    keyed = {
        name
        for name, value in vars(qdb.state.cache).items()
        if isinstance(value, (dict, list, set))
    }
    assert not keyed


@pytest.mark.parametrize("shards", [1, 2])
class TestLifecycle:
    """What the side table needed ``retain`` / ``drop_witness`` for."""

    def test_merge_takes_the_absorbed_records_along(self, shards, created):
        qdb = two_flight_qdb(shards)
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=100))
        qdb.execute(ANY_SEAT.format(name="Goofy", flight=101))
        before = [weakref.ref(p.solution) for p in qdb.state.partitions]
        assert len(before) == 2
        assert qdb.execute(ANY_FLIGHT.format(name="Donald")).committed
        [merged] = qdb.state.partitions
        # Both pre-merge records are gone (the survivor's was reset by the
        # merge, then re-recorded over the merged sequence) ...
        gc.collect()
        assert [ref() for ref in before] == [None, None]
        assert_only_live_partitions_survive(qdb, created)
        # ... and the new one covers the merged sequence.
        assert len(merged.solution.footprint.rows) == len(merged) == 3
        qdb.close()

    def test_rejection_that_empties_a_fresh_partition(self, shards, created):
        qdb = two_flight_qdb(shards)
        assert not qdb.execute(ANY_SEAT.format(name="Nobody", flight=999)).committed
        assert len(created) == 1  # the fresh partition the arrival opened
        assert len(qdb.state.partitions) == 0
        assert_only_live_partitions_survive(qdb, created)
        qdb.close()

    def test_grounding_that_empties_a_partition(self, shards, created):
        qdb = two_flight_qdb(shards)
        kept = qdb.execute(ANY_SEAT.format(name="Mickey", flight=100))
        gone = qdb.execute(ANY_SEAT.format(name="Goofy", flight=101))
        dead = next(
            weakref.ref(p.solution)
            for p in qdb.state.partitions
            if gone.transaction_id in p.transaction_ids()
        )
        qdb.check_in(gone.transaction_id)
        gc.collect()
        assert dead() is None
        assert_only_live_partitions_survive(qdb, created)
        [survivor] = qdb.state.partitions
        assert survivor.transaction_ids() == (kept.transaction_id,)
        assert survivor.solution.footprint is not None
        qdb.close()

    def test_partial_grounding_rerecords_the_remainder(self, shards, created):
        qdb = two_flight_qdb(shards)
        first = qdb.execute(ANY_SEAT.format(name="Mickey", flight=100))
        qdb.execute(ANY_SEAT.format(name="Goofy", flight=100))
        [partition] = qdb.state.partitions
        qdb.check_in(first.transaction_id)
        # The successor record: the old substitution restricted to what is
        # still pending, footprinted on the post-grounding store.
        assert partition.solution.substitution.domain() == partition.variables()
        assert len(partition.solution.footprint.rows) == 1
        assert_only_live_partitions_survive(qdb, created)
        qdb.close()


class TestRecordStates:
    """none / unverified / footprinted, and who moves the record."""

    def _booked(self, **config) -> tuple[QuantumDatabase, Partition]:
        qdb = QuantumDatabase(make_tiny_flight_db(seats=5), QuantumConfig(**config))
        for name in ("Mickey", "Goofy", "Donald"):
            assert qdb.execute(ANY_SEAT.format(name=name, flight=123)).committed
        [partition] = qdb.state.partitions
        return qdb, partition

    def test_fresh_partition_has_no_record(self):
        assert Partition().solution is None

    def test_structural_change_keeps_substitution_drops_footprint(self):
        qdb, partition = self._booked()
        substitution = partition.solution.substitution
        assert partition.solution.footprint is not None
        entries = partition.pending
        partition.pending = entries[1:]
        assert partition.solution.substitution is substitution
        assert partition.solution.footprint is None
        qdb.state.cache.record(partition, substitution.restrict(partition.variables()))
        assert partition.solution.footprint is not None
        partition.pending = entries[2:]
        assert partition.solution.footprint is None
        assert partition.solution.substitution is not None

    def test_append_leaves_the_record_to_the_admission(self):
        qdb, partition = self._booked()
        rows_before = partition.solution.footprint.rows
        assert qdb.execute(ANY_SEAT.format(name="Minnie", flight=123)).committed
        # The fast path extended the footprint by the new factor's row.
        assert partition.solution.footprint.rows > rows_before
        assert len(partition.solution.footprint.rows) == len(rows_before) + 1

    def test_delta_notification_untrusts_exactly_the_touched_record(self):
        qdb, partition = self._booked()
        cache, partitions = qdb.state.cache, qdb.state.partitions
        row = sorted(partition.solution.footprint.rows)[0]
        invalidations = qdb.cache_statistics.witness_invalidations
        cache.notify_deltas([("Available", (123, "9Z"), True)], partitions)  # a miss
        cache.notify_deltas([(*row, False)], partitions)  # an insert: monotone
        assert partition.solution.footprint is not None
        assert qdb.cache_statistics.witness_invalidations == invalidations
        cache.notify_deltas([(*row, True)], partitions)
        assert partition.solution.footprint is None
        assert qdb.cache_statistics.witness_invalidations == invalidations + 1
        # Unverified: the next admission verifies the composed body first.
        verifications = qdb.cache_statistics.verifications
        assert qdb.execute(ANY_SEAT.format(name="Minnie", flight=123)).committed
        assert qdb.cache_statistics.verifications == verifications + 1
        assert partition.solution.footprint is not None

    def test_witness_cache_off_never_footprints(self):
        qdb, partition = self._booked(witness_cache=False)
        assert partition.solution.footprint is None
        qdb.delete("Available", (123, "1A"))
        qdb.check_in(partition.transaction_ids()[0])
        assert partition.solution.footprint is None
        assert qdb.cache_statistics.witness_hits == 0

    def test_rejected_write_leaves_the_record_untouched(self):
        qdb = QuantumDatabase(make_tiny_flight_db(seats=1))
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        [partition] = qdb.state.partitions
        record = partition.solution
        with pytest.raises(WriteRejected):
            qdb.delete("Available", (123, "1A"))
        assert partition.solution is record
        assert qdb.cache_statistics.witness_invalidations == 0

    def test_one_store_one_flow(self):
        """The API this PR removed stays removed."""
        for name in ("verify", "extend", "solve", "retain", "witnesses",
                     "witness_for", "store_witness"):
            assert not hasattr(SolutionCache, name), name
        assert not hasattr(Partition(), "restrict_solution")


class TestWriteCheckHonoursSearchConfig:
    """Regression: the write check re-solved through a bare ``find_one`` and
    ignored ``QuantumConfig.search`` — above all ``node_budget``, whose
    contract is "never an unbounded stall".  Three bookings on one flight,
    then a delete of a witnessed seat, used to expand 8 nodes whatever the
    budget said."""

    def _scenario(self, search: AdmissionSearchConfig | None):
        config = QuantumConfig() if search is None else QuantumConfig(search=search)
        qdb = QuantumDatabase(make_tiny_flight_db(seats=5), config)
        for name in ("Mickey", "Goofy", "Donald"):
            assert qdb.execute(ANY_SEAT.format(name=name, flight=123)).committed
        [partition] = qdb.state.partitions
        _table, witnessed = sorted(partition.solution.footprint.rows)[0]
        return qdb, partition, witnessed

    def _delta(self, qdb, before, name):
        return qdb.statistics_report()[name] - before[name]

    def test_budget_bounds_the_resolve_and_rejects_conservatively(self):
        # The smallest budget that still admits the three bookings; the
        # unbounded re-solve of the write check needs 8 nodes.
        budget = 5
        qdb, partition, witnessed = self._scenario(
            AdmissionSearchConfig(node_budget=budget)
        )
        record, before = partition.solution, qdb.statistics_report()
        with pytest.raises(WriteRejected, match="node budget"):
            qdb.delete("Available", witnessed)
        # The kernel counts the over-budget step it skips, then one more
        # skipped step per remaining alternative of each open choice point:
        # at most one choice point per pending booking's ``Available`` atom,
        # each over at most the 4 seats left once the witnessed one is gone.
        nodes = self._delta(qdb, before, "search.nodes")
        assert budget < nodes <= budget + 1 + len(partition) * 4
        assert self._delta(qdb, before, "search.exhausted_budget") == 1
        assert self._delta(qdb, before, "state.writes_rejected") == 1
        # Rolled back: the seat is still there, the record still trusted.
        assert witnessed in qdb.table("Available").snapshot()
        assert partition.solution is record

    def test_sufficient_budget_accepts_within_it(self):
        budget = 64
        qdb, partition, witnessed = self._scenario(
            AdmissionSearchConfig(node_budget=budget)
        )
        before = qdb.statistics_report()
        qdb.delete("Available", witnessed)
        assert self._delta(qdb, before, "search.nodes") <= budget
        assert self._delta(qdb, before, "search.exhausted_budget") == 0
        rows = {values for _table, values in partition.solution.footprint.rows}
        assert witnessed not in rows

    def test_default_config_unchanged(self):
        qdb, partition, witnessed = self._scenario(None)
        before = qdb.statistics_report()
        qdb.delete("Available", witnessed)
        moved = {
            name: self._delta(qdb, before, name)
            for name in ("search.nodes", "search.searches", "cache.verifications",
                         "cache.full_solves", "cache.witness_misses",
                         "cache.witness_invalidations", "cache.admission_nodes")
        }
        assert moved == {
            "search.nodes": 8, "search.searches": 1, "cache.verifications": 1,
            "cache.full_solves": 1, "cache.witness_misses": 1,
            "cache.witness_invalidations": 1, "cache.admission_nodes": 0,
        }


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    # One scenario per line: a re-record diffs scenario by scenario.
    lines = [
        f"{json.dumps(name)}: {json.dumps(SCENARIOS[name](), sort_keys=True)}"
        for name in sorted(SCENARIOS)
    ]
    GOLDENS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(SCENARIOS)} scenarios -> {GOLDENS}")
