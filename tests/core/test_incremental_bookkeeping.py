"""A grounding's incremental bookkeeping, held to rebuilding it from scratch.

After a grounding the quantum state no longer re-derives what stays
pending; it updates it:

* the partition installs the **successor** of the planned composition
  (:meth:`OrderComposition.successor`: the grounded prefix's rewrite parts
  dropped, nothing unified again) — it must equal ``OrderComposition`` of
  the remaining entries: factors, formula, atom count and update buckets;
* the signature index **retracts** only the grounded entries' atoms from
  its counted postings — it must equal an index rebuilt with ``add``,
  postings gauge included;
* delta notification is **routed** by the deltas' rows plus the manager's
  loose records — it must untrust exactly the records a scan of every
  partition untrusts.

Seeded streams under SEMANTIC and STRICT serializability mix entangled
pairs (partner groundings), ``k``-bound forced groundings, bookings that
depend on an earlier pending booking (refused reorders), check-ins
(accepted reorders), collapse reads, blind writes, any-flight bookings
(merges) and a ``QuantumDatabase.recover`` mid-stream; every grounding and
every notification of a stream is checked.  Unit cases cover an imprecise
partition (an unhashable constant) and hand-built loose footprints.  The
positional unifier is held to a fold of :func:`unify_terms` on seeded
random atoms.
"""

from __future__ import annotations

import functools
import random
from collections import Counter

import pytest

from repro import QuantumConfig, QuantumDatabase, WriteAheadLog, parse_transaction
from repro.core.composition import OrderComposition
from repro.core.entanglement import make_adjacent_seat_request
from repro.core.partition import PartitionManager
from repro.core.quantum_state import PendingTransaction, QuantumState
from repro.core.recovery import PendingTransactionStore
from repro.core.resource_transaction import ResourceTransaction
from repro.core.serializability import SerializabilityMode
from repro.core.signature import SignatureIndex
from repro.core.solution_cache import Footprint, Solution, SolutionCache
from repro.errors import WriteRejected
from repro.logic.atoms import Atom
from repro.logic.formula import FALSE, TRUE, Equality, conjunction
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.logic.unification import (
    most_general_unifier,
    unifiable,
    unification_predicate,
    unify_terms,
)
from repro.relational import Database, recover_database
from repro.workloads.flights import (
    FlightDatabaseSpec,
    build_flight_database,
    create_flight_tables,
)

SPEC = FlightDatabaseSpec(num_flights=3, rows_per_flight=2)
MODES = [SerializabilityMode.SEMANTIC, SerializabilityMode.STRICT]
SEEDS = range(6)
#: Stream length; the restart happens halfway.
LENGTH = 70


# -- the checks ------------------------------------------------------------------


def assert_successor_is_fresh(partition) -> None:
    """The installed composition equals composing the remaining entries."""
    if not len(partition):
        return
    installed = partition._composition
    assert installed is not None, "a grounding left no composition installed"
    fresh = OrderComposition(entry.renamed for entry in partition.pending)
    assert installed.transactions == fresh.transactions
    assert installed.factors == fresh.factors
    assert installed.formula() == fresh.formula()
    assert installed.atom_count() == fresh.atom_count()
    assert installed._updates == fresh._updates


def assert_index_is_rebuilt(manager: PartitionManager) -> None:
    """Counted postings after retraction ≡ an index rebuilt with ``add``."""
    rebuilt = SignatureIndex()
    for partition in manager:
        rebuilt.add(partition)
    index = manager.index
    assert index._postings == rebuilt._postings
    assert index._keys == rebuilt._keys
    assert index._imprecise == rebuilt._imprecise
    assert index.statistics.postings == rebuilt.statistics.postings


def assert_map_and_loose_set(manager: PartitionManager) -> None:
    """The transaction map and the loose set ≡ a scan of the partitions."""
    assert manager._located == {
        entry.transaction_id: (partition, entry)
        for partition in manager
        for entry in partition
    }
    assert manager._loose == {
        partition.partition_id
        for partition in manager
        if partition.solution is not None
        and partition.solution.footprint is not None
        and partition.solution.footprint.loose
    }


def footprinted(manager: PartitionManager) -> set[int]:
    return {
        partition.partition_id
        for partition in manager
        if partition.solution is not None and partition.solution.footprint is not None
    }


def install_checks(monkeypatch) -> Counter:
    """Check every grounding and every delta notification; count what ran."""
    counts: Counter = Counter()
    plan_grounding = QuantumState.plan_grounding
    apply_grounding = QuantumState.apply_grounding
    notify_deltas = SolutionCache.notify_deltas

    def plan(self, partition, targets, *, forced=False):
        planned = plan_grounding(self, partition, targets, forced=forced)
        head = {entry.transaction_id for entry in partition.pending[: len(targets)]}
        fronted = head != {entry.transaction_id for entry in targets}
        if planned.plan.reordered:
            counts["reorders accepted"] += 1
        elif fronted and self.serializability is SerializabilityMode.SEMANTIC:
            counts["reorders refused"] += 1
        counts["forced" if forced else "requested"] += 1
        return planned

    def apply(self, planned):
        results = apply_grounding(self, planned)
        counts["groundings"] += 1
        assert_successor_is_fresh(planned.partition)
        assert_index_is_rebuilt(self.partitions)
        assert_map_and_loose_set(self.partitions)
        return results

    def notify(self, deltas):
        partitions = self.partitions
        expected = {
            partition.partition_id
            for partition in partitions
            if partition.solution is not None and partition.solution.touched_by(deltas)
        }
        before = footprinted(partitions)
        notify_deltas(self, deltas)
        assert before - footprinted(partitions) == expected
        counts["notifications"] += 1
        counts["invalidations"] += len(expected)

    monkeypatch.setattr(QuantumState, "plan_grounding", plan)
    monkeypatch.setattr(QuantumState, "apply_grounding", apply)
    monkeypatch.setattr(SolutionCache, "notify_deltas", notify)
    return counts


@pytest.fixture
def checked(monkeypatch) -> Counter:
    return install_checks(monkeypatch)


# -- the streams -----------------------------------------------------------------


def flight_schema() -> Database:
    database = Database()
    create_flight_tables(database)
    PendingTransactionStore(database)
    return database


def booking(user: str, flight: int | None, needs: str | None = None) -> str:
    """A booking on ``flight`` (any flight for ``None``); with ``needs``, it
    also requires that user's booking on the flight — fronting it before
    that pending booking is unsatisfiable, so such a reorder is refused."""
    where = "?f" if flight is None else str(flight)
    body = f"Available({where}, ?s)"
    if needs is not None:
        body += f", Bookings('{needs}', {where}, ?t)"
    return f"-Available({where}, ?s), +Bookings('{user}', {where}, ?s) :-1 {body}"


def run_stream(mode: SerializabilityMode, seed: int, counts: Counter) -> None:
    rng = random.Random(f"bookkeeping/{mode.value}/{seed}")
    config = QuantumConfig(k=3, serializability=mode)
    qdb = QuantumDatabase(build_flight_database(SPEC), config)
    flights = list(SPEC.flight_numbers())
    booked: list[tuple[str, int, int]] = []  # (user, flight, transaction id)
    waiting: list[tuple[str, str, int]] = []  # partners yet to arrive
    for step in range(LENGTH):
        if step == LENGTH // 2:
            counts["merges"] += qdb.state.partitions.statistics.merges
            log = WriteAheadLog.load(qdb.database.wal.dump())
            qdb = QuantumDatabase.recover(recover_database(flight_schema, log), config)
            counts["recoveries"] += 1
        user = f"u{seed}_{step}"
        # Dependent bookings and check-ins aim at what is still pending.
        pending = [booked_one for booked_one in booked if qdb.state.is_pending(booked_one[2])]
        roll = rng.random()
        completes_a_pair = False
        if roll < 0.25:
            if waiting and rng.random() < 0.6:
                client, partner, flight = waiting.pop(rng.randrange(len(waiting)))
                completes_a_pair = True
            else:
                client, partner, flight = user, f"{user}p", rng.choice(flights)
                waiting.append((partner, client, flight))
            transaction = make_adjacent_seat_request(client, partner, flight=flight)
            user = client
        elif roll < 0.35:
            transaction, flight = parse_transaction(booking(user, None)), None
        elif roll < 0.5 and pending:
            needs, flight, _ = rng.choice(pending)
            transaction = parse_transaction(booking(user, flight, needs))
        elif roll < 0.7:
            flight = rng.choice(flights)
            transaction = parse_transaction(booking(user, flight))
        elif roll < 0.8 and pending:
            qdb.check_in(rng.choice(pending)[2])
            continue
        elif roll < 0.9 and booked:
            qdb.read("Bookings", [rng.choice(booked)[0], None, None])
            continue
        else:
            flight = rng.choice(flights)
            try:
                qdb.insert("Available", (flight, "9Z"))
                qdb.delete("Available", (flight, "9Z"))
                seats = [row for row in qdb.table("Available").snapshot() if row[0] == flight]
                if seats:
                    qdb.delete("Available", rng.choice(sorted(seats)))
            except WriteRejected:
                counts["writes rejected"] += 1
            continue
        result = qdb.execute(transaction)
        counts["partner groundings"] += completes_a_pair and bool(result.grounded)
        if result.committed:
            booked.append((user, flight, result.transaction_id))
    counts["merges"] += qdb.state.partitions.statistics.merges
    qdb.ground_all()
    assert qdb.pending_count == 0
    assert_index_is_rebuilt(qdb.state.partitions)
    assert_map_and_loose_set(qdb.state.partitions)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", MODES, ids=[mode.value for mode in MODES])
def test_every_grounding_matches_a_rebuild(mode, seed, checked):
    run_stream(mode, seed, checked)
    assert checked["groundings"] > 0
    assert checked["notifications"] > 0
    assert checked["recoveries"] == 1


@functools.cache
def coverage(mode: SerializabilityMode) -> Counter:
    """What the streams of ``mode`` exercised, summed over the seeds."""
    total: Counter = Counter()
    for seed in SEEDS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            counts = install_checks(monkeypatch)
            run_stream(mode, seed, counts)
        total.update(counts)
    return total


@pytest.mark.parametrize("mode", MODES, ids=[mode.value for mode in MODES])
def test_streams_cover_every_kind_of_grounding(mode):
    counts = coverage(mode)
    assert counts["forced"] > 0
    assert counts["requested"] > 0
    assert counts["partner groundings"] > 0
    assert counts["merges"] > 0
    assert counts["invalidations"] > 0
    if mode is SerializabilityMode.SEMANTIC:
        assert counts["reorders accepted"] > 0
        assert counts["reorders refused"] > 0
    else:
        assert counts["reorders accepted"] == counts["reorders refused"] == 0


# -- unit cases: an imprecise partition, loose footprints ---------------------------


def entry(body, updates, sequence) -> PendingTransaction:
    transaction = ResourceTransaction(body=tuple(body), updates=tuple(updates))
    renamed = transaction.rename_variables(f"@{transaction.transaction_id}")
    return PendingTransaction(transaction, renamed, sequence)


def seat_entry(flight, sequence, seat=None) -> PendingTransaction:
    """A booking on ``flight``; a list ``flight`` is an unhashable constant."""
    seat_term = Variable("s") if seat is None else Constant(seat)
    terms = [Constant(flight), seat_term]
    return entry(
        [Atom.body("Available", terms)],
        [
            Atom.delete("Available", terms),
            Atom.insert("Bookings", [Constant(f"u{sequence}"), *terms]),
        ],
        sequence,
    )


@pytest.mark.parametrize("grounded", [1, 2, 3, 4])
def test_retraction_matches_a_rebuild_on_an_imprecise_partition(grounded):
    # The second entry pins an unhashable constant; the wildcard first one
    # makes all four one partition.
    manager = PartitionManager()
    wildcard = entry(
        [Atom.body("Available", [Variable("f"), Variable("s")])],
        [Atom.delete("Available", [Variable("f"), Variable("s")])],
        1,
    )
    entries = [wildcard, seat_entry([7], 2), seat_entry(7, 3, "1A"), seat_entry(7, 4)]
    for pending in entries:
        partition, _merged = manager.merged_for(
            tuple(pending.renamed.body) + tuple(pending.renamed.updates)
        )
        manager.append(partition, pending)
    assert len(manager) == 1
    assert partition.partition_id in manager.index._imprecise
    manager.ground_prefix(partition, partition.composition(), grounded)
    assert partition.pending == tuple(entries[grounded:])
    # A grounded prefix that empties the partition drops it.
    assert len(manager) == int(grounded < len(entries))
    assert (partition.partition_id in manager.index._imprecise) == (grounded < 2)
    assert_successor_is_fresh(partition)
    assert_index_is_rebuilt(manager)
    assert_map_and_loose_set(manager)


def test_grounding_a_reordered_composition_keeps_its_order():
    manager = PartitionManager()
    entries = [seat_entry(5, sequence) for sequence in range(1, 5)]
    for pending in entries:
        partition, _merged = manager.merged_for(tuple(pending.renamed.body))
        manager.append(partition, pending)
    order = [entries[2], entries[0], entries[1], entries[3]]
    fronted = OrderComposition(pending.renamed for pending in order)
    manager.ground_prefix(partition, fronted, 1)
    assert partition.pending == (entries[0], entries[1], entries[3])
    assert_successor_is_fresh(partition)
    assert_index_is_rebuilt(manager)
    assert_map_and_loose_set(manager)
    with pytest.raises(ValueError):
        manager.ground_prefix(partition, OrderComposition([entries[0].renamed]), 1)
    # The refused grounding changed nothing.
    assert partition.pending == (entries[0], entries[1], entries[3])
    assert_index_is_rebuilt(manager)
    assert_map_and_loose_set(manager)


def booked_database() -> QuantumDatabase:
    """Three flights with two pending bookings each, all footprinted."""
    qdb = QuantumDatabase(build_flight_database(SPEC), QuantumConfig(k=8))
    for flight in SPEC.flight_numbers():
        for name in ("a", "b"):
            assert qdb.execute(booking(f"{name}{flight}", flight)).committed
    return qdb


@pytest.mark.parametrize(
    "footprint, delta",
    [
        # Non-ground relations: any Available delta may touch it.
        (Footprint(frozenset(), frozenset({"Available"}), True), ("Available", (999, "9Z"), True)),
        (Footprint(frozenset(), frozenset({"Available"}), True), ("Bookings", ("x", 999, "9Z"), True)),
        # Non-monotone: an insert of a footprint row touches it.
        (Footprint(frozenset({("Available", (999, "9Z"))}), frozenset(), False), ("Available", (999, "9Z"), False)),
        (Footprint(frozenset({("Available", (999, "9Z"))}), frozenset(), True), ("Available", (999, "9Z"), False)),
    ],
)
def test_routed_notification_matches_a_full_scan_on_loose_footprints(
    footprint, delta, checked
):
    qdb = booked_database()
    manager = qdb.state.partitions
    first = manager.partitions[0]
    manager.set_solution(first, Solution(first.solution.substitution, footprint))
    assert (first.partition_id in manager._loose) == footprint.loose
    assert_map_and_loose_set(manager)
    qdb.state.cache.notify_deltas([delta])
    assert checked["notifications"] == 1
    # The hand-built record is the only one the delta can touch.
    assert checked["invalidations"] == int(footprint.touched_by([delta]))
    assert_map_and_loose_set(manager)


def test_routed_notification_finds_each_footprint_row(checked):
    qdb = booked_database()
    manager = qdb.state.partitions
    for partition in list(manager):
        for table, values in sorted(partition.solution.footprint.rows):
            qdb.state.cache.notify_deltas([(table, values, True)])
            assert partition.solution.footprint is None
            qdb.state.cache.ensure(partition)  # re-footprints it
    assert checked["invalidations"] == checked["notifications"] > 0


def test_a_forgotten_partition_leaves_the_loose_set():
    qdb = booked_database()
    manager = qdb.state.partitions
    partition = manager.partitions[0]
    manager.set_solution(
        partition,
        Solution(
            partition.solution.substitution,
            Footprint(frozenset(), frozenset({"Available"}), True),
        ),
    )
    assert manager._loose == {partition.partition_id}
    qdb.ground_all()
    assert manager._loose == set()
    assert partition not in manager.partitions


# -- the positional unifier ---------------------------------------------------------

TERMS = [
    Variable("x"),
    Variable("y"),
    Variable("z"),
    Constant(1),
    Constant(True),
    Constant(2),
    Constant(2.0),
    Constant(0),
    Constant(False),
    Constant("a"),
    Constant(None),
]


def random_atom(rng: random.Random) -> Atom:
    relation = rng.choice(["R", "S"])
    terms = tuple(rng.choice(TERMS) for _ in range(rng.randrange(0, 4)))
    kind = rng.choice(["body", "insert", "delete"])
    return getattr(Atom, kind)(relation, terms)


def folded(left: Atom, right: Atom) -> Substitution | None:
    """Definition 3.2 as a fold of :func:`unify_terms` over the positions."""
    if left.relation != right.relation or left.arity != right.arity:
        return None
    theta: Substitution | None = Substitution.empty()
    for l_term, r_term in zip(left.terms, right.terms):
        theta = unify_terms(l_term, r_term, theta)
        if theta is None:
            return None
    return theta


@pytest.mark.parametrize("seed", range(4))
def test_positional_unifier_matches_a_fold_of_unify_terms(seed):
    rng = random.Random(seed)
    outcomes = Counter()
    for _ in range(1500):
        left, right = random_atom(rng), random_atom(rng)
        if rng.random() < 0.3:
            # Same shape, so the positions actually meet.
            right = Atom.unchecked(
                left.relation,
                tuple(rng.choice(TERMS) for _ in left.terms),
                right.kind,
            )
        expected = folded(left, right)
        mgu = most_general_unifier(left, right)
        assert mgu == expected
        assert unifiable(left, right) is (expected is not None)
        predicate = unification_predicate(left, right)
        if expected is None:
            assert predicate is FALSE
            outcomes["clash"] += 1
            continue
        # Same bindings, in the same order.
        assert list(mgu.items()) == list(expected.items())
        if not len(expected):
            assert predicate is TRUE
            outcomes["empty"] += 1
        else:
            assert predicate == conjunction(
                [Equality(var, term) for var, term in expected.items()]
            )
            outcomes["bindings"] += 1
    for outcome in ("clash", "empty", "bindings"):
        assert outcomes[outcome] > 50, outcomes


@pytest.mark.parametrize(
    "left, right, bindings",
    [
        # A repeated variable chases through its first binding.
        (Atom.body("R", [Variable("x"), Variable("x")]), Atom.body("R", [1, 2]), None),
        (Atom.body("R", [Variable("x"), Variable("x")]), Atom.body("R", [1, True]), {"x": 1}),
        (Atom.body("R", [Variable("x"), Variable("y")]), Atom.body("R", [Variable("y"), Variable("x")]), {"x": Variable("y")}),
        # 1 matches True and 2 matches 2.0, as terms compare.
        (Atom.body("R", [1, 2]), Atom.delete("R", [True, 2.0]), {}),
        # Relation and arity mismatches.
        (Atom.body("R", [1]), Atom.body("S", [1]), None),
        (Atom.body("R", [1]), Atom.body("R", [1, 2]), None),
    ],
)
def test_positional_unifier_named_cases(left, right, bindings):
    expected = folded(left, right)
    if bindings is None:
        assert expected is None and most_general_unifier(left, right) is None
        assert unification_predicate(left, right) is FALSE
        assert not unifiable(left, right)
        return
    assert most_general_unifier(left, right) == expected == Substitution(
        {Variable(name): value for name, value in bindings.items()}
    )
    assert unifiable(left, right)
