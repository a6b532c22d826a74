"""Property tests: signature-routed partitioning ≡ the exhaustive scan.

:class:`~repro.core.partition.PartitionManager` answers every overlap query
from the signature index, confirming each candidate by exact unification.
The reference is the exhaustive pairwise-unification scan over every atom
of every partition — the paper's independence test, kept as
:class:`~reference_scan.ExhaustiveScan`.  Over seeded streams mixing constant-pinned,
wildcard and unhashable-constant (imprecise) transactions, with
groundings interleaved, both must give the same overlap sets, partition
contents, merge events and groundings; and after every step the manager's
transaction map must equal a full scan of its partitions.
"""

from __future__ import annotations

import random

import pytest

from repro import QuantumConfig, QuantumDatabase, parse_transaction
from repro.core.partition import PartitionManager
from repro.core.quantum_state import PendingTransaction
from repro.core.resource_transaction import ResourceTransaction
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from reference_scan import ExhaustiveScan

SEEDS = range(10)


def make_qdb(*, reference=False, k=4, flights=5, seats=3):
    qdb = QuantumDatabase(config=QuantumConfig(k=k))
    if reference:
        qdb.state.partitions = ExhaustiveScan()
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    qdb.load_rows(
        "Available",
        [(f, f"s{i}") for f in range(1, flights + 1) for i in range(seats)],
    )
    return qdb


def seeded_stream(seed, *, length=24, flights=5, seats=3, wildcard_ratio=0.2):
    """Mixed pinned/wildcard booking stream (wildcards force merges)."""
    rng = random.Random(seed)
    stream = []
    for i in range(length):
        user = f"u{seed}_{i}"
        roll = rng.random()
        if roll < wildcard_ratio:
            stream.append(
                f"-Available(?f, ?s), +Bookings('{user}', ?f, ?s)"
                " :-1 Available(?f, ?s)"
            )
        elif roll < wildcard_ratio + 0.2:
            flight = rng.randrange(1, flights + 1)
            seat = f"s{rng.randrange(seats)}"
            stream.append(
                f"-Available({flight}, '{seat}'), "
                f"+Bookings('{user}', {flight}, '{seat}')"
                f" :-1 Available({flight}, '{seat}')"
            )
        else:
            flight = rng.randrange(1, flights + 1)
            stream.append(
                f"-Available({flight}, ?s), +Bookings('{user}', {flight}, ?s)"
                f" :-1 Available({flight}, ?s)"
            )
    return stream


def partition_fingerprint(manager):
    """Partition contents as a canonical set of transaction-id tuples."""
    return {p.transaction_ids() for p in manager.partitions}


def assert_map_is_a_full_scan(manager):
    """The transaction map holds exactly what the partitions hold."""
    scanned = {
        entry.transaction_id: (partition, entry)
        for partition in manager.partitions
        for entry in partition
    }
    assert manager.pending_count() == len(scanned)
    for transaction_id, located in scanned.items():
        found = manager.find(transaction_id)
        assert found is not None
        assert found[0] is located[0] and found[1] is located[1]
    # ... and the index holds exactly the live partitions.
    assert len(manager.index) == len(manager.partitions)
    assert all(p.partition_id in manager.index for p in manager.partitions)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_equivalent_to_exhaustive_scan(seed):
    """Same decisions, partitions, merges and groundings at every step."""
    reference = make_qdb(reference=True)
    routed = make_qdb()
    # Parse once and feed the *same* transaction objects to both databases,
    # so transaction ids (and hence partition fingerprints) are comparable.
    for text in seeded_stream(seed):
        transaction = parse_transaction(text)
        reference_result = reference.execute(transaction)
        routed_result = routed.execute(transaction)
        assert reference_result.committed == routed_result.committed
        assert {g.transaction_id: g.valuation for g in reference_result.grounded} == {
            g.transaction_id: g.valuation for g in routed_result.grounded
        }
        assert partition_fingerprint(reference.state.partitions) == (
            partition_fingerprint(routed.state.partitions)
        )
        assert reference.state.partitions.statistics.merges == (
            routed.state.partitions.statistics.merges
        )
        assert_map_is_a_full_scan(routed.state.partitions)
    reference_grounded = {g.transaction_id: g.valuation for g in reference.ground_all()}
    routed_grounded = {g.transaction_id: g.valuation for g in routed.ground_all()}
    assert reference_grounded == routed_grounded
    assert_map_is_a_full_scan(routed.state.partitions)
    assert routed.pending_count == 0
    assert routed.table("Bookings").snapshot() == reference.table("Bookings").snapshot()


def synthetic_transaction(rng, user):
    """A pinned, wildcard or unhashable-constant booking transaction.

    Its ``Bookings`` update names ``user``, a constant no other transaction
    has: after a merge only the absorbed partition's own postings can route
    a read of that row to the merged partition.
    """
    roll = rng.random()
    flight = rng.randrange(1, 7)
    if roll < 0.15:
        terms = [Variable("f"), Variable("s")]
    elif roll < 0.25:
        # Unhashable constant: exercises the index's imprecise fallback.
        terms = [Constant([flight]), Variable("s")]
    else:
        terms = [Constant(flight), Variable("s")]
    return ResourceTransaction(
        body=(Atom.body("Available", list(terms)),),
        updates=(
            Atom.delete("Available", list(terms)),
            Atom.insert("Bookings", [Constant(user), *terms]),
        ),
    )


def read_of(user):
    """The atoms of a read of ``user``'s booking."""
    return (Atom.body("Bookings", [Constant(user), Variable("f"), Variable("s")]),)


@pytest.mark.parametrize("seed", SEEDS)
def test_manager_matches_exhaustive_scan_stepwise(seed):
    """Manager-level equivalence with no solver involved.

    Drives the reference and the manager with the *same* synthetic stream —
    arrivals (including unhashable constants, which force the index's
    imprecise fallback) interleaved with removals that stand in for
    groundings — and checks every overlap answer (arrivals and reads of an
    earlier user's booking), merge flag and resulting partition, and the
    manager's transaction map after every step.
    """
    rng = random.Random(seed)
    reference = ExhaustiveScan()
    routed = PartitionManager()
    sequence = 0
    for step in range(60):
        if sequence:
            probe = read_of(f"u{rng.randrange(1, sequence + 1)}")
            expected, observed = (
                [p.transaction_ids() for p in manager.overlapping_partitions(probe)]
                for manager in (reference, routed)
            )
            assert expected == observed, f"read overlap diverged at step {step}"
        if routed.pending_count() and rng.random() < 0.25:
            # A grounding: remove one pending entry from both managers.
            transaction_id = rng.choice(
                [entry.transaction_id for p in routed for entry in p]
            )
            for manager in (reference, routed):
                partition, entry = manager.find(transaction_id)
                partition.pending = [e for e in partition if e is not entry]
                manager.drop_if_empty(partition)
        else:
            sequence += 1
            transaction = synthetic_transaction(rng, f"u{sequence}")
            renamed = transaction.rename_variables(f"@{transaction.transaction_id}")
            atoms = tuple(renamed.body) + tuple(renamed.updates)
            overlaps = [
                [p.transaction_ids() for p in manager.overlapping_partitions(atoms)]
                for manager in (reference, routed)
            ]
            assert overlaps[0] == overlaps[1], f"overlap diverged at step {step}"
            results = []
            for manager in (reference, routed):
                partition, merged = manager.merged_for(atoms)
                partition.append(PendingTransaction(transaction, renamed, sequence))
                results.append((merged, partition.transaction_ids()))
            assert results[0] == results[1], f"diverged at step {step}"
        assert partition_fingerprint(reference) == partition_fingerprint(routed)
        assert_map_is_a_full_scan(routed)
    assert reference.statistics.merges == routed.statistics.merges
    # The stream contained unhashable constants, so the routed run must
    # have exercised the imprecise fallback at least once.
    assert routed.index.statistics.imprecise_probes > 0
    # The index only ever saves scan work.
    assert routed.statistics.unification_checks <= (
        reference.statistics.unification_checks
    )


def test_three_way_merge_matches_exhaustive_scan():
    """Pinned partitions merged by a wildcard arrival behave exactly like
    the exhaustive scan, and a pinned follow-up routes into the result."""
    reference = make_qdb(reference=True)
    routed = make_qdb()
    stream = [
        "-Available(1, ?s), +Bookings('a', 1, ?s) :-1 Available(1, ?s)",
        "-Available(2, ?s), +Bookings('b', 2, ?s) :-1 Available(2, ?s)",
        "-Available(3, ?s), +Bookings('c', 3, ?s) :-1 Available(3, ?s)",
        # Wildcard: unifies with all three → three-way merge.
        "-Available(?f, ?s), +Bookings('d', ?f, ?s) :-1 Available(?f, ?s)",
        # Pinned follow-up lands in the merged partition on both sides.
        "-Available(2, ?s), +Bookings('e', 2, ?s) :-1 Available(2, ?s)",
    ]
    for text in stream:
        transaction = parse_transaction(text)
        assert (
            reference.execute(transaction).committed
            == routed.execute(transaction).committed
        )
    assert partition_fingerprint(reference.state.partitions) == (
        partition_fingerprint(routed.state.partitions)
    )
    assert len(reference.state.partitions) == len(routed.state.partitions) == 1
    assert routed.state.partitions.statistics.merges == 1
    assert_map_is_a_full_scan(routed.state.partitions)
