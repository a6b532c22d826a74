"""Property tests: signature-routed admission ≡ exhaustive-scan admission.

The acceptance property of the sharding subsystem: over seeded arrival
streams — mixing constant-pinned and wildcard transactions, so merges
(including cross-shard ones) and the wildcard routing path all occur — the
``SignatureIndex``-routed ``merged_for`` must make decisions bit-identical
to the exhaustive pairwise-unification scan: same accept/reject outcomes,
same partition contents, same merge events, same groundings — including
the groundings planned on the shards' thread pools.
"""

from __future__ import annotations

import random

import pytest

from repro.core.partition import PartitionManager
from repro.core.quantum_state import PendingTransaction
from repro.core.resource_transaction import ResourceTransaction
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro import QuantumConfig, QuantumDatabase, parse_transaction
from repro.sharding import ShardedPartitionManager

SEEDS = [0, 1, 2, 3, 4]


def make_qdb(shards, *, k=4, flights=5, seats=3, backend="thread"):
    qdb = QuantumDatabase(
        config=QuantumConfig(k=k, shards=shards, shard_backend=backend)
    )
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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shards", [2, 3])
# Threads are the only shard backend; the one-value parameter keeps the
# test ids of the process-backend era.
@pytest.mark.parametrize("backend", ["thread"])
def test_sharded_stream_equivalent_to_exhaustive(seed, shards, backend):
    """Same decisions, partitions, merges and groundings at every step."""
    plain = make_qdb(1)
    sharded = make_qdb(shards, backend=backend)
    # Parse once and feed the *same* transaction objects to both databases,
    # so transaction ids (and hence partition fingerprints) are comparable.
    for text in seeded_stream(seed):
        transaction = parse_transaction(text)
        plain_result = plain.execute(transaction)
        sharded_result = sharded.execute(transaction)
        assert plain_result.committed == sharded_result.committed
        assert partition_fingerprint(plain.state.partitions) == (
            partition_fingerprint(sharded.state.partitions)
        )
        assert plain.state.partitions.statistics.merges == (
            sharded.state.partitions.statistics.merges
        )
        assert plain.pending_count == sharded.pending_count
    plain_grounded = {
        g.transaction_id: g.valuation for g in plain.ground_all()
    }
    sharded_grounded = {
        g.transaction_id: g.valuation for g in sharded.ground_all()
    }
    assert plain_grounded == sharded_grounded
    sharded.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_merged_for_matches_exhaustive_scan_stepwise(seed):
    """Manager-level equivalence, including the wildcard-fallback path.

    Drives a plain :class:`PartitionManager` and a 3-shard
    :class:`ShardedPartitionManager` with the *same* synthetic entry
    stream (no solver involved) and checks every ``merged_for`` answer:
    same merge flag, same resulting pending sets — even for atoms carrying
    unhashable constants, which force the index's imprecise fallback.
    """
    rng = random.Random(seed)
    plain = PartitionManager()
    sharded = ShardedPartitionManager(3)
    sequence = 0
    for step in range(40):
        sequence += 1
        roll = rng.random()
        flight = rng.randrange(1, 7)
        if roll < 0.15:
            terms = [Variable("f"), Variable("s")]
        elif roll < 0.25:
            # Unhashable constant: exercises the imprecise fallback.
            terms = [Constant([flight]), Variable("s")]
        else:
            terms = [Constant(flight), Variable("s")]
        body = [Atom.body("Available", list(terms))]
        updates = [Atom.delete("Available", list(terms))]
        txn = ResourceTransaction(body=tuple(body), updates=tuple(updates))
        renamed = txn.rename_variables(f"@{txn.transaction_id}")
        atoms = tuple(renamed.body) + tuple(renamed.updates)

        results = []
        for manager in (plain, sharded):
            partition, merged = manager.merged_for(atoms)
            entry = PendingTransaction(
                original=txn, renamed=renamed, sequence=sequence
            )
            partition.append(entry)
            results.append((merged, partition.transaction_ids()))
        assert results[0] == results[1], f"diverged at step {step}"
        assert partition_fingerprint(plain) == partition_fingerprint(sharded)
    assert plain.statistics.merges == sharded.statistics.merges
    # The stream contained unhashable constants, so the sharded run must
    # have exercised the imprecise fallback at least once.
    assert sharded.index.statistics.imprecise_probes > 0
    sharded.close()


def test_cross_shard_merge_preserves_equivalence():
    """The targeted cross-shard case: pinned partitions on different shards
    merged by a wildcard arrival behave exactly like the unsharded scan."""
    plain = make_qdb(1)
    sharded = make_qdb(2)
    stream = [
        "-Available(1, ?s), +Bookings('a', 1, ?s) :-1 Available(1, ?s)",
        "-Available(2, ?s), +Bookings('b', 2, ?s) :-1 Available(2, ?s)",
        "-Available(3, ?s), +Bookings('c', 3, ?s) :-1 Available(3, ?s)",
        # Wildcard: unifies with all three → three-way (cross-shard) merge.
        "-Available(?f, ?s), +Bookings('d', ?f, ?s) :-1 Available(?f, ?s)",
        # Pinned follow-up lands in the merged partition on both sides.
        "-Available(2, ?s), +Bookings('e', 2, ?s) :-1 Available(2, ?s)",
    ]
    for text in stream:
        transaction = parse_transaction(text)
        assert (
            plain.execute(transaction).committed
            == sharded.execute(transaction).committed
        )
    assert partition_fingerprint(plain.state.partitions) == (
        partition_fingerprint(sharded.state.partitions)
    )
    assert sharded.state.partitions.statistics.cross_shard_merges >= 1
    assert len(plain.state.partitions) == len(sharded.state.partitions) == 1
    sharded.close()
