"""Unit tests for the signature-based routing index.

The index must be *conservative* — every partition the exhaustive
pairwise-unification scan would find is a candidate — and *incremental* —
extend/refresh/discard keep it equal to an index rebuilt from scratch.
"""

from __future__ import annotations

import random


from repro.core.partition import Partition
from repro.core.quantum_state import PendingTransaction
from repro.core.resource_transaction import ResourceTransaction
from repro.core.signature import SignatureIndex
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable


def make_entry(body, updates, sequence):
    """A pending entry whose renamed transaction is the transaction itself."""
    txn = ResourceTransaction(body=tuple(body), updates=tuple(updates))
    renamed = txn.rename_variables(f"@{txn.transaction_id}")
    return PendingTransaction(original=txn, renamed=renamed, sequence=sequence)


def booking_entry(flight, sequence, seat=None):
    """A flight-booking entry, constant-pinned to ``flight``.

    ``seat=None`` books any seat (wildcard position); otherwise the seat is
    pinned too.
    """
    seat_term = Variable("s") if seat is None else Constant(seat)
    body = [Atom.body("Available", [Constant(flight), seat_term])]
    updates = [
        Atom.delete("Available", [Constant(flight), seat_term]),
        Atom.insert("Bookings", [Constant(f"u{sequence}"), Constant(flight), seat_term]),
    ]
    return make_entry(body, updates, sequence)


def partition_with(*entries):
    partition = Partition()
    for entry in entries:
        partition.append(entry)
    return partition


def probe_atoms(entry):
    return tuple(entry.renamed.body) + tuple(entry.renamed.updates)


class TestConservative:
    def test_exact_overlap_implies_candidate(self):
        """Randomised: the index never filters a truly overlapping partition."""
        rng = random.Random(7)
        index = SignatureIndex()
        partitions = []
        sequence = 0
        for _ in range(12):
            entries = []
            for _ in range(rng.randrange(1, 4)):
                sequence += 1
                flight = rng.randrange(6)
                seat = rng.choice([None, f"s{rng.randrange(4)}"])
                entries.append(booking_entry(flight, sequence, seat=seat))
            partition = partition_with(*entries)
            partitions.append(partition)
            index.add(partition)
        for _ in range(120):
            sequence += 1
            flight = rng.randrange(6)
            seat = rng.choice([None, f"s{rng.randrange(4)}"])
            probe = probe_atoms(booking_entry(flight, sequence, seat=seat))
            candidates = index.candidates(probe)
            for partition in partitions:
                if partition.overlaps_atoms(probe):
                    assert partition.partition_id in candidates

    def test_constant_pinned_probe_is_precise(self):
        """Distinct pinned constants route to exactly the one partition."""
        index = SignatureIndex()
        partitions = {
            flight: partition_with(booking_entry(flight, flight + 1))
            for flight in range(8)
        }
        for partition in partitions.values():
            index.add(partition)
        for flight, partition in partitions.items():
            probe = probe_atoms(booking_entry(flight, 100 + flight))
            assert index.candidates(probe) == {partition.partition_id}

    def test_wildcard_probe_reaches_all_same_relation_partitions(self):
        index = SignatureIndex()
        pinned = partition_with(booking_entry(3, 1))
        other = partition_with(booking_entry(4, 2))
        unrelated = partition_with(
            make_entry(
                [Atom.body("Hotels", [Variable("h")])],
                [Atom.delete("Hotels", [Variable("h")])],
                3,
            )
        )
        for partition in (pinned, other, unrelated):
            index.add(partition)
        probe = probe_atoms(booking_entry(5, 4, seat=None))
        probe_any_flight = tuple(
            Atom.body("Available", [Variable("f"), Variable("s")]) for _ in (1,)
        )
        assert index.candidates(probe_any_flight) == {
            pinned.partition_id,
            other.partition_id,
        }
        # A pinned probe on flight 5 matches nothing: all partitions pin
        # other flights and none leaves the flight position wildcard.
        assert index.candidates(probe) == frozenset()

    def test_unknown_relation_has_no_candidates(self):
        index = SignatureIndex()
        index.add(partition_with(booking_entry(1, 1)))
        probe = (Atom.body("Cars", [Constant(1)]),)
        assert index.candidates(probe) == frozenset()

    def test_arity_mismatch_has_no_candidates(self):
        index = SignatureIndex()
        index.add(partition_with(booking_entry(1, 1)))
        probe = (Atom.body("Available", [Constant(1)]),)
        assert index.candidates(probe) == frozenset()


class TestIncrementalMaintenance:
    def rebuild(self, partitions):
        fresh = SignatureIndex()
        for partition in partitions:
            fresh.add(partition)
        return fresh

    def assert_equivalent(self, index, rebuilt, probes):
        for probe in probes:
            assert index.candidates(probe) == rebuilt.candidates(probe)

    def test_extend_matches_rebuild(self):
        index = SignatureIndex()
        partition = partition_with(booking_entry(1, 1))
        index.add(partition)
        new_entry = booking_entry(1, 2, seat="s9")
        partition.append(new_entry)
        index.extend(partition, new_entry)
        rebuilt = self.rebuild([partition])
        probes = [probe_atoms(booking_entry(1, 10, seat="s9")),
                  probe_atoms(booking_entry(1, 11))]
        self.assert_equivalent(index, rebuilt, probes)

    def test_refresh_drops_stale_postings(self):
        index = SignatureIndex()
        e1, e2 = booking_entry(1, 1, seat="s1"), booking_entry(2, 2, seat="s2")
        partition = partition_with(e1, e2)
        index.add(partition)
        partition.pending = [e2]
        index.refresh(partition)
        probe_flight1 = probe_atoms(booking_entry(1, 10, seat="s1"))
        assert index.candidates(probe_flight1) == frozenset()
        probe_flight2 = probe_atoms(booking_entry(2, 11, seat="s2"))
        assert index.candidates(probe_flight2) == {partition.partition_id}

    def test_discard_forgets_partition(self):
        index = SignatureIndex()
        partition = partition_with(booking_entry(1, 1))
        index.add(partition)
        assert partition.partition_id in index
        index.discard(partition.partition_id)
        assert partition.partition_id not in index
        assert index.statistics.postings == 0
        assert index.candidates(probe_atoms(booking_entry(1, 2))) == frozenset()


class TestImpreciseFallback:
    def test_unhashable_constant_marks_partition_imprecise(self):
        index = SignatureIndex()
        partition = partition_with(
            make_entry(
                [Atom.body("Weird", [Constant([1, 2])])],
                [Atom.delete("Weird", [Constant([1, 2])])],
                1,
            )
        )
        index.add(partition)
        assert partition.partition_id in index._imprecise
        # Imprecise partitions are candidates for *every* probe, even ones
        # that share no relation — the exact scan still decides.
        probe = probe_atoms(booking_entry(1, 2))
        assert partition.partition_id in index.candidates(probe)
        assert index.statistics.imprecise_probes >= 1

    def test_unhashable_probe_constant_stays_conservative(self):
        index = SignatureIndex()
        partition = partition_with(booking_entry(1, 1))
        index.add(partition)
        probe = (Atom.body("Available", [Constant(1), Constant([1, 2])]),)
        # The unhashable position is left unconstrained; the pinned flight
        # still narrows to the right partition.
        assert index.candidates(probe) == {partition.partition_id}

    def test_discard_clears_imprecise_flag(self):
        index = SignatureIndex()
        partition = partition_with(
            make_entry(
                [Atom.body("Weird", [Constant([1])])],
                [Atom.delete("Weird", [Constant([1])])],
                1,
            )
        )
        index.add(partition)
        index.discard(partition.partition_id)
        assert partition.partition_id not in index._imprecise
        assert index.candidates(probe_atoms(booking_entry(1, 2))) == frozenset()
