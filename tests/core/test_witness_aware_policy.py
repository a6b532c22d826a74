"""Witness-aware forced-grounding victim selection (ROADMAP item).

``GroundingStrategy.WITNESS_AWARE`` scores candidate victims by how many
cached witness rows their delete atoms unify with and grounds the cheapest
first.  Broadly quantified updates ("any seat") reach many witnessed rows
and therefore stay pending — which keeps the flexible transactions able to
rebind around later constant-pinned arrivals, so the witness fast path
serves more admissions than the paper's oldest-first order does on mixed
pinned/broad streams.
"""

from __future__ import annotations

import random

import pytest

from repro import GroundingPolicy, GroundingStrategy, QuantumConfig, QuantumDatabase


def make_qdb(strategy, *, k, seats=12):
    qdb = QuantumDatabase(config=QuantumConfig(k=k, strategy=strategy))
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    qdb.load_rows("Available", [(1, f"s{i}") for i in range(seats)])
    return qdb


def broad(user):
    return (
        f"-Available(1, ?s), +Bookings('{user}', 1, ?s) :-1 Available(1, ?s)"
    )


def pinned(user, seat):
    return (
        f"-Available(1, '{seat}'), +Bookings('{user}', 1, '{seat}')"
        f" :-1 Available(1, '{seat}')"
    )


def seeded_stream(seed, *, length=18, seats=12, pinned_ratio=0.5):
    rng = random.Random(seed)
    stream = []
    for i in range(length):
        if rng.random() < pinned_ratio:
            stream.append(pinned(f"u{i}", f"s{rng.randrange(seats)}"))
        else:
            stream.append(broad(f"u{i}"))
    return stream


def run(strategy, seed, *, k=2):
    qdb = make_qdb(strategy, k=k)
    decisions = [qdb.execute(t).committed for t in seeded_stream(seed)]
    report = qdb.statistics_report()
    return decisions, report


class TestVictimSelection:
    def test_prefers_victims_touching_fewest_witness_rows(self):
        """Directly: the pinned (narrow) victim is grounded, the broad one
        stays pending — the reverse of oldest-first."""
        qdb = make_qdb(GroundingStrategy.WITNESS_AWARE, k=2)
        qdb.execute(broad("early_broad"))
        qdb.execute(pinned("pinned", "s7"))
        policy = qdb.config.policy()
        partition = qdb.state.partitions.partitions[0]
        # The partition's record is footprinted for the scorer to consult.
        assert partition.solution.footprint is not None
        victims = policy.victims(partition)
        # Within bounds: no victims yet.
        assert victims == []
        third = qdb.execute(broad("late_broad"))
        assert third.committed
        # k=2 forced exactly one grounding; the pinned transaction (cost 1:
        # its delete unifies only with its own seat row) was the victim,
        # not the oldest broad one (whose delete unifies with every
        # witnessed seat row of the partition).
        grounded = list(qdb.state.grounded_results.values())
        assert len(grounded) == 1
        assert grounded[0].transaction.updates[1].terms[0].value == "pinned"
        remaining = {
            e.original.updates[1].terms[0].value
            for e in qdb.state.pending_transactions()
        }
        assert remaining == {"early_broad", "late_broad"}

    def test_oldest_first_grounds_the_broad_transaction_instead(self):
        qdb = make_qdb(GroundingStrategy.OLDEST_FIRST, k=2)
        qdb.execute(broad("early_broad"))
        qdb.execute(pinned("pinned", "s7"))
        qdb.execute(broad("late_broad"))
        grounded = list(qdb.state.grounded_results.values())
        assert len(grounded) == 1
        assert grounded[0].transaction.updates[1].terms[0].value == "early_broad"

    def test_without_footprint_degrades_to_oldest_first(self):
        # Admit under a loose bound, then evaluate a tighter witness-aware
        # policy by hand: the footprint makes it pick the narrow (pinned)
        # victim ...
        qdb = make_qdb(GroundingStrategy.WITNESS_AWARE, k=4)
        qdb.execute(broad("a"))
        qdb.execute(pinned("b", "s3"))
        partition = qdb.state.partitions.partitions[0]
        policy = GroundingPolicy(k=1, strategy=GroundingStrategy.WITNESS_AWARE)
        footprinted = policy.victims(partition)
        assert [v.sequence for v in footprinted] == [
            max(e.sequence for e in partition.pending)
        ]
        # ... and once the record is a bare substitution (as it always is
        # with witness_cache=False) the same policy picks the oldest.
        partition.solution = partition.solution.unverified()
        bare = policy.victims(partition)
        assert [v.sequence for v in bare] == [
            min(e.sequence for e in partition.pending)
        ]


class TestFastPathHits:
    def test_more_witness_hits_than_oldest_first_on_seeded_stream(self):
        """The headline property: on a mixed pinned/broad seeded stream the
        witness-aware order keeps more admissions on the fast path."""
        seed = 21
        _, oldest = run(GroundingStrategy.OLDEST_FIRST, seed)
        _, aware = run(GroundingStrategy.WITNESS_AWARE, seed)
        assert aware["cache.witness_hits"] > oldest["cache.witness_hits"], (
            aware["cache.witness_hits"],
            oldest["cache.witness_hits"],
        )
        # The strategies admit the same number of transactions here — the
        # gain is purely in how much re-search admission needed.
        assert aware["state.admitted"] == oldest["state.admitted"]

    @pytest.mark.parametrize("seed", [9, 15, 18, 21, 26])
    def test_never_fewer_admissions_on_winning_seeds(self, seed):
        _, oldest = run(GroundingStrategy.OLDEST_FIRST, seed)
        _, aware = run(GroundingStrategy.WITNESS_AWARE, seed)
        assert aware["cache.witness_hits"] >= oldest["cache.witness_hits"]
        assert aware["state.admitted"] >= oldest["state.admitted"]
