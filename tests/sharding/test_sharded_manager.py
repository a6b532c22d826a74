"""Unit tests for the one partition manager.

Every configuration builds :class:`~repro.core.partition.PartitionManager`
(``ShardedPartitionManager`` is only another name for it).  Its signature
index and transaction map must follow every structural change — appends,
merges, groundings, drops — and a grounding that spans several partitions
must be all or nothing.
"""

from __future__ import annotations

import pytest

from repro import QuantumConfig, QuantumDatabase
from repro.core.partition import PartitionManager
from repro.errors import QuantumError, QuantumStateError
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.sharding import ShardedPartitionManager

FLIGHTS = range(1, 7)


def make_qdb(*, k=8, seats=4, **config):
    qdb = QuantumDatabase(config=QuantumConfig(k=k, **config))
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    qdb.load_rows(
        "Available", [(f, f"s{i}") for f in FLIGHTS for i in range(seats)]
    )
    return qdb


def pinned(user, flight):
    return (
        f"-Available({flight}, ?s), +Bookings('{user}', {flight}, ?s)"
        f" :-1 Available({flight}, ?s)"
    )


def broad(user):
    return "-Available(?f, ?s), +Bookings('%s', ?f, ?s) :-1 Available(?f, ?s)" % user


class TestConfig:
    @pytest.mark.parametrize(
        "config",
        [{}, {"shards": 3}, {"shards": 4, "shard_backend": "thread", "admission_lanes": True}],
        ids=["default", "shards-3", "benchmark"],
    )
    def test_every_config_builds_the_one_manager(self, config):
        qdb = make_qdb(**config)
        assert type(qdb.state.partitions) is PartitionManager
        assert ShardedPartitionManager is PartitionManager

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(QuantumError):
            QuantumConfig(shards=0)

    def test_only_the_thread_backend_builds(self):
        """The process backend was removed; naming it is a typed error,
        while the benchmark's pinned configuration still builds."""
        with pytest.raises(QuantumError, match="was removed"):
            QuantumConfig(shard_backend="process")
        with pytest.raises(QuantumError, match="was removed"):
            QuantumConfig(shards=2, shard_backend="gpu")
        QuantumDatabase(
            config=QuantumConfig(k=4, shards=4, shard_backend="thread", admission_lanes=True)
        )

    def test_close_is_a_no_op(self):
        qdb = make_qdb()
        qdb.close()
        qdb.close()
        assert qdb.execute(pinned("alice", 1)).committed
        assert len(qdb.ground_all()) == 1


class TestIndexAndMap:
    def test_find_of_an_unknown_id_returns_none(self):
        qdb = make_qdb()
        result = qdb.execute(pinned("alice", 1))
        manager = qdb.state.partitions
        partition, entry = manager.find(result.transaction_id)
        assert entry.transaction_id == result.transaction_id
        assert entry in partition.pending
        assert manager.find(99_999_999) is None

    def test_map_follows_admissions_and_groundings(self):
        qdb = make_qdb()
        results = [qdb.execute(pinned(f"u{f}", f)) for f in (1, 1, 2, 3)]
        manager = qdb.state.partitions
        assert manager.pending_count() == 4 == qdb.pending_count
        qdb.check_in(results[0].transaction_id)
        assert manager.find(results[0].transaction_id) is None
        assert manager.pending_count() == 3
        # The partition that lost an entry keeps the one left in it.
        partition, _entry = manager.find(results[1].transaction_id)
        assert partition.transaction_ids() == (results[1].transaction_id,)

    def test_drop_if_empty_releases_the_index_and_the_map(self):
        qdb = make_qdb()
        result = qdb.execute(pinned("alice", 1))
        manager = qdb.state.partitions
        partition = manager.partitions[0]
        pid = partition.partition_id
        assert pid in manager.index
        qdb.check_in(result.transaction_id)
        assert partition not in manager.partitions
        assert pid not in manager.index
        assert manager.find(result.transaction_id) is None
        assert manager.pending_count() == 0
        assert pid not in manager._loose

    def test_a_rejected_arrival_leaves_nothing_behind(self):
        qdb = make_qdb(seats=1)
        assert qdb.execute(pinned("alice", 1)).committed
        manager = qdb.state.partitions
        before = (len(manager), len(manager.index), manager.pending_count())
        assert not qdb.execute(pinned("bob", 1)).committed
        assert (len(manager), len(manager.index), manager.pending_count()) == before


class TestMerge:
    def test_a_broad_arrival_merges_partitions(self):
        qdb = make_qdb()
        first = qdb.execute(pinned("alice", 1))
        second = qdb.execute(pinned("bob", 2))
        manager = qdb.state.partitions
        absorbed = manager.partitions[1].partition_id
        assert len(manager) == 2
        # A wildcard booking unifies with both partitions.
        third = qdb.execute(broad("carol"))
        assert len(manager) == 1
        merged = manager.partitions[0]
        assert merged.transaction_ids() == (
            first.transaction_id,
            second.transaction_id,
            third.transaction_id,
        )
        assert manager.statistics.merges == 1
        assert absorbed not in manager.index
        for result in (first, second, third):
            assert manager.find(result.transaction_id)[0] is merged
        assert manager.pending_count() == 3
        # A read of the absorbed partition's booking routes to ``merged``.
        bob = Atom.body("Bookings", [Constant("bob"), Variable("f"), Variable("s")])
        assert manager.overlapping_partitions([bob]) == [merged]
        # The merged partition is routed to by either flight.
        fourth = qdb.execute(pinned("dave", 2))
        assert manager.find(fourth.transaction_id)[0] is merged


class TestGroundingIsAllOrNothing:
    @pytest.mark.parametrize("explicit", [False, True], ids=["ground_all", "ground"])
    def test_unsatisfiable_later_group_applies_nothing(self, explicit):
        """A later group's failed plan must fail *before* any earlier
        group's plan is applied: every group is planned first."""
        qdb = make_qdb()
        results = [qdb.execute(pinned(f"u{flight}", flight)) for flight in (1, 2, 3, 4)]
        assert all(result.committed for result in results)
        original = qdb.state.plan_grounding
        last = qdb.state.partitions.partitions[-1]

        def sabotage_last(partition, targets, *, forced=False):
            if partition is last:
                raise QuantumStateError("no grounding exists (injected)")
            return original(partition, targets, forced=forced)

        qdb.state.plan_grounding = sabotage_last
        assert qdb.pending_count == 4
        with pytest.raises(QuantumStateError, match="no grounding exists"):
            if explicit:
                qdb.ground([result.transaction_id for result in results])
            else:
                qdb.ground_all()
        assert qdb.pending_count == 4
        assert len(qdb.table("Bookings")) == 0
        assert len(qdb.pending_store.restore()) == 4
        qdb.state.plan_grounding = original
        assert len(qdb.ground_all()) == 4
        assert len(qdb.table("Bookings")) == 4


class TestStatisticsReport:
    def test_report_exposes_the_routing_section(self):
        qdb = make_qdb()
        qdb.execute(pinned("alice", 1))
        qdb.execute(pinned("bob", 2))
        report = qdb.statistics_report()
        assert report["routing.probes"] >= 2
        assert report["partitions.index_filtered"] >= 1
        assert not [key for key in report if "shard" in key]
