"""Unit tests for the sharded partition manager.

Ownership must stay disjoint, routing must follow the signature index,
cross-shard merges must reassign ownership (serialized path), the shared
pending table must track every structural change, and the per-shard
thread pools must plan, time out and shut down cleanly.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import QuantumConfig, QuantumDatabase
from repro.errors import GroundingTimeout, QuantumError, QuantumStateError
from repro.sharding import Shard, ShardedPartitionManager

FLIGHTS = range(1, 7)


def make_qdb(shards, *, k=8, seats=4):
    qdb = QuantumDatabase(config=QuantumConfig(k=k, shards=shards))
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
    def test_default_is_unsharded(self):
        qdb = QuantumDatabase()
        assert not qdb.sharded
        assert not isinstance(qdb.state.partitions, ShardedPartitionManager)

    def test_sharded_config_builds_sharded_manager(self):
        qdb = make_qdb(3)
        assert qdb.sharded
        manager = qdb.state.partitions
        assert isinstance(manager, ShardedPartitionManager)
        assert manager.shard_count == 3
        qdb.close()

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(QuantumError):
            QuantumConfig(shards=0)
        with pytest.raises(QuantumError):
            QuantumConfig(shard_workers=0)
        with pytest.raises(QuantumError):
            ShardedPartitionManager(0)

    def test_only_the_thread_backend_builds(self):
        """The process backend was removed; naming it is a typed error,
        while the benchmark's pinned configuration still builds."""
        with pytest.raises(QuantumError, match="was removed"):
            QuantumConfig(shard_backend="process")
        with pytest.raises(QuantumError, match="was removed"):
            QuantumConfig(shards=2, shard_backend="gpu")
        config = QuantumConfig(
            k=4, shards=4, shard_backend="thread", admission_lanes=True
        )
        qdb = QuantumDatabase(config=config)
        assert qdb.state.partitions.shard_count == 4
        qdb.close()


class TestOwnership:
    def test_partitions_disjoint_across_shards(self):
        qdb = make_qdb(3)
        for flight in FLIGHTS:
            qdb.execute(pinned(f"u{flight}", flight))
        manager = qdb.state.partitions
        owned = [pid for shard in manager.shards for pid in shard.partitions]
        assert len(owned) == len(set(owned)) == len(manager.partitions)
        for partition in manager.partitions:
            shard = manager.shard_for(partition.partition_id)
            assert shard is not None and shard.owns(partition.partition_id)
        # Least-loaded assignment spreads six flights over three shards.
        assert all(len(shard) == 2 for shard in manager.shards)
        qdb.close()

    def test_routing_targets_owning_shard(self):
        qdb = make_qdb(2)
        qdb.execute(pinned("alice", 1))
        qdb.execute(pinned("bob", 2))
        manager = qdb.state.partitions
        for flight, user in ((1, "carol"), (2, "dave")):
            atoms = qdb.state.partitions.partitions[flight - 1].atoms()
            shard, candidates = manager.route(atoms)
            assert shard is manager.shard_for(
                manager.partitions[flight - 1].partition_id
            )
            assert candidates == {manager.partitions[flight - 1].partition_id}
        qdb.close()

    def test_drop_if_empty_releases_everything(self):
        qdb = make_qdb(2)
        result = qdb.execute(pinned("alice", 1))
        manager = qdb.state.partitions
        partition = manager.partitions[0]
        pid = partition.partition_id
        qdb.check_in(result.transaction_id)
        assert partition not in manager.partitions
        assert manager.shard_for(pid) is None
        assert pid not in manager.index
        assert manager.pending_table.total() == 0
        qdb.close()


class TestCrossShardMerge:
    def test_broad_arrival_merges_across_shards(self):
        qdb = make_qdb(2)
        qdb.execute(pinned("alice", 1))
        qdb.execute(pinned("bob", 2))
        manager = qdb.state.partitions
        before = {p.partition_id for p in manager.partitions}
        assert len(before) == 2
        owners = {
            manager.shard_for(pid).shard_id for pid in before
        }
        assert len(owners) == 2  # one partition per shard
        # A wildcard booking unifies with both partitions: cross-shard merge.
        qdb.execute(broad("carol"))
        assert len(manager.partitions) == 1
        merged = manager.partitions[0]
        assert len(merged) == 3
        assert manager.statistics.merges == 1
        assert manager.statistics.cross_shard_merges == 1
        # The surviving partition has exactly one owner; the absorbed
        # partition was disowned everywhere.
        owned = [pid for shard in manager.shards for pid in shard.partitions]
        assert owned == [merged.partition_id]
        assert manager.pending_table.total() == 3
        rows = manager.pending_table.rows()
        assert {ref.partition_id for ref in rows.values()} == {
            merged.partition_id
        }
        qdb.close()

    def test_same_shard_merge_not_counted_cross_shard(self):
        # A single-shard sharded manager: merges happen, but never across
        # shards.  (``QuantumConfig(shards=1)`` deliberately keeps the plain
        # manager, so inject the sharded one directly.)
        qdb = make_qdb(2)
        qdb.state.partitions = ShardedPartitionManager(1)
        qdb.execute(pinned("alice", 1))
        qdb.execute(pinned("bob", 2))
        qdb.execute(broad("carol"))
        manager = qdb.state.partitions
        assert manager.statistics.merges == 1
        assert manager.statistics.cross_shard_merges == 0
        qdb.close()


class TestPendingTable:
    def test_tracks_admissions_and_groundings(self):
        qdb = make_qdb(2)
        results = [qdb.execute(pinned(f"u{f}", f)) for f in (1, 2, 3)]
        manager = qdb.state.partitions
        table = manager.pending_table
        assert table.total() == 3 == qdb.pending_count
        ref = table.get(results[0].transaction_id)
        assert ref is not None
        assert ref.sequence == 1
        assert manager.shard_for(ref.partition_id).shard_id == ref.shard_id
        by_shard = table.by_shard()
        assert sum(by_shard.values()) == 3
        qdb.check_in(results[1].transaction_id)
        assert table.total() == 2
        assert table.get(results[1].transaction_id) is None
        qdb.close()

    def test_find_uses_table(self):
        qdb = make_qdb(2)
        result = qdb.execute(pinned("alice", 1))
        manager = qdb.state.partitions
        located = manager.find(result.transaction_id)
        assert located is not None
        partition, entry = located
        assert entry.transaction_id == result.transaction_id
        assert manager.find(99_999_999) is None
        qdb.close()


class TestShardPlanFanout:
    def test_ground_all_plans_on_shard_executors(self):
        qdb = make_qdb(3)
        for flight in FLIGHTS:
            qdb.execute(pinned(f"u{flight}", flight))
        manager = qdb.state.partitions
        assert not any(shard.started for shard in manager.shards)
        grounded = qdb.ground_all()
        assert len(grounded) == len(FLIGHTS)
        assert any(shard.started for shard in manager.shards)
        qdb.close()
        assert not any(shard.started for shard in manager.shards)

    def test_close_is_idempotent(self):
        qdb = make_qdb(2)
        qdb.close()
        qdb.close()

    def test_close_joins_the_pool_and_restarts_lazily(self):
        qdb = make_qdb(2)
        for flight in (1, 2, 3, 4):
            assert qdb.execute(pinned(f"u{flight}", flight)).committed
        qdb.ground_all()
        shards = qdb.state.partitions.shards
        assert any(shard.started for shard in shards)
        qdb.close()
        assert not any(shard.started for shard in shards)
        # close() is idempotent and the executors restart lazily.
        qdb.close()
        for flight in (5, 6):
            assert qdb.execute(pinned(f"v{flight}", flight)).committed
        assert len(qdb.ground_all()) == 2
        assert any(shard.started for shard in shards)
        qdb.close()

    def test_unsatisfiable_later_group_applies_nothing(self):
        """A later group's failed plan must fail *before* any earlier
        group's plan is applied: every plan is collected first."""
        qdb = make_qdb(2)
        for flight in (1, 2, 3, 4):
            assert qdb.execute(pinned(f"u{flight}", flight)).committed
        original = qdb.state.plan_grounding
        last = qdb.state.partitions.partitions[-1]

        def sabotage_last(partition, targets, *, forced=False):
            if partition is last:
                raise QuantumStateError("no grounding exists (injected)")
            return original(partition, targets, forced=forced)

        qdb.state.plan_grounding = sabotage_last
        before = qdb.pending_count
        assert before >= 2  # multiple groups, so there is an "earlier" one
        with pytest.raises(QuantumStateError, match="no grounding exists"):
            qdb.ground_all()
        assert qdb.pending_count == before
        qdb.state.plan_grounding = original
        assert len(qdb.ground_all()) == before
        qdb.close()


class TestPlanTimeouts:
    def _manager_with_group(self):
        qdb = make_qdb(2)
        assert qdb.execute(pinned("alice", 1)).committed
        manager = qdb.state.partitions
        partition = manager.partitions[0]
        return qdb, manager, [(partition, list(partition.pending))]

    def test_plan_on_shards_times_out(self):
        qdb, manager, groups = self._manager_with_group()

        def slow_plan(partition, entries):
            time.sleep(0.5)
            return "late"

        with pytest.raises(GroundingTimeout):
            manager.plan_on_shards(groups, slow_plan, timeout_s=0.02)
        qdb.close()

    def test_plan_on_shards_without_timeout_waits(self):
        qdb, manager, groups = self._manager_with_group()

        def plan(partition, entries):
            return len(entries)

        assert manager.plan_on_shards(groups, plan) == [1]
        qdb.close()

    def test_timeout_leaves_state_unchanged(self):
        """A timed-out ground() applies nothing: everything stays pending."""
        qdb = make_qdb(2)
        for flight in (1, 2):
            assert qdb.execute(pinned(f"u{flight}", flight)).committed
        original = qdb.state.plan_grounding

        def slow_plan_grounding(partition, targets, *, forced=False):
            time.sleep(0.5)
            return original(partition, targets, forced=forced)

        qdb.state.plan_grounding = slow_plan_grounding
        before = qdb.pending_count
        with pytest.raises(GroundingTimeout):
            qdb.ground_all(timeout_s=0.02)
        assert qdb.pending_count == before
        qdb.state.plan_grounding = original
        grounded = qdb.ground_all()
        assert len(grounded) == before
        qdb.close()


class TestExecutorRace:
    def test_concurrent_first_submits_create_exactly_one_executor(self):
        """Regression: two racing first submissions must not leak a pool.

        The unguarded lazy initialisation let both threads observe
        ``_executor is None`` and each build an executor, leaking one;
        creation is now serialized on a lock.
        """
        shard = Shard(0)
        created = []
        original = Shard._create_executor

        def counting_create(self):
            created.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return original(self)

        Shard._create_executor = counting_create
        try:
            barrier = threading.Barrier(8)
            futures = []
            futures_lock = threading.Lock()

            def submit():
                barrier.wait(timeout=5)
                future = shard.submit(sum, (1, 2))
                with futures_lock:
                    futures.append(future)

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert len(created) == 1, f"{len(created)} executors created"
            assert [future.result(timeout=5) for future in futures] == [3] * 8
        finally:
            Shard._create_executor = original
            shard.close()
        assert not shard.started


class TestStatisticsReport:
    def test_report_exposes_routing_section(self):
        qdb = make_qdb(2)
        qdb.execute(pinned("alice", 1))
        report = qdb.statistics_report()
        assert report["routing.shards"] == 2
        assert report["routing.probes"] >= 1
        assert "partitions.index_filtered" in report
        assert "partitions.cross_shard_merges" in report
        qdb.close()
