"""The process shard backend: payload round-trips, equivalence, timeouts.

The contract under test (see ``docs/architecture.md``, "Shard backends"):
a plan shipped to a worker process as a pickled
:class:`~repro.sharding.backend.PlanPayload` must come back as a
:class:`~repro.sharding.backend.PlanResult` describing *exactly* the plan
the in-process path would have computed — same serialization order, same
grounding substitution, same satisfied-optional counts — because the
snapshot preserves row insertion order and the plan function is pure.
"""

from __future__ import annotations

import pickle
import threading
import time

import pytest

from repro import QuantumConfig, QuantumDatabase, parse_transaction
from repro.errors import GroundingTimeout, QuantumError
from repro.sharding import ShardBackend, ShardedPartitionManager
from repro.sharding.backend import (
    AdmissionResult,
    admit_in_worker,
    build_admission_payload,
    build_payload,
    dump_payload,
    execute_admission,
    execute_payload,
    plan_in_worker,
    restore_database,
    snapshot_tables,
)


def make_qdb(shards, *, backend="thread", k=8, flights=5, seats=3):
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


def pinned(user, flight):
    return parse_transaction(
        f"-Available({flight}, ?s), +Bookings('{user}', {flight}, ?s)"
        f" :-1 Available({flight}, ?s)"
    )


class TestShardBackendEnum:
    def test_coerce_accepts_strings_and_enum(self):
        assert ShardBackend.coerce("thread") is ShardBackend.THREAD
        assert ShardBackend.coerce("PROCESS") is ShardBackend.PROCESS
        assert ShardBackend.coerce(ShardBackend.THREAD) is ShardBackend.THREAD

    def test_coerce_rejects_unknown(self):
        with pytest.raises(QuantumError, match="unknown shard backend"):
            ShardBackend.coerce("fibers")

    def test_config_validates_backend_eagerly(self):
        with pytest.raises(QuantumError, match="unknown shard backend"):
            QuantumConfig(shards=2, shard_backend="gpu")
        config = QuantumConfig(shards=2, shard_backend="process")
        assert config.shard_backend is ShardBackend.PROCESS


class TestSnapshotRoundTrip:
    def test_snapshot_preserves_rows_order_and_indexes(self):
        qdb = make_qdb(1)
        qdb.database.table("Available").create_index(["flight"])
        snapshots = snapshot_tables(qdb.database, ["Available", "NoSuchTable"])
        assert [s.name for s in snapshots] == ["Available"]
        restored = restore_database(snapshots)
        original = qdb.database.table("Available")
        copy = restored.table("Available")
        assert [r.values for r in copy.scan()] == [
            r.values for r in original.scan()
        ]
        assert [i.columns for i in copy.indexes()] == [
            i.columns for i in original.indexes()
        ]
        # The missing relation stays missing: the search treats both the
        # same way (no rows).
        assert not restored.has_table("NoSuchTable")

    def test_payload_pickle_round_trip(self):
        qdb = make_qdb(2)
        for flight in (1, 2, 3):
            assert qdb.execute(pinned(f"u{flight}", flight)).committed
        partition = qdb.state.partitions.partitions[0]
        payload = build_payload(
            partition,
            list(partition.pending),
            database=qdb.database,
            serializability=qdb.state.serializability,
            forced=False,
        )
        blob = dump_payload(payload)
        back = pickle.loads(blob)
        assert back.partition_id == partition.partition_id
        assert back.target_ids == tuple(partition.transaction_ids())
        assert [e.transaction_id for e in back.entries] == list(
            partition.transaction_ids()
        )
        qdb.close()


class TestPlanEquivalence:
    def test_shipped_plan_matches_in_process_plan(self):
        """execute_payload over the snapshot == plan_grounding in-process."""
        qdb = make_qdb(2)
        for flight in (1, 1, 2, 2, 3):
            assert qdb.execute(pinned(f"u{flight}_more", flight)).committed
        for partition in list(qdb.state.partitions.partitions):
            targets = list(partition.pending)
            local = qdb.state.plan_grounding(partition, targets)
            payload = build_payload(
                partition,
                targets,
                database=qdb.database,
                serializability=qdb.state.serializability,
                forced=False,
            )
            shipped = plan_in_worker(dump_payload(payload))
            assert shipped.satisfiable
            assert shipped.to_ground_ids == tuple(
                e.transaction_id for e in local.plan.to_ground
            )
            assert shipped.remaining_ids == tuple(
                e.transaction_id for e in local.plan.remaining_order
            )
            assert shipped.reordered == local.plan.reordered
            assert shipped.substitution == local.substitution
            assert dict(shipped.satisfied_atoms) == dict(local.satisfied_atoms)
        qdb.close()

    def test_resolve_plan_result_applies_worker_plan(self):
        """A PlanResult rehydrates onto the writer's entries and applies."""
        qdb = make_qdb(2)
        assert qdb.execute(pinned("alice", 1)).committed
        assert qdb.execute(pinned("bob", 1)).committed
        partition = qdb.state.partitions.partitions[0]
        payload = build_payload(
            partition,
            list(partition.pending),
            database=qdb.database,
            serializability=qdb.state.serializability,
            forced=False,
        )
        result = execute_payload(payload)
        planned = qdb.state._resolve_plan_result(partition, result)
        grounded = qdb.state.apply_grounding(planned)
        assert {g.transaction_id for g in grounded} == set(result.to_ground_ids)
        assert qdb.pending_count == 0
        qdb.close()


class TestProcessBackendEndToEnd:
    def test_ground_all_identical_across_backends(self):
        """Unsharded, thread-sharded and process-sharded databases admit and
        ground a pinned stream to identical valuations."""
        databases = {
            "unsharded": make_qdb(1),
            "thread": make_qdb(2, backend="thread"),
            "process": make_qdb(2, backend="process"),
        }
        stream = [pinned(f"u{i}", 1 + i % 4) for i in range(8)]
        decisions = {name: [] for name in databases}
        for transaction in stream:
            for name, qdb in databases.items():
                decisions[name].append(qdb.execute(transaction).committed)
        assert decisions["unsharded"] == decisions["thread"]
        assert decisions["unsharded"] == decisions["process"]
        groundings = {
            name: {g.transaction_id: g.valuation for g in qdb.ground_all()}
            for name, qdb in databases.items()
        }
        assert groundings["unsharded"] == groundings["thread"]
        assert groundings["unsharded"] == groundings["process"]
        report = databases["process"].statistics_report()
        assert report["sharding.backend"] == "process"
        assert report["sharding.worker_round_trips"] > 0
        assert report["sharding.plan_payload_bytes"] > 0
        thread_report = databases["thread"].statistics_report()
        assert thread_report["sharding.backend"] == "thread"
        assert thread_report["sharding.worker_round_trips"] == 0
        for qdb in databases.values():
            qdb.close()

    def test_unsatisfiable_later_group_applies_nothing(self):
        """Regression: a later group's unsatisfiable PlanResult must fail
        *before* any earlier group's plan is applied, matching the thread
        backend (which raises in the plan phase).  Previously the apply
        loop interleaved resolution and application, so earlier groups
        were already grounded when the bad result raised."""
        import dataclasses

        from repro.errors import QuantumStateError

        qdb = make_qdb(2, backend="process")
        for flight in (1, 2, 3, 4):
            assert qdb.execute(pinned(f"u{flight}", flight)).committed
        manager = qdb.state.partitions
        original = manager.plan_on_shards

        def sabotage_last(groups, plan, **kwargs):
            planned = original(groups, plan, **kwargs)
            planned[-1] = dataclasses.replace(
                planned[-1], satisfiable=False, substitution=None
            )
            return planned

        manager.plan_on_shards = sabotage_last
        before = qdb.pending_count
        assert before >= 2  # multiple groups, so there is an "earlier" one
        with pytest.raises(QuantumStateError, match="no grounding exists"):
            qdb.ground_all()
        assert qdb.pending_count == before
        manager.plan_on_shards = original
        assert len(qdb.ground_all()) == before
        qdb.close()

    def test_process_pool_shuts_down_on_close(self):
        qdb = make_qdb(2, backend="process")
        for flight in (1, 2, 3, 4):
            assert qdb.execute(pinned(f"u{flight}", flight)).committed
        qdb.ground_all()
        shards = qdb.state.partitions.shards
        assert any(shard.started for shard in shards)
        qdb.close()
        assert not any(shard.started for shard in shards)
        # close() is idempotent and the executors restart lazily.
        qdb.close()


class TestAdmissionShipping:
    """Shipped admission searches: payload round-trips, decision
    equivalence with the inline ``SolutionCache.ensure`` path, and the
    writer-side fallbacks (validation mismatch, worker timeout)."""

    def _seeded(self):
        """A 2-shard database whose flight-1 partition holds two entries."""
        qdb = make_qdb(2)
        for i, flight in enumerate((1, 1, 2)):
            assert qdb.execute(pinned(f"s{i}", flight)).committed
        partition = next(
            p for p in qdb.state.partitions.partitions if len(p.pending) == 2
        )
        return qdb, partition

    def _arrival_payload(self, qdb, partition, user="newbie", flight=1):
        incoming = pinned(user, flight)
        renamed = incoming.rename_variables(f"@{incoming.transaction_id}")
        payload = build_admission_payload(
            partition,
            renamed,
            incoming.transaction_id,
            database=qdb.database,
            enable_witness=qdb.state.cache.enable_witness,
        )
        return incoming, renamed, payload

    def test_admission_payload_pickle_round_trip(self):
        qdb, partition = self._seeded()
        incoming, renamed, payload = self._arrival_payload(qdb, partition)
        back = pickle.loads(dump_payload(payload))
        assert back.partition_id == partition.partition_id
        assert back.transaction_id == incoming.transaction_id
        assert [e.transaction_id for e in back.entries] == list(
            partition.transaction_ids()
        )
        # One record travels: the substitution and its footprint.
        assert partition.solution.footprint is not None
        assert back.solution == partition.solution
        # Every relation the partition or the arrival touches ships along.
        assert {s.name for s in back.tables} == {"Available", "Bookings"}
        qdb.close()

    def test_shipped_admission_matches_inline_ensure(self):
        """admit_in_worker over the snapshot == SolutionCache.ensure inline."""
        qdb, partition = self._seeded()
        state = qdb.state
        incoming, renamed, payload = self._arrival_payload(qdb, partition)
        shipped = admit_in_worker(dump_payload(payload))
        assert shipped.partition_id == partition.partition_id
        assert shipped.transaction_id == incoming.transaction_id
        assert shipped.pending_ids == tuple(partition.transaction_ids())
        new_factor = partition.composition().preview_factor(renamed)
        inline = state.cache.ensure(
            partition, new_factor, renamed.hard_variables()
        )
        assert shipped.probe == inline
        assert inline.used_witness
        qdb.close()

    def test_shipped_rejection_matches_inline(self):
        """A capacity-exhausted arrival rejects identically on both paths."""
        qdb = make_qdb(2)
        for i in range(3):  # flight 1 has exactly 3 seats
            assert qdb.execute(pinned(f"s{i}", 1)).committed
        partition = next(
            p for p in qdb.state.partitions.partitions if len(p.pending) == 3
        )
        _incoming, renamed, payload = self._arrival_payload(
            qdb, partition, user="late"
        )
        shipped = execute_admission(payload)
        assert shipped.probe.substitution is None
        new_factor = partition.composition().preview_factor(renamed)
        inline = qdb.state.cache.ensure(
            partition, new_factor, renamed.hard_variables()
        )
        assert inline.substitution is None
        assert shipped.probe == inline
        qdb.close()

    def test_validation_mismatch_falls_back_inline(self):
        """A result that fails id validation is discarded, not committed.

        The fake shard returns a *rejecting* result with bogus ids: if the
        writer trusted it, the admission below would be refused, so the
        committed outcome proves the inline fallback reran the search.
        """
        from concurrent.futures import Future

        from repro.core.solution_cache import AdmissionProbe

        qdb = make_qdb(2, backend="process")
        manager = qdb.state.partitions
        bogus = AdmissionResult(
            partition_id=-1,
            transaction_id=-1,
            pending_ids=(),
            probe=AdmissionProbe(substitution=None),
        )

        class FakeShard:
            def submit(self, fn, *args):
                future: Future = Future()
                future.set_result(bogus)
                return future

        manager.admission_ship_target = lambda partition: FakeShard()
        assert qdb.execute(pinned("alice", 1)).committed
        assert manager.statistics.admission_round_trips == 1
        qdb.close()

    def test_worker_timeout_falls_back_inline(self):
        """A hung worker costs the writer latency, never the decision."""
        from concurrent.futures import Future

        qdb = make_qdb(2, backend="process")
        qdb.state._admission_ship_timeout_s = 0.01

        class HangingShard:
            def submit(self, fn, *args):
                return Future()  # never resolves

        qdb.state.partitions.admission_ship_target = (
            lambda partition: HangingShard()
        )
        assert qdb.execute(pinned("bob", 2)).committed
        qdb.close()

    def test_no_ship_target_off_lanes(self):
        """Without an active lane scope nothing ships — even on the
        process backend, serialized admissions stay inline."""
        qdb = make_qdb(2, backend="process")
        assert qdb.execute(pinned("carol", 1)).committed
        assert qdb.state.partitions.statistics.admission_round_trips == 0
        qdb.close()

    def test_config_rejects_nonpositive_ship_timeout(self):
        with pytest.raises(QuantumError, match="admission_ship_timeout_s"):
            QuantumConfig(shards=2, admission_ship_timeout_s=0)
        unbounded = QuantumConfig(admission_ship_timeout_s=None)
        assert unbounded.admission_ship_timeout_s is None

    def test_warm_prespawns_process_pools(self):
        qdb = make_qdb(2, backend="process")
        shards = qdb.state.partitions.shards
        assert not any(shard.started for shard in shards)
        for shard in shards:
            shard.warm()
        assert all(shard.started for shard in shards)
        qdb.close()
        assert not any(shard.started for shard in shards)


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
        from repro.sharding.shard import Shard

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
