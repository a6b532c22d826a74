"""Unit tests for the admission-lane machinery itself.

The linearization harness (`test_concurrent_admission_harness.py`) proves
the end-to-end property; these tests pin the individual mechanisms: the
bounded lane queue's typed saturation error (and that the dispatcher never
waits on a full queue while holding the routing lock), the conservative
conflict-pattern prefilter, the per-shard ownership assertions, controller
lifecycle, and the statistics surface.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import QuantumConfig, QuantumDatabase, parse_transaction
from repro.core.partition import PartitionManager
from repro.core.quantum_state import PendingTransaction
from repro.core.resource_transaction import ResourceTransaction
from repro.errors import AdmissionLaneSaturated, QuantumStateError
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.sharding import ShardedPartitionManager
from repro.sharding.admission_lane import (
    conflict_pattern,
    patterns_may_unify,
)


def make_qdb(*, shards=2, lanes=True, k=8, **config_kwargs):
    qdb = QuantumDatabase(
        config=QuantumConfig(
            k=k, shards=shards, admission_lanes=lanes, **config_kwargs
        )
    )
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    qdb.load_rows(
        "Available",
        [(f, f"s{i}") for f in range(1, 7) for i in range(3)],
    )
    return qdb


def booking(user, flight):
    return parse_transaction(
        f"-Available({flight}, ?s), +Bookings('{user}', {flight}, ?s)"
        f" :-1 Available({flight}, ?s)",
        client=user,
    )


class TestConflictPattern:
    """The conservative prefilter must over-approximate unifiability."""

    def _atoms(self, *terms):
        return (Atom.body("Available", list(terms)),)

    def test_distinct_constants_do_not_conflict(self):
        first = conflict_pattern(self._atoms(Constant(1), Variable("s")))
        second = conflict_pattern(self._atoms(Constant(2), Variable("s")))
        assert not patterns_may_unify(first, second)

    def test_equal_constants_conflict(self):
        first = conflict_pattern(self._atoms(Constant(1), Variable("s")))
        second = conflict_pattern(self._atoms(Constant(1), Variable("t")))
        assert patterns_may_unify(first, second)

    def test_wildcard_conflicts_with_everything(self):
        wild = conflict_pattern(self._atoms(Variable("f"), Variable("s")))
        pinned = conflict_pattern(self._atoms(Constant(9), Constant("s1")))
        assert patterns_may_unify(wild, pinned)
        assert patterns_may_unify(pinned, wild)

    def test_different_relations_never_conflict(self):
        first = conflict_pattern((Atom.body("Available", [Constant(1)]),))
        second = conflict_pattern((Atom.body("Bookings", [Constant(1)]),))
        assert not patterns_may_unify(first, second)

    def test_unhashable_constants_compare_by_equality(self):
        first = conflict_pattern(self._atoms(Constant([1]), Variable("s")))
        second = conflict_pattern(self._atoms(Constant([1]), Variable("t")))
        third = conflict_pattern(self._atoms(Constant([2]), Variable("t")))
        assert patterns_may_unify(first, second)
        assert not patterns_may_unify(first, third)


class TestLaneSaturation:
    """Satellite: the bounded queue's typed error and lock discipline."""

    def test_put_raises_typed_error_when_queue_stays_full(self):
        qdb = make_qdb(lane_queue_depth=1, lane_dispatch_timeout_s=0.05)
        controller = qdb.admission_controller()
        assert controller is not None
        release = threading.Event()
        controller.before_admit = lambda _slot, _lane: release.wait(5.0)
        try:
            lane = controller.lanes[0]
            from repro.sharding.admission_lane import _LaneWork

            slots = [None] * 3
            # First item occupies the worker (blocked in before_admit), the
            # second fills the depth-1 queue, the third must time out with
            # the typed error instead of blocking forever.
            lane.put(_LaneWork(0, booking("a", 1), 1, slots), 1.0)
            lane.put(_LaneWork(1, booking("b", 1), 2, slots), 1.0)
            with pytest.raises(AdmissionLaneSaturated):
                lane.put(_LaneWork(2, booking("c", 1), 3, slots), 0.05)
        finally:
            release.set()
            qdb.close()

    def test_dispatcher_never_holds_routing_lock_while_waiting(self):
        """While a dispatch waits on a saturated lane, the routing lock must
        be free — the satellite's actual fix (a blocked router would stall
        every other lane and classification)."""
        qdb = make_qdb(lane_queue_depth=1, lane_dispatch_timeout_s=0.6)
        controller = qdb.admission_controller()
        assert controller is not None
        release = threading.Event()
        controller.before_admit = lambda _slot, _lane: release.wait(5.0)
        # All to one flight => all to one lane; depth 1 + a blocked worker
        # saturates it, so the dispatcher ends up waiting inside put().
        transactions = [booking(f"u{i}", 1) for i in range(4)]
        lock_was_free = threading.Event()

        def probe():
            deadline = time.monotonic() + 3.0
            routing_lock = qdb.state.partitions.routing_lock
            while time.monotonic() < deadline:
                # Give the dispatcher time to actually block in put().
                time.sleep(0.15)
                if routing_lock.acquire(timeout=0.05):
                    routing_lock.release()
                    lock_was_free.set()
                    release.set()
                    return
            release.set()

        prober = threading.Thread(target=probe, daemon=True)
        prober.start()
        results = qdb.commit_batch(transactions)
        prober.join(timeout=5.0)
        qdb.close()
        assert lock_was_free.is_set(), "routing lock was held during the wait"
        # Three seats on flight 1: the fourth booking is (correctly)
        # rejected; the batch itself completed despite the saturation.
        assert [r.committed for r in results] == [True, True, True, False]

    def test_saturation_escalates_to_barrier_not_failure(self):
        """A saturated dispatch degrades to an epoch barrier: the batch
        still completes with decisions identical to the serialized run."""
        slow = make_qdb(lane_queue_depth=1, lane_dispatch_timeout_s=0.02)
        controller = slow.admission_controller()
        assert controller is not None
        controller.before_admit = lambda _slot, _lane: time.sleep(0.05)
        transactions = [booking(f"v{i}", (i % 2) + 1) for i in range(8)]
        results = slow.commit_batch(transactions)
        stats = controller.statistics
        slow_decisions = [r.committed for r in results]
        slow.close()

        plain = make_qdb(lanes=False)
        plain_decisions = [
            r.committed for r in plain.commit_batch(transactions)
        ]
        plain.close()
        assert slow_decisions == plain_decisions
        assert stats.saturation_barriers >= 1


class TestOwnershipAssertions:
    """Partition ownership is asserted on every lane-scoped mutation."""

    def _entry(self, flight, sequence):
        txn = ResourceTransaction(
            body=(Atom.body("Available", [Constant(flight), Variable("s")]),),
            updates=(
                Atom.delete("Available", [Constant(flight), Variable("s")]),
            ),
        )
        renamed = txn.rename_variables(f"@{txn.transaction_id}")
        atoms = tuple(renamed.body) + tuple(renamed.updates)
        return (
            PendingTransaction(original=txn, renamed=renamed, sequence=sequence),
            atoms,
        )

    def test_shard_tags_partitions_it_owns(self):
        manager = ShardedPartitionManager(2)
        entry, atoms = self._entry(flight=1, sequence=1)
        partition, _merged = manager.merged_for(atoms)
        partition.append(entry)
        owner = manager.shard_for(partition.partition_id)
        assert owner is not None
        assert partition.owner_shard_id == owner.shard_id
        manager.close()

    def test_lane_scope_rejects_foreign_partition(self):
        manager = ShardedPartitionManager(2)
        entry, atoms = self._entry(flight=1, sequence=1)
        partition, _merged = manager.merged_for(atoms)
        partition.append(entry)
        owner = manager.shard_for(partition.partition_id)
        foreign = 1 - owner.shard_id
        _entry2, atoms2 = self._entry(flight=1, sequence=2)
        with manager.lane_scope(foreign):
            with pytest.raises(QuantumStateError):
                manager.merged_for(atoms2)
        # The owning lane is fine.
        with manager.lane_scope(owner.shard_id):
            same, merged = manager.merged_for(atoms2)
        assert same is partition and not merged
        manager.close()

    def test_fresh_partition_joins_the_lane_shard(self):
        manager = ShardedPartitionManager(3)
        _entry, atoms = self._entry(flight=5, sequence=1)
        with manager.lane_scope(2):
            partition, merged = manager.merged_for(atoms)
        assert not merged
        assert partition.owner_shard_id == 2
        # Outside a lane scope the least-loaded shard is used instead.
        _entry2, atoms2 = self._entry(flight=6, sequence=2)
        partition2, _merged = manager.merged_for(atoms2)
        assert partition2.owner_shard_id in (0, 1)
        manager.close()

    def test_plain_manager_has_no_ownership(self):
        manager = PartitionManager()
        _entry, atoms = self._entry(flight=1, sequence=1)
        partition, _merged = manager.merged_for(atoms)
        assert partition.owner_shard_id is None
        # assert_owned_by is a no-op without an owner (unsharded path).
        partition.assert_owned_by(7)


class TestControllerLifecycle:
    def test_close_is_idempotent_and_controller_restarts(self):
        qdb = make_qdb()
        first = qdb.admission_controller()
        assert first is not None
        results = qdb.commit_batch([booking(f"w{i}", i % 3 + 1) for i in range(6)])
        assert all(r.committed for r in results)
        qdb.close()
        qdb.close()  # idempotent
        assert first.closed
        # The next batch lazily builds a fresh controller.
        second = qdb.admission_controller()
        assert second is not first and not second.closed
        more = qdb.commit_batch([booking(f"x{i}", i % 3 + 1) for i in range(4)])
        assert len(more) == 4
        qdb.close()

    def test_unsharded_or_disabled_has_no_controller(self):
        plain = make_qdb(shards=1, lanes=True)
        assert plain.admission_controller() is None
        plain.close()
        disabled = make_qdb(shards=2, lanes=False)
        assert disabled.admission_controller() is None
        report = disabled.statistics_report()
        assert not any(key.startswith("admission.") for key in report)
        disabled.close()

    def test_statistics_report_exposes_admission_section(self):
        qdb = make_qdb(shards=2, lanes=True)
        qdb.commit_batch([booking(f"y{i}", i % 4 + 1) for i in range(8)])
        report = qdb.statistics_report()
        assert report["admission.lanes"] == 2
        assert report["admission.batches"] == 1
        assert (
            report["admission.lane_dispatches"]
            + report["admission.barrier_arrivals"]
        ) == 8
        assert "admission.lane_conflicts" in report
        assert "admission.barrier_drains" in report
        qdb.close()

    def test_lane_witness_statistics_slices_reconcile(self):
        qdb = make_qdb(shards=2, lanes=True)
        qdb.commit_batch([booking(f"z{i}", i % 4 + 1) for i in range(8)])
        cache = qdb.state.cache
        merged = cache.merged_statistics()
        # Lane slices carry the concurrent admissions' witness traffic ...
        lane_hits = sum(
            s.witness_hits for s in cache._lane_statistics.values()
        )
        assert lane_hits > 0
        # ... and the merged view reconciles shared + per-lane counters.
        assert merged.witness_hits == cache.statistics.witness_hits + lane_hits
        qdb.close()

