"""Tests for partitioning, the solution cache, grounding policy and recovery."""

from __future__ import annotations

import pytest

from repro.core.grounding_policy import GroundingPolicy, GroundingStrategy
from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.core.recovery import PENDING_TABLE, PendingTransactionStore
from repro.errors import QuantumError
from repro.relational.recovery import recover_database
from repro.workloads.flights import FlightDatabaseSpec, build_flight_database
from tests.conftest import make_tiny_flight_db

ANY_SEAT = "-Available({flight}, ?s), +Bookings('{name}', {flight}, ?s) :-1 Available({flight}, ?s)"


def two_flight_db():
    spec = FlightDatabaseSpec(num_flights=2, rows_per_flight=2, first_flight_number=100)
    return build_flight_database(spec)


class TestPartitioning:
    def test_independent_flights_get_separate_partitions(self):
        qdb = QuantumDatabase(two_flight_db())
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=100))
        qdb.execute(ANY_SEAT.format(name="Goofy", flight=101))
        assert len(qdb.state.partitions) == 2

    def test_same_flight_shares_a_partition(self):
        qdb = QuantumDatabase(two_flight_db())
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=100))
        qdb.execute(ANY_SEAT.format(name="Goofy", flight=100))
        assert len(qdb.state.partitions) == 1
        assert qdb.state.partitions.partitions[0].transaction_ids()

    def test_flexible_request_merges_partitions(self):
        qdb = QuantumDatabase(two_flight_db())
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=100))
        qdb.execute(ANY_SEAT.format(name="Goofy", flight=101))
        # Donald does not care which flight: his atoms unify with both.
        qdb.execute(
            "-Available(?f, ?s), +Bookings('Donald', ?f, ?s) :-1 Available(?f, ?s)"
        )
        assert len(qdb.state.partitions) == 1
        assert qdb.state.partitions.statistics.merges == 1

    def test_partition_dropped_when_emptied(self):
        qdb = QuantumDatabase(two_flight_db())
        result = qdb.execute(ANY_SEAT.format(name="Mickey", flight=100))
        qdb.ground([result.transaction_id])
        assert len(qdb.state.partitions) == 0

    @pytest.mark.parametrize("shards", [1, 2])
    def test_size_high_water_marks_are_maintained(self, shards):
        """``partitions.max_*`` move with every append (they used to rely on
        a ``record_sizes`` sweep nothing called, and always reported 0)."""
        qdb = QuantumDatabase(two_flight_db(), QuantumConfig(shards=shards))
        for name in ("Mickey", "Goofy", "Donald"):
            qdb.execute(ANY_SEAT.format(name=name, flight=100))
        qdb.execute(ANY_SEAT.format(name="Pluto", flight=101))
        report = qdb.statistics_report()
        assert report["partitions.max_partition_size"] == 3
        # Three single-atom hard bodies: rewriting adds equalities, not atoms.
        assert report["partitions.max_composed_atoms"] == 3
        # High-water marks: grounding shrinks the partition, not the marks.
        qdb.ground_all()
        report = qdb.statistics_report()
        assert report["partitions.max_partition_size"] == 3
        assert report["partitions.max_composed_atoms"] == 3
        qdb.close()


class TestSolutionCache:
    def test_extension_hit_on_compatible_arrival(self):
        qdb = QuantumDatabase(make_tiny_flight_db())
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        qdb.execute(ANY_SEAT.format(name="Goofy", flight=123))
        stats = qdb.state.cache.statistics
        assert stats.extension_hits >= 1

    def test_full_solve_when_extension_fails(self):
        qdb = QuantumDatabase(make_tiny_flight_db(seats=2))
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        qdb.execute(ANY_SEAT.format(name="Goofy", flight=123))
        # Third user cannot fit: the cache records a failed full solve.
        result = qdb.execute(ANY_SEAT.format(name="Pluto", flight=123))
        assert not result.committed
        assert qdb.state.cache.statistics.failures >= 1

    def test_rejected_arrivals_leave_the_partition_scope_clean(self):
        """A full flight keeps rejecting: the compiled factors of rejected
        arrivals must not accumulate variables in the resident scope."""
        qdb = QuantumDatabase(make_tiny_flight_db(seats=2))
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        qdb.execute(ANY_SEAT.format(name="Goofy", flight=123))
        partition = qdb.state.partitions.partitions[0]
        for i in range(20):
            assert not qdb.execute(ANY_SEAT.format(name=f"late{i}", flight=123)).committed
        composition = partition.composition()
        composition.program()  # compile what the partition holds
        pending = {v for entry in partition for v in entry.renamed.variables()}
        assert set(composition.scope.variables) == pending
        # ... and the resident programs still decide admission correctly.
        qdb.ground_all()
        assert qdb.database.table("Bookings").rows()

    def test_solution_revalidated_after_write(self):
        qdb = QuantumDatabase(make_tiny_flight_db(seats=3))
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        partition = qdb.state.partitions.partitions[0]
        before = partition.solution
        assert before is not None
        # Delete the exact seat the solution used; the write passes
        # (other seats remain) but the record must be refreshed.
        seat_value = [
            v for v in before.substitution.as_valuation().values() if isinstance(v, str)
        ][0]
        qdb.delete("Available", (123, seat_value))
        assert partition.solution is not None
        assert partition.solution.substitution != before.substitution
        assert partition.composition().program().holds(
            qdb.database, partition.solution.substitution
        )


class TestSolutionRecord:
    """The partition-resident solution record behind the admission fast path."""

    def _witness(self, qdb):
        """The partition and the footprint of its record (``None`` unless
        the record is trusted without re-verification)."""
        partition = qdb.state.partitions.partitions[0]
        solution = partition.solution
        return partition, None if solution is None else solution.footprint

    def test_admission_records_solution_with_footprint(self):
        qdb = QuantumDatabase(make_tiny_flight_db(seats=3))
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        partition, witness = self._witness(qdb)
        assert witness is not None
        # The record satisfies the composed body it is the solution of.
        assert partition.composition().program().holds(
            qdb.database, partition.solution.substitution
        )
        # The footprint is the Available row the grounding sits on.
        assert any(table == "Available" for table, _values in witness.rows)
        assert witness.monotone

    def test_second_admission_skips_composed_body_verification(self):
        qdb = QuantumDatabase(make_tiny_flight_db(seats=3))
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        stats = qdb.cache_statistics
        verifications_before = stats.verifications
        qdb.execute(ANY_SEAT.format(name="Goofy", flight=123))
        assert stats.witness_hits >= 1
        assert stats.verifications == verifications_before

    def test_delete_of_witness_row_forces_research(self):
        """A delete that removes the witnessed row must trigger a re-solve —
        never a stale accept (regression guard for the fast path)."""
        qdb = QuantumDatabase(make_tiny_flight_db(seats=3))
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        partition, witness = self._witness(qdb)
        [(_, (flight, seat))] = [
            (table, values) for table, values in witness.rows if table == "Available"
        ]
        solves_before = qdb.cache_statistics.full_solves
        qdb.delete("Available", (flight, seat))
        # The touched witness forced a full re-check of the composed body.
        assert qdb.cache_statistics.full_solves > solves_before
        _partition, refreshed = self._witness(qdb)
        assert refreshed is not None
        assert (flight, seat) not in {values for _t, values in refreshed.rows}
        # The refreshed guarantee is real: Mickey holds one of the two
        # remaining seats, so exactly one more passenger fits.
        assert qdb.execute(ANY_SEAT.format(name="Goofy", flight=123)).committed
        assert not qdb.execute(ANY_SEAT.format(name="Minnie", flight=123)).committed

    def test_delete_of_last_resource_rejected_not_stale_accepted(self):
        from repro.errors import WriteRejected

        qdb = QuantumDatabase(make_tiny_flight_db(seats=1))
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        _partition, witness = self._witness(qdb)
        [(flight, seat)] = [values for table, values in witness.rows if table == "Available"]
        with pytest.raises(WriteRejected):
            qdb.delete("Available", (flight, seat))
        # The rejected write rolled back; Mickey's guarantee still grounds.
        record = qdb.check_in(qdb.state.pending_transactions()[0].transaction_id) \
            if qdb.state.pending_transactions() else None
        assert record is None or record.valuation

    def test_delete_missing_witness_row_is_fast_skipped(self):
        qdb = QuantumDatabase(make_tiny_flight_db(seats=3))
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        _partition, witness = self._witness(qdb)
        witnessed = {values for table, values in witness.rows if table == "Available"}
        other = next(
            (123, f"1{letter}")
            for letter in "ABC"
            if (123, f"1{letter}") not in witnessed
        )
        verifications_before = qdb.cache_statistics.verifications
        invalidations_before = qdb.cache_statistics.witness_invalidations
        qdb.delete("Available", other)
        # The write provably missed the witness footprint: no verification,
        # no invalidation, witness still live.
        assert qdb.cache_statistics.verifications == verifications_before
        assert qdb.cache_statistics.witness_invalidations == invalidations_before
        assert self._witness(qdb)[1] is not None

    def test_insert_never_invalidates_monotone_witness(self):
        qdb = QuantumDatabase(make_tiny_flight_db(seats=2))
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        invalidations_before = qdb.cache_statistics.witness_invalidations
        qdb.insert("Available", (123, "1Z"))
        assert qdb.cache_statistics.witness_invalidations == invalidations_before
        assert self._witness(qdb)[1] is not None

    def test_merge_rerecords_over_the_merged_sequence(self):
        qdb = QuantumDatabase(two_flight_db())
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=100))
        qdb.execute(ANY_SEAT.format(name="Goofy", flight=101))
        qdb.execute(
            "-Available(?f, ?s), +Bookings('Donald', ?f, ?s) :-1 Available(?f, ?s)"
        )
        assert len(qdb.state.partitions) == 1
        partition, witness = self._witness(qdb)
        # The post-merge record covers exactly the merged pending sequence:
        # one witnessed seat per pending transaction.
        assert witness is not None
        assert len(witness.rows) == len(partition) == 3
        bound = partition.solution.substitution.domain()
        assert bound >= partition.composition().required()

    def test_grounding_keeps_other_partitions_witness(self):
        qdb = QuantumDatabase(two_flight_db())
        first = qdb.execute(ANY_SEAT.format(name="Mickey", flight=100))
        qdb.execute(ANY_SEAT.format(name="Goofy", flight=101))
        invalidations_before = qdb.cache_statistics.witness_invalidations
        qdb.ground([first.transaction_id])
        assert qdb.cache_statistics.witness_invalidations == invalidations_before
        # Goofy's partition still answers admissions from its witness.
        stats = qdb.cache_statistics
        hits_before = stats.witness_hits
        qdb.execute(ANY_SEAT.format(name="Minnie", flight=101))
        assert stats.witness_hits > hits_before

    def test_disabled_witness_cache_behaves_like_seed(self):
        qdb = QuantumDatabase(make_tiny_flight_db(seats=3), QuantumConfig(witness_cache=False))
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        qdb.execute(ANY_SEAT.format(name="Goofy", flight=123))
        stats = qdb.cache_statistics
        assert stats.witness_hits == 0
        assert stats.witness_misses == 0
        assert stats.verifications >= 1
        partition, witness = self._witness(qdb)
        assert witness is None
        assert partition.solution is not None


class TestGroundingPolicy:
    def test_k_bound_forces_grounding_oldest_first(self):
        qdb = QuantumDatabase(make_tiny_flight_db(seats=3), QuantumConfig(k=2))
        first = qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        second = qdb.execute(ANY_SEAT.format(name="Goofy", flight=123))
        third = qdb.execute(ANY_SEAT.format(name="Minnie", flight=123))
        assert qdb.pending_count == 2
        assert not qdb.state.is_pending(first.transaction_id)
        assert qdb.state.is_pending(second.transaction_id)
        assert qdb.state.is_pending(third.transaction_id)
        record = qdb.state.grounded_results[first.transaction_id]
        assert record.forced

    def test_newest_first_strategy(self):
        qdb = QuantumDatabase(
            make_tiny_flight_db(seats=3),
            QuantumConfig(k=2, strategy=GroundingStrategy.NEWEST_FIRST),
        )
        first = qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        qdb.execute(ANY_SEAT.format(name="Goofy", flight=123))
        third = qdb.execute(ANY_SEAT.format(name="Minnie", flight=123))
        assert not qdb.state.is_pending(third.transaction_id)
        assert qdb.state.is_pending(first.transaction_id)

    def test_oldest_first_grounds_the_broad_transaction_instead(self):
        """Oldest first is by arrival alone: a constant-pinned booking that
        arrived later does not jump the queue, the oldest broad one goes."""
        pinned = (
            "-Available(123, '1H'), +Bookings('Pinned', 123, '1H')"
            " :-1 Available(123, '1H')"
        )
        qdb = QuantumDatabase(make_tiny_flight_db(seats=12), QuantumConfig(k=2))
        early = qdb.execute(ANY_SEAT.format(name="Early", flight=123))
        middle = qdb.execute(pinned)
        late = qdb.execute(ANY_SEAT.format(name="Late", flight=123))
        assert qdb.pending_count == 2
        assert qdb.state.grounded_results[early.transaction_id].forced
        assert qdb.state.is_pending(middle.transaction_id)
        assert qdb.state.is_pending(late.transaction_id)

    def test_the_paper_orders_are_the_only_orders(self):
        assert [strategy.name for strategy in GroundingStrategy] == [
            "OLDEST_FIRST",
            "NEWEST_FIRST",
        ]

    def test_invalid_k(self):
        with pytest.raises(QuantumError):
            GroundingPolicy(k=0)

    @pytest.mark.parametrize("k", [1.5, True])
    def test_non_int_k_fails_at_construction(self, k):
        """Regression: ``k=1.5`` was accepted, then broke the second booking
        with a raw ``TypeError`` from slicing the victim list."""
        with pytest.raises(QuantumError):
            GroundingPolicy(k=k)
        with pytest.raises(QuantumError):
            QuantumConfig(k=k)

    def test_victims_empty_within_bound(self):
        qdb = QuantumDatabase(make_tiny_flight_db(), QuantumConfig(k=5))
        qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        policy = qdb.config.policy()
        assert policy.victims(qdb.state.partitions.partitions[0]) == []


class TestDurabilityAndRecovery:
    def test_pending_table_tracks_lifecycle(self):
        qdb = QuantumDatabase(make_tiny_flight_db())
        result = qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        store = qdb.pending_store
        assert result.transaction_id in store.pending_ids()
        qdb.check_in(result.transaction_id)
        assert result.transaction_id not in store.pending_ids()

    def test_recover_rebuilds_quantum_state(self):
        qdb = QuantumDatabase(make_tiny_flight_db())
        kept = qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        grounded = qdb.execute(ANY_SEAT.format(name="Goofy", flight=123))
        qdb.check_in(grounded.transaction_id)

        # Simulate a crash: rebuild the extensional store from the WAL, then
        # restore the quantum state from the pending-transactions table.
        def schema_factory():
            fresh = make_tiny_flight_db()
            PendingTransactionStore(fresh)
            return fresh

        def schema_only():
            from repro.relational.database import Database

            fresh = Database()
            fresh.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
            fresh.create_table(
                "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
            )
            fresh.create_table(
                "Adjacent", ["flight", "seat1", "seat2"], key=["flight", "seat1", "seat2"]
            )
            PendingTransactionStore(fresh)
            return fresh

        recovered_store = recover_database(schema_only, qdb.database.wal)
        recovered = QuantumDatabase.recover(recovered_store, qdb.config)
        assert recovered.pending_count == 1
        assert recovered.state.is_pending(kept.transaction_id)
        # Goofy's grounded booking survived; Mickey's guarantee still holds.
        assert len(recovered.table("Bookings")) == 1
        record = recovered.check_in(kept.transaction_id)
        assert record is not None and record.valuation["s"]

    def test_restore_reports_sequence_order(self):
        qdb = QuantumDatabase(make_tiny_flight_db())
        first = qdb.execute(ANY_SEAT.format(name="Mickey", flight=123))
        second = qdb.execute(ANY_SEAT.format(name="Goofy", flight=123))
        restored = qdb.pending_store.restore()
        assert [txn.transaction_id for _seq, txn in restored] == [
            first.transaction_id,
            second.transaction_id,
        ]
        assert [txn.client for _seq, txn in restored] == [None, None]

    def test_pending_table_exists(self):
        qdb = QuantumDatabase(make_tiny_flight_db())
        assert qdb.database.has_table(PENDING_TABLE)


class TestCountersCountAppliedGroundings:
    """``state.forced_groundings`` and ``state.semantic_reorders`` count a
    grounding once its store unit went through, not when it was planned."""

    SPEC = FlightDatabaseSpec(num_flights=1, rows_per_flight=2)

    def booking(self, name: str) -> str:
        flight = self.SPEC.flight_numbers()[0]
        return (
            f"-Available({flight}, ?s), +Bookings('{name}', {flight}, ?s)"
            f" :-1 Available({flight}, ?s)"
        )

    @staticmethod
    def fail_store_writes(monkeypatch) -> None:
        from repro.relational.transaction import Transaction

        def failing(self, statement):
            raise RuntimeError("injected store failure")

        monkeypatch.setattr(Transaction, "apply", failing)

    def test_a_failed_forced_grounding_is_not_counted(self, monkeypatch):
        qdb = QuantumDatabase(build_flight_database(self.SPEC), QuantumConfig(k=1))
        assert qdb.execute(self.booking("a")).committed
        with monkeypatch.context() as patch:
            self.fail_store_writes(patch)
            with pytest.raises(RuntimeError, match="injected"):
                qdb.execute(self.booking("b"))
        stats = qdb.statistics_report()
        assert stats["state.grounded"] == 0
        assert stats["state.forced_groundings"] == 0
        # The same grounding, applied, is counted once.
        qdb.state.enforce_bounds()
        stats = qdb.statistics_report()
        assert stats["state.grounded"] == stats["state.forced_groundings"] == 1

    def test_a_failed_reordered_grounding_is_not_counted(self, monkeypatch):
        qdb = QuantumDatabase(build_flight_database(self.SPEC), QuantumConfig(k=8))
        assert qdb.execute(self.booking("a")).committed
        second = qdb.execute(self.booking("b"))
        with monkeypatch.context() as patch:
            self.fail_store_writes(patch)
            with pytest.raises(RuntimeError, match="injected"):
                qdb.check_in(second.transaction_id)
        stats = qdb.statistics_report()
        assert stats["state.grounded"] == 0
        assert stats["state.semantic_reorders"] == 0
        assert qdb.check_in(second.transaction_id) is not None
        stats = qdb.statistics_report()
        assert stats["state.grounded"] == stats["state.semantic_reorders"] == 1
