"""End-to-end integration tests across the whole stack.

These scenarios exercise the full pipeline — workload generation, the
quantum middle tier, the relational store, recovery, and the baselines — in
one place, the way the examples and experiment harnesses do.
"""

from __future__ import annotations


from repro import (
    QuantumConfig,
    QuantumDatabase,
    SerializabilityMode,
    make_adjacent_seat_request,
)
from repro.baselines.intelligent_social import IntelligentSocialClient
from repro.core.recovery import PendingTransactionStore
from repro.experiments.runner import run_is_entangled, run_quantum_entangled
from repro.relational.recovery import recover_database
from repro.workloads.arrival_orders import ArrivalOrder
from repro.workloads.entangled_workload import generate_workload
from repro.workloads.flights import (
    FlightDatabaseSpec,
    booked_adjacent_pairs,
    build_flight_database,
    create_flight_tables,
)


class TestEndToEndScenario:
    def test_full_flight_all_users_seated_and_coordinated(self):
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=4)
        workload = generate_workload(spec, ArrivalOrder.REVERSE_ORDER, seed=11)
        database = build_flight_database(spec)
        qdb = QuantumDatabase(database, QuantumConfig(k=61))
        for transaction in workload:
            assert qdb.execute(transaction).committed
        qdb.ground_all()
        # Everyone has a seat and the flight is exactly full.
        assert len(database.table("Bookings")) == spec.total_seats
        assert len(database.table("Available")) == 0
        # The seating geometry allows one adjacent pair per row (the paper's
        # "maximum possible coordination"); deferred grounding achieves it.
        pairs = booked_adjacent_pairs(database)
        coordinated = sum(
            2 for pair in workload.pairs if frozenset(pair.members()) in pairs
        )
        assert coordinated == workload.max_possible_coordinations

    def test_quantum_never_loses_to_is_on_reverse_order(self):
        # At this tiny scale the IS heuristic can occasionally tie; the
        # strict gap (the paper's Figure 6 / Table 2 claim) is asserted at
        # the default experiment sizes in tests/experiments/test_paper_shapes.py.
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=4)
        workload = generate_workload(spec, ArrivalOrder.REVERSE_ORDER, seed=3)
        quantum = run_quantum_entangled(workload, k=12)
        baseline = run_is_entangled(workload)
        assert quantum.coordination_percentage == 100.0
        assert baseline.coordination_percentage <= quantum.coordination_percentage

    def test_mixed_flexible_and_pinned_requests(self):
        spec = FlightDatabaseSpec(num_flights=2, rows_per_flight=2)
        database = build_flight_database(spec)
        qdb = QuantumDatabase(database)
        flights = spec.flight_numbers()
        # Fill flight 0 with pinned requests, then let flexible users overflow
        # onto flight 1.
        for index in range(spec.seats_per_flight):
            assert qdb.execute(
                f"-Available({flights[0]}, ?s), +Bookings('pinned{index}', {flights[0]}, ?s) "
                f":-1 Available({flights[0]}, ?s)"
            ).committed
        flexible = [
            qdb.execute(
                f"-Available(?f, ?s), +Bookings('flex{index}', ?f, ?s) :-1 Available(?f, ?s)"
            )
            for index in range(spec.seats_per_flight)
        ]
        assert all(result.committed for result in flexible)
        qdb.ground_all()
        seated_on = {
            row["passenger"]: row["flight"] for row in qdb.table("Bookings")
        }
        assert all(
            seated_on[f"flex{index}"] == flights[1]
            for index in range(spec.seats_per_flight)
        )

    def test_crash_recovery_mid_workload(self):
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=3)
        database = build_flight_database(spec)
        qdb = QuantumDatabase(database, QuantumConfig())
        workload = generate_workload(spec, ArrivalOrder.IN_ORDER, seed=5)
        half = len(workload) // 2
        for transaction in workload.transactions[:half]:
            qdb.execute(transaction)

        def schema_factory():
            fresh = build_flight_database(spec)
            # Recovery replays the WAL onto empty schemas; the initial load is
            # itself in the WAL, so start from bare tables.
            fresh = type(fresh)()
            create_flight_tables(fresh)
            PendingTransactionStore(fresh)
            return fresh

        restored_store = recover_database(schema_factory, database.wal)
        recovered = QuantumDatabase.recover(restored_store, qdb.config)
        assert recovered.pending_count == qdb.pending_count
        # Finish the workload on the recovered instance.
        for transaction in workload.transactions[half:]:
            assert recovered.execute(transaction).committed
        recovered.ground_all()
        assert len(recovered.table("Bookings")) == 2 * len(workload.pairs)

    def test_strict_vs_semantic_admission_equivalence(self):
        # Both modes admit the same transactions; they differ in how much
        # they ground when collapsing, not in the commit guarantee.
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=2)
        workload = generate_workload(spec, ArrivalOrder.RANDOM, seed=9)
        outcomes = {}
        for mode in SerializabilityMode:
            qdb = QuantumDatabase(
                build_flight_database(spec), QuantumConfig(serializability=mode)
            )
            outcomes[mode] = [qdb.execute(t).committed for t in workload]
        assert outcomes[SerializabilityMode.STRICT] == outcomes[SerializabilityMode.SEMANTIC]

    def test_is_baseline_shares_database_with_quantum_reads(self):
        # The IS client and the quantum database can coexist on one store;
        # the pending transaction's guarantee must survive the walk-up booking.
        spec = FlightDatabaseSpec(num_flights=1, rows_per_flight=2)
        database = build_flight_database(spec)
        qdb = QuantumDatabase(database)
        flight = spec.flight_numbers()[0]
        qdb.execute(make_adjacent_seat_request("Mickey", "Goofy", flight=flight))
        client = IntelligentSocialClient(database)
        booking = client.book("Walkup", None, flight=flight)
        assert booking.succeeded
        record = qdb.ground_all()[0]
        assert record.valuation["s"] != booking.seat
