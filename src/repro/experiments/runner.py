"""Drivers that run workloads against the quantum database and the baselines.

Each driver measures per-operation wall-clock time and computes the
coordination achieved in the *final* database state, using the same metric
for every system: a user counts as coordinated when their booked seat is
adjacent to their partner's booked seat on the same flight.
"""

from __future__ import annotations

import gc

from repro.baselines.intelligent_social import IntelligentSocialClient
from repro.core.grounding_policy import MYSQL_JOIN_LIMIT
from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.core.serializability import SerializabilityMode
from repro.experiments.metrics import RunResult, Timer, coordination_percentage
from repro.relational.database import Database
from repro.workloads.entangled_workload import EntangledWorkload
from repro.workloads.flights import booked_adjacent_pairs, build_flight_database
from repro.workloads.mixed import MixedWorkload, OperationKind


def coordinated_users_in(
    database: Database, workload: EntangledWorkload
) -> int:
    """Users whose final seat is adjacent to their partner's seat."""
    adjacent_pairs = booked_adjacent_pairs(database)
    count = 0
    for pair in workload.pairs:
        if frozenset(pair.members()) in adjacent_pairs:
            count += 2
    return count


def quantum_config(
    k: int = MYSQL_JOIN_LIMIT,
    serializability: SerializabilityMode = SerializabilityMode.SEMANTIC,
) -> QuantumConfig:
    """A quantum configuration with the experiment-relevant knobs exposed."""
    return QuantumConfig(k=k, serializability=serializability)


def collect_before_timing() -> None:
    """Collect the garbage earlier work left behind before a timed run.

    A full collection of a large heap takes tens of milliseconds, as long as
    a whole scaled-down run; started on a clean heap, a run's timers charge
    its own operations, not a pause that the process's history scheduled.
    """
    gc.collect()


def run_quantum_entangled(
    workload: EntangledWorkload,
    *,
    k: int = MYSQL_JOIN_LIMIT,
    serializability: SerializabilityMode = SerializabilityMode.SEMANTIC,
    label: str | None = None,
) -> RunResult:
    """Run an entangled workload through a quantum database.

    Every transaction is submitted in arrival order; entangled pairs are
    grounded when the partner arrives (the Section 5.1 policy); any
    transactions still pending at the end are grounded so that the final
    state is fully concrete before coordination is measured.
    """
    collect_before_timing()
    database = build_flight_database(workload.spec)
    qdb = QuantumDatabase(database, quantum_config(k, serializability))
    result = RunResult(label=label or f"QuantumDB(k={k})")
    for transaction in workload.transactions:
        with Timer() as timer:
            commit = qdb.execute(transaction)
        result.op_times.append(timer.elapsed)
        if commit.committed:
            result.admitted += 1
        else:
            result.rejected += 1
    with Timer() as timer:
        qdb.ground_all()
    result.extra["final_grounding_time"] = timer.elapsed
    # Deterministic work counters alongside the wall-clock series: the same
    # workload always searches the same nodes/rows, so tests comparing
    # arrival orders can assert on these instead of timing under load.
    report = qdb.statistics_report()
    result.extra["search_nodes"] = report["search.nodes"]
    result.extra["search_rows_examined"] = report["search.rows_examined"]
    result.max_pending = qdb.statistics.max_pending
    result.coordinated_users = coordinated_users_in(database, workload)
    result.max_possible = workload.max_possible_coordinations
    result.coordination_percentage = coordination_percentage(
        result.coordinated_users, result.max_possible
    )
    return result


def run_is_entangled(
    workload: EntangledWorkload, *, label: str = "Intelligent Social"
) -> RunResult:
    """Run the same workload through the intelligent-social baseline."""
    collect_before_timing()
    database = build_flight_database(workload.spec)
    client = IntelligentSocialClient(database)
    flights = {pair.first: pair.flight for pair in workload.pairs}
    flights.update({pair.second: pair.flight for pair in workload.pairs})
    result = RunResult(label=label)
    for transaction in workload.transactions:
        assert transaction.client is not None
        with Timer() as timer:
            client.book(
                transaction.client,
                transaction.partner,
                flight=flights.get(transaction.client),
            )
        result.op_times.append(timer.elapsed)
        result.admitted += 1
    result.coordinated_users = coordinated_users_in(database, workload)
    result.max_possible = workload.max_possible_coordinations
    result.coordination_percentage = coordination_percentage(
        result.coordinated_users, result.max_possible
    )
    return result


def run_quantum_mixed(
    workload: MixedWorkload,
    *,
    k: int = MYSQL_JOIN_LIMIT,
    serializability: SerializabilityMode = SerializabilityMode.SEMANTIC,
    label: str | None = None,
) -> RunResult:
    """Run a mixed read / resource workload through a quantum database.

    The result's ``extra`` dict carries the Figure 8 split: total time spent
    executing resource transactions (``update_time``) and answering reads
    (``read_time``).
    """
    collect_before_timing()
    database = build_flight_database(workload.base.spec)
    qdb = QuantumDatabase(database, quantum_config(k, serializability))
    result = RunResult(label=label or f"QuantumDB(k={k})")
    read_time = 0.0
    update_time = 0.0
    for operation in workload.operations:
        if operation.kind is OperationKind.RESOURCE:
            assert operation.transaction is not None
            with Timer() as timer:
                commit = qdb.execute(operation.transaction)
            update_time += timer.elapsed
            result.op_times.append(timer.elapsed)
            if commit.committed:
                result.admitted += 1
            else:
                result.rejected += 1
        else:
            with Timer() as timer:
                qdb.read("Bookings", [operation.read_client, None, None])
            read_time += timer.elapsed
            result.op_times.append(timer.elapsed)
    with Timer() as timer:
        qdb.ground_all()
    result.extra["final_grounding_time"] = timer.elapsed
    result.extra["read_time"] = read_time
    result.extra["update_time"] = update_time
    result.max_pending = qdb.statistics.max_pending
    result.coordinated_users = coordinated_users_in(database, workload.base)
    # Only the pairs whose transactions were actually submitted count toward
    # the maximum (a truncated mixed workload may omit some pairs).
    submitted = {
        op.transaction.client
        for op in workload.operations
        if op.kind is OperationKind.RESOURCE and op.transaction is not None
    }
    complete_pairs = [
        pair
        for pair in workload.base.pairs
        if pair.first in submitted and pair.second in submitted
    ]
    result.max_possible = min(
        2 * len(complete_pairs), workload.base.spec.max_coordinating_users
    )
    result.coordinated_users = sum(
        2
        for pair in complete_pairs
        if frozenset(pair.members()) in booked_adjacent_pairs(database)
    )
    result.coordination_percentage = coordination_percentage(
        result.coordinated_users, result.max_possible
    )
    return result
