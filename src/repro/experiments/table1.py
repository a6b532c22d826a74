"""Table 1 — arrival orders and the maximum number of pending transactions.

For each of the four arrival orders, report the analytic bound from the
paper's Table 1 and the maximum number of simultaneously pending
transactions measured when the workload is actually run through a quantum
database with the ground-on-partner-arrival policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.grounding_policy import MYSQL_JOIN_LIMIT
from repro.experiments.report import format_table, print_report
from repro.experiments.runner import run_quantum_entangled
from repro.workloads.arrival_orders import (
    ArrivalOrder,
    expected_max_pending,
    measured_max_pending,
    order_arrivals,
)
from repro.workloads.entangled_workload import generate_workload
from repro.workloads.flights import FlightDatabaseSpec


@dataclass
class Table1Row:
    """One row of the reproduced Table 1."""

    order: ArrivalOrder
    characteristic: str
    expected_bound: int
    simulated_max_pending: int
    measured_max_pending: int


#: The "characteristic" column of the paper's Table 1.
CHARACTERISTICS = {
    ArrivalOrder.ALTERNATE: "Ti entangles with Ti+1",
    ArrivalOrder.RANDOM: "Ti entangles with Tj for some i, j < N",
    ArrivalOrder.IN_ORDER: "Ti entangles with Ti+N/2",
    ArrivalOrder.REVERSE_ORDER: "Ti entangles with TN-i",
}


def run_table1(
    spec: FlightDatabaseSpec | None = None,
    *,
    k: int = MYSQL_JOIN_LIMIT,
    seed: int = 0,
) -> list[Table1Row]:
    """Reproduce Table 1 over the given flight-database size."""
    spec = spec or FlightDatabaseSpec(num_flights=1, rows_per_flight=10)
    rows: list[Table1Row] = []
    num_pairs = spec.seats_per_flight // 2
    for order in ArrivalOrder:
        arrivals = order_arrivals(num_pairs, order)
        workload = generate_workload(spec, order, seed=seed)
        result = run_quantum_entangled(workload, k=k)
        rows.append(
            Table1Row(
                order=order,
                characteristic=CHARACTERISTICS[order],
                expected_bound=expected_max_pending(num_pairs, order),
                simulated_max_pending=measured_max_pending(arrivals),
                measured_max_pending=result.max_pending,
            )
        )
    return rows


def default_parameters() -> FlightDatabaseSpec:
    """Scaled-down default (finishes in seconds on a laptop)."""
    return FlightDatabaseSpec(num_flights=1, rows_per_flight=10)


def paper_parameters() -> FlightDatabaseSpec:
    """The paper's Figure 5/6 sizing (1 flight, 34 rows, 102 seats)."""
    return FlightDatabaseSpec(num_flights=1, rows_per_flight=34)


def main(spec: FlightDatabaseSpec | None = None) -> list[Table1Row]:
    """Run and print the reproduced Table 1."""
    rows = run_table1(spec or default_parameters())
    body = format_table(
        ["Order of Arrival", "Characteristic", "Paper bound", "Simulated max", "Measured max"],
        [
            (
                row.order.value,
                row.characteristic,
                row.expected_bound,
                row.simulated_max_pending,
                row.measured_max_pending,
            )
            for row in rows
        ],
    )
    print_report("Table 1: arrival orders and maximum pending transactions", body)
    return rows


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()
