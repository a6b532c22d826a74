"""Figure 6 — percentage of coordination per arrival order.

Same workloads as Figure 5; the reported metric is the percentage of the
maximum possible coordination actually achieved, for the quantum database
and for the intelligent-social baseline.  Expected shape: the quantum
database achieves (near) 100% for every arrival order; IS is comparable only
under Alternate and much lower otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.grounding_policy import MYSQL_JOIN_LIMIT
from repro.experiments.metrics import RunResult
from repro.experiments.report import format_table, print_report
from repro.experiments.runner import run_is_entangled, run_quantum_entangled
from repro.workloads.arrival_orders import ArrivalOrder
from repro.workloads.entangled_workload import generate_workload
from repro.workloads.flights import FlightDatabaseSpec


@dataclass
class Figure6Result:
    """Coordination percentages per arrival order and system."""

    quantum: dict[ArrivalOrder, RunResult] = field(default_factory=dict)
    intelligent_social: dict[ArrivalOrder, RunResult] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, float, float]]:
        """(order, quantum %, IS %) rows."""
        result = []
        for order in ArrivalOrder:
            result.append(
                (
                    order.value,
                    self.quantum[order].coordination_percentage,
                    self.intelligent_social[order].coordination_percentage,
                )
            )
        return result


def run_figure6(
    spec: FlightDatabaseSpec | None = None,
    *,
    k: int = MYSQL_JOIN_LIMIT,
    seed: int = 0,
) -> Figure6Result:
    """Run the Figure 6 experiment (both systems, all four orders)."""
    spec = spec or default_parameters()
    result = Figure6Result()
    for order in ArrivalOrder:
        workload = generate_workload(spec, order, seed=seed)
        result.quantum[order] = run_quantum_entangled(workload, k=k, label=order.value)
        result.intelligent_social[order] = run_is_entangled(
            workload, label=f"IS {order.value}"
        )
    return result


def default_parameters() -> FlightDatabaseSpec:
    """Scaled-down default: 1 flight, 10 rows."""
    return FlightDatabaseSpec(num_flights=1, rows_per_flight=10)


def paper_parameters() -> FlightDatabaseSpec:
    """The paper's sizing: 1 flight, 34 rows."""
    return FlightDatabaseSpec(num_flights=1, rows_per_flight=34)


def main(spec: FlightDatabaseSpec | None = None, *, k: int = MYSQL_JOIN_LIMIT) -> Figure6Result:
    """Run and print Figure 6's bars."""
    result = run_figure6(spec, k=k)
    body = format_table(
        ["Arrival order", "QuantumDB %", "Intelligent Social %"],
        result.rows(),
        precision=1,
    )
    print_report("Figure 6: percentage of coordination per arrival order", body)
    return result


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()
