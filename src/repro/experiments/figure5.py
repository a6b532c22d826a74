"""Figure 5 — cumulative execution time per arrival order.

The paper runs 102 entangled transactions against a single flight with 102
seats (34 rows), k = 61, for the four arrival orders of Table 1, plus the
intelligent-social baseline under the Random order, and plots the cumulative
execution time.  Expected shape:

* Alternate ≈ IS (at most one transaction ever pending);
* In Order and Reverse Order substantially slower, with a steep slope in the
  first half that flattens once partners start arriving;
* Random shows a small, roughly constant per-transaction overhead over IS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.grounding_policy import MYSQL_JOIN_LIMIT
from repro.experiments.metrics import RunResult
from repro.experiments.report import downsample, format_series, print_report
from repro.experiments.runner import run_is_entangled, run_quantum_entangled
from repro.workloads.arrival_orders import ArrivalOrder
from repro.workloads.entangled_workload import generate_workload
from repro.workloads.flights import FlightDatabaseSpec


@dataclass
class Figure5Result:
    """All series of Figure 5.

    Attributes:
        quantum: per arrival order, the quantum database run.
        intelligent_social: the IS baseline under the Random order.
    """

    quantum: dict[ArrivalOrder, RunResult] = field(default_factory=dict)
    intelligent_social: RunResult | None = None

    def cumulative_series(self) -> dict[str, list[float]]:
        """Label → cumulative time series, for plotting or inspection."""
        series = {
            order.value: result.cumulative_times()
            for order, result in self.quantum.items()
        }
        if self.intelligent_social is not None:
            series["Random IS"] = self.intelligent_social.cumulative_times()
        return series


def run_figure5(
    spec: FlightDatabaseSpec | None = None,
    *,
    k: int = MYSQL_JOIN_LIMIT,
    seed: int = 0,
) -> Figure5Result:
    """Run the Figure 5 experiment."""
    spec = spec or default_parameters()
    result = Figure5Result()
    for order in ArrivalOrder:
        workload = generate_workload(spec, order, seed=seed)
        result.quantum[order] = run_quantum_entangled(
            workload, k=k, label=order.value
        )
    random_workload = generate_workload(spec, ArrivalOrder.RANDOM, seed=seed)
    result.intelligent_social = run_is_entangled(random_workload, label="Random IS")
    return result


def default_parameters() -> FlightDatabaseSpec:
    """Scaled-down default: 1 flight, 10 rows (30 seats, 30 transactions)."""
    return FlightDatabaseSpec(num_flights=1, rows_per_flight=10)


def paper_parameters() -> FlightDatabaseSpec:
    """The paper's sizing: 1 flight, 34 rows (102 seats, 102 transactions)."""
    return FlightDatabaseSpec(num_flights=1, rows_per_flight=34)


def main(spec: FlightDatabaseSpec | None = None, *, k: int = MYSQL_JOIN_LIMIT) -> Figure5Result:
    """Run and print Figure 5's series."""
    result = run_figure5(spec, k=k)
    blocks = []
    for label, series in result.cumulative_series().items():
        total = series[-1] if series else 0.0
        points = downsample(series, points=10)
        blocks.append(
            format_series(
                f"{label}: total {total * 1000.0:.1f} ms (cumulative ms by txn index)",
                [(index, value * 1000.0) for index, value in points],
                precision=1,
            )
        )
    print_report(
        "Figure 5: cumulative transaction execution time per arrival order",
        "\n\n".join(blocks),
    )
    return result


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()
