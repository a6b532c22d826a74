"""Tests for the experiment harnesses (tiny parameterisations).

These tests check the *shape* of each reproduced figure/table on very small
workloads: who wins, which direction the trends go.
``test_paper_shapes.py`` runs the same harnesses at their default sizes.
"""

from __future__ import annotations

import pytest

from repro.experiments import figure5, figure6, figure7, figure8, figure9, table1, table2
from repro.experiments.figure7 import ScalabilityParameters
from repro.experiments.figure8 import MixedParameters
from repro.experiments.metrics import RunResult, cumulative
from repro.experiments.report import downsample, format_series, format_table
from repro.experiments.runner import run_is_entangled, run_quantum_entangled
from repro.workloads.arrival_orders import ArrivalOrder
from repro.workloads.entangled_workload import generate_workload
from repro.workloads.flights import FlightDatabaseSpec

#: One flight, four rows — 12 seats, 12 transactions.  Big enough to show the
#: trends, small enough for the unit-test suite.
TINY = FlightDatabaseSpec(num_flights=1, rows_per_flight=4)


class TestMetricsAndReport:
    def test_cumulative(self):
        assert cumulative([1.0, 2.0, 3.0]) == [1.0, 3.0, 6.0]

    def test_run_result_aggregates(self):
        result = RunResult(label="x", op_times=[0.5, 0.5])
        assert result.total_time == 1.0
        assert result.cumulative_times() == [0.5, 1.0]

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text

    def test_downsample(self):
        series = list(range(100))
        points = downsample([float(v) for v in series], points=10)
        assert len(points) == 10
        assert points[-1][0] == 100

    def test_format_series(self):
        assert "title" in format_series("title", [(1, 2.0)])


class TestRunner:
    def test_quantum_and_is_runs_complete(self):
        workload = generate_workload(TINY, ArrivalOrder.RANDOM, seed=1)
        quantum = run_quantum_entangled(workload, k=8)
        baseline = run_is_entangled(workload)
        assert quantum.admitted == len(workload)
        assert baseline.admitted == len(workload)
        assert len(quantum.op_times) == len(workload)
        assert 0 <= quantum.coordination_percentage <= 100
        assert quantum.max_possible == workload.max_possible_coordinations


class TestFigure5And6Shapes:
    @pytest.fixture(scope="class")
    def fig6(self):
        return figure6.run_figure6(TINY, k=61, seed=2)

    def test_quantum_reaches_full_coordination(self, fig6):
        for order, result in fig6.quantum.items():
            assert result.coordination_percentage == 100.0, order

    def test_is_never_beats_quantum_and_loses_somewhere(self, fig6):
        # At this tiny scale IS can get lucky on individual orders, but it
        # never beats the quantum database and loses on at least one order
        # (the gap widens with workload size; see the Figure 6 benchmark).
        for order in ArrivalOrder:
            assert (
                fig6.intelligent_social[order].coordination_percentage
                <= fig6.quantum[order].coordination_percentage
            )
        assert any(
            fig6.intelligent_social[order].coordination_percentage
            < fig6.quantum[order].coordination_percentage
            for order in ArrivalOrder
        )

    def test_is_matches_on_alternate(self, fig6):
        assert fig6.intelligent_social[ArrivalOrder.ALTERNATE].coordination_percentage == 100.0

    def test_figure5_series_shapes(self):
        result = figure5.run_figure5(TINY, k=61, seed=2)
        series = result.cumulative_series()
        assert set(series) == {
            "Alternate",
            "Random",
            "In Order",
            "Reverse Order",
            "Random IS",
        }
        lengths = {len(s) for s in series.values()}
        assert lengths == {len(generate_workload(TINY, ArrivalOrder.RANDOM))}
        # Cumulative series are monotone.
        for values in series.values():
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_alternate_tracks_is_closely(self):
        result = figure5.run_figure5(TINY, k=61, seed=2)
        alternate = result.quantum[ArrivalOrder.ALTERNATE].extra["search_nodes"]
        in_order = result.quantum[ArrivalOrder.IN_ORDER].extra["search_nodes"]
        # In Order keeps many more transactions pending, so its composed
        # bodies grow and its admissions search many more nodes than
        # Alternate's (the paper's headline performance artifact).  Asserted
        # on the deterministic search-work counter, not wall time, which
        # flaked when the full suite loaded the machine.
        assert in_order > alternate


class TestTable1:
    def test_rows_and_bounds(self):
        rows = table1.run_table1(FlightDatabaseSpec(num_flights=1, rows_per_flight=3))
        assert [row.order for row in rows] == list(ArrivalOrder)
        by_order = {row.order: row for row in rows}
        assert by_order[ArrivalOrder.ALTERNATE].expected_bound == 1
        assert by_order[ArrivalOrder.IN_ORDER].simulated_max_pending >= 4
        # The measured maximum from the real system stays near the simulated
        # bound (it may exceed it by one transient admission).
        for row in rows:
            assert row.measured_max_pending <= row.simulated_max_pending + 1


class TestScalabilityAndTable2:
    @pytest.fixture(scope="class")
    def sweep(self):
        parameters = ScalabilityParameters(
            flight_counts=(1, 2), rows_per_flight=3, ks=(1, 4), seed=0
        )
        return figure7.run_figure7(parameters)

    def test_series_cover_sweep(self, sweep):
        assert set(sweep.labels()) == {"k=1", "k=4", "IS"}
        for label, points in sweep.series.items():
            assert [count for count, _run in points] == [8, 16]

    def test_table2_orders_systems(self, sweep):
        result = table2.table2_from_figure7(sweep)
        rows = result.rows()
        assert rows[-1][0] == "IS"
        averages = dict(rows)
        # Larger k keeps transactions pending longer and coordinates more; at
        # this tiny scale IS can tie the best quantum configuration (the gap
        # appears at benchmark sizes), so only >= is asserted against it.
        assert averages["k=4"] >= averages["k=1"]
        assert averages["k=4"] >= averages["IS"]


class TestMixedWorkloads:
    @pytest.fixture(scope="class")
    def mixed(self):
        parameters = MixedParameters(
            spec=FlightDatabaseSpec(num_flights=1, rows_per_flight=4),
            read_percentages=(0.0, 60.0),
            ks=(8,),
            seed=1,
        )
        return figure8.run_figure8(parameters)

    def test_read_time_grows_with_read_fraction(self, mixed):
        runs = {pct: run for (k, pct), run in mixed.runs.items()}
        assert runs[60.0].extra["read_time"] > runs[0.0].extra["read_time"]

    def test_figure9_coordination_declines_with_reads(self, mixed):
        result = figure9.figure9_from_figure8(mixed)
        series = result.series_for(8)
        assert series[0][1] >= series[-1][1]
        assert series[0][0] == 0.0 and series[-1][0] == 60.0
