"""The printed artifacts: each experiment module's ``main()`` and CLI.

A figure or table is regenerated with ``python -m repro.experiments.<name>``,
which calls the module's ``main()`` at ``default_parameters()``.  These
tests run every ``main()`` on a tiny workload and check the titled report
it prints, run one module as ``python -m`` end to end, and pin the paper's
own sizes that ``paper_parameters()`` records.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import figure5, figure6, figure7, figure8, figure9, table1, table2
from repro.experiments.figure7 import ScalabilityParameters
from repro.experiments.figure8 import MixedParameters
from repro.workloads.arrival_orders import ArrivalOrder
from repro.workloads.flights import FlightDatabaseSpec

REPO_ROOT = Path(__file__).resolve().parents[2]
TINY = FlightDatabaseSpec(num_flights=1, rows_per_flight=4)
TINY_SWEEP = ScalabilityParameters(flight_counts=(1, 2), rows_per_flight=4, ks=(2, 4))
TINY_MIXED = MixedParameters(
    spec=FlightDatabaseSpec(num_flights=2, rows_per_flight=4),
    read_percentages=(0.0, 50.0),
    ks=(2, 4),
)
ORDERS = [order.value for order in ArrivalOrder]

#: module, its tiny argument, its report title, lines the report must hold.
CLIS = [
    (figure5, TINY, "Figure 5: cumulative transaction execution time",
     [f"{order}: total" for order in ORDERS] + ["Random IS: total"]),
    (figure6, TINY, "Figure 6: percentage of coordination per arrival order",
     ["Arrival order", *ORDERS]),
    (table1, TINY, "Table 1: arrival orders and maximum pending transactions",
     ["Paper bound", *ORDERS]),
    (figure7, TINY_SWEEP, "Figure 7: scalability",
     ["#Transactions", "k=2 time (s)", "k=4 time (s)", "IS time (s)"]),
    (table2, TINY_SWEEP, "Table 2: average percentage of successful coordinations",
     ["k=2", "k=4", "IS"]),
    (figure8, TINY_MIXED, "Figure 8: time split under mixed workloads",
     ["Update time (s)", "Read time (s)", "50.000"]),
    (figure9, TINY_MIXED, "Figure 9: coordination percentage vs read percentage",
     ["Coordination %", "50.0"]),
]  # fmt: skip


@pytest.mark.parametrize(
    "module, argument, title, expected",
    CLIS,
    ids=[module.__name__.rsplit(".", 1)[1] for module, *_ in CLIS],
)
def test_main_prints_a_titled_report(module, argument, title, expected, capsys):
    result = module.main(argument)
    out = capsys.readouterr().out
    assert title in out
    for text in expected:
        assert text in out, text
    assert result  # the result is returned for callers, not only printed


def test_python_dash_m_regenerates_a_figure():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    completed = subprocess.run(
        [sys.executable, "-m", "repro.experiments.figure6"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
        check=False,
    )  # fmt: skip
    assert completed.returncode == 0, completed.stderr
    assert "Figure 6: percentage of coordination" in completed.stdout
    for order in ORDERS:
        assert order in completed.stdout


@pytest.mark.parametrize("module", [figure5, figure6, table1], ids=lambda m: m.__name__)
def test_paper_sizes_figures_5_6_and_table_1(module):
    # One flight of 34 rows: 102 seats for 102 transactions.
    paper = module.paper_parameters()
    assert (paper.num_flights, paper.rows_per_flight) == (1, 34)
    default = module.default_parameters()
    assert default.num_flights * default.rows_per_flight < 34


def test_paper_sizes_figure_7_and_table_2():
    paper = figure7.paper_parameters()
    assert paper.flight_counts == (10, 25, 50, 75, 100)
    assert paper.rows_per_flight == 50
    assert paper.ks == (20, 30, 40)
    default = figure7.default_parameters()
    assert max(default.flight_counts) < min(paper.flight_counts)


def test_paper_sizes_figures_8_and_9():
    paper = figure8.paper_parameters()
    assert (paper.spec.num_flights, paper.spec.rows_per_flight) == (40, 50)
    assert paper.total_operations == 6000
    assert paper.ks == (20, 30, 40)
    assert paper.read_percentages == tuple(float(p) for p in range(0, 100, 10))
