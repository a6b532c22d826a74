"""The paper's figure and table shapes at the experiments' default sizes.

Each test runs one harness of :mod:`repro.experiments` at its
``default_parameters()`` (seconds, not hours) and asserts the shape the
paper reports: who wins, which direction a trend goes.  The printed
artifacts come from the modules' CLIs (``python -m
repro.experiments.figure6``); ``paper_parameters()`` records the paper's
own sizes.  Figures 7 and 8 plot time, so their shapes are asserted on
wall time with generous slack; every other assertion is on counts.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.grounding_policy import GroundingStrategy
from repro.core.grounding_policy import MYSQL_JOIN_LIMIT
from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.core.serializability import SerializabilityMode
from repro.experiments import (
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    table1,
    table2,
)
from repro.experiments.runner import (
    coordinated_users_in,
    run_is_entangled,
    run_quantum_entangled,
)
from repro.logic.atoms import Atom
from repro.logic.formula import AtomFormula, Equality, Negation, conjunction
from repro.logic.terms import Constant, Variable
from repro.relational.database import Database
from repro.solver.grounding import GroundingSearch
from repro.workloads.arrival_orders import ArrivalOrder
from repro.workloads.entangled_workload import generate_workload
from repro.workloads.flights import FlightDatabaseSpec, build_flight_database


class TestFigure5:
    """Every arrival order, and the IS baseline, admits the whole workload."""

    @pytest.mark.parametrize("order", list(ArrivalOrder), ids=lambda o: o.value)
    def test_quantum_arrival_order(self, order):
        workload = generate_workload(figure5.default_parameters(), order, seed=0)
        result = run_quantum_entangled(workload, k=MYSQL_JOIN_LIMIT, label=order.value)
        assert result.admitted == len(workload)

    def test_intelligent_social_random(self):
        workload = generate_workload(
            figure5.default_parameters(), ArrivalOrder.RANDOM, seed=0
        )
        result = run_is_entangled(workload, label="Random IS")
        assert result.admitted == len(workload)


def test_figure6_coordination():
    result = figure6.run_figure6(
        figure6.default_parameters(), k=MYSQL_JOIN_LIMIT, seed=0
    )
    by_order = {order: (q, i) for (order, q, i) in result.rows()}
    # The quantum database reaches full coordination for every arrival order.
    for order, (quantum_pct, _is_pct) in by_order.items():
        assert quantum_pct == 100.0, order
    # IS keeps up when partners arrive back to back and never beats the
    # quantum database.  (At the paper's 34-row size IS falls well short on
    # every non-Alternate order.)
    assert by_order[ArrivalOrder.ALTERNATE.value][1] == 100.0
    for order, (quantum_pct, is_pct) in by_order.items():
        assert is_pct <= quantum_pct, order


def test_figure7_scalability():
    parameters = figure7.default_parameters()
    result = figure7.run_figure7(parameters)
    # Linear-ish scalability: time per transaction does not explode as the
    # database grows (allow generous slack for Python timing noise).
    for label, points in result.series.items():
        per_txn = [run.total_time / count for count, run in points]
        assert per_txn[-1] < per_txn[0] * 5 + 0.05
    # The quantum database with the smallest k is the cheapest quantum config.
    ks = sorted(k for k in parameters.ks)
    totals = {
        label: sum(run.total_time for _c, run in points)
        for label, points in result.series.items()
    }
    assert totals[f"k={ks[0]}"] <= totals[f"k={ks[-1]}"] * 1.5
    assert totals["IS"] <= totals[f"k={ks[-1]}"]


def test_figure8_mixed_time_split():
    parameters = figure8.default_parameters()
    result = figure8.run_figure8(parameters)
    percentages = sorted(parameters.read_percentages)
    low, high = percentages[0], percentages[-1]
    for k in parameters.ks:
        low_run = result.runs[(k, low)]
        high_run = result.runs[(k, high)]
        # More reads → more read time and less resource-transaction time.
        assert high_run.extra["read_time"] >= low_run.extra["read_time"]
        assert high_run.extra["update_time"] <= low_run.extra["update_time"] * 1.5


def test_figure9_coordination_vs_reads():
    parameters = figure8.default_parameters()
    result = figure9.run_figure9(parameters)
    percentages = sorted(parameters.read_percentages)
    series = result.series_for(max(parameters.ks))
    # At 0% reads, the largest k coordinates (near) everything; a read-heavy
    # workload forces pre-emptive grounding and visibly hurts coordination.
    # (Small-k series are noisy at the scaled-down default sizes, so the
    # monotone-decline check is asserted on the largest k only.)
    assert series[0][0] == percentages[0] and series[0][1] >= 90.0
    assert series[-1][1] <= series[0][1]
    assert series[-1][1] < 100.0


def test_table1_max_pending():
    spec = table1.default_parameters()
    by_order = {row.order: row for row in table1.run_table1(spec)}
    pairs = spec.seats_per_flight // 2
    # Alternate keeps at most one transaction pending (plus the transient
    # admission of the partner itself).
    assert by_order[ArrivalOrder.ALTERNATE].measured_max_pending <= 2
    # In Order and Reverse Order keep about half the workload pending.
    for order in (ArrivalOrder.IN_ORDER, ArrivalOrder.REVERSE_ORDER):
        assert by_order[order].measured_max_pending >= pairs
    # Random sits in between.
    assert (
        by_order[ArrivalOrder.ALTERNATE].measured_max_pending
        <= by_order[ArrivalOrder.RANDOM].measured_max_pending
        <= by_order[ArrivalOrder.IN_ORDER].measured_max_pending + 1
    )


def test_table2_coordination():
    parameters = figure7.default_parameters()
    averages = table2.run_table2(parameters).averages
    ks = sorted(parameters.ks)
    # Coordination percentage is (weakly) monotone in k: pre-emptive
    # grounding is the only thing that costs coordination.
    for smaller, larger in zip(ks, ks[1:]):
        assert averages[f"k={smaller}"] <= averages[f"k={larger}"] + 1e-9
    # The largest k achieves near-perfect coordination and clearly beats the
    # intelligent-social baseline (the paper's 99.9% vs 20.2%).  At the
    # scaled-down default sizes the *smallest* k can fall below IS — the
    # paper's "even k=20 is 2x IS" claim needs the paper-sized workloads,
    # so it is not asserted here.
    assert averages[f"k={ks[-1]}"] >= 95.0
    assert averages[f"k={ks[-1]}"] > averages["IS"]


class TestDesignAblations:
    """Two of the quantum database's own design choices.

    * **Grounding victim order** — the prototype grounds the *oldest*
      pending transactions when the k bound is hit; a small k can only lose
      coordination, never gain it, whichever victim order it uses.
    * **Serializability mode** — semantic serializability grounds only the
      transactions a collapse needs, while strict (arrival-order)
      serializability drags the whole prefix along.
    """

    SPEC = FlightDatabaseSpec(num_flights=1, rows_per_flight=6)
    SMALL_K = 4
    ANY_SEAT = (
        "-Available({f}, ?s), +Bookings('{name}', {f}, ?s) :-1 Available({f}, ?s)"
    )

    def run_with_strategy(self, strategy: GroundingStrategy, k: int = SMALL_K):
        workload = generate_workload(self.SPEC, ArrivalOrder.IN_ORDER, seed=0)
        database = build_flight_database(self.SPEC)
        qdb = QuantumDatabase(database, QuantumConfig(k=k, strategy=strategy))
        for transaction in workload:
            qdb.execute(transaction)
        qdb.ground_all()
        return coordinated_users_in(database, workload), workload.max_possible_coordinations

    def test_grounding_victim_order(self):
        oldest = self.run_with_strategy(GroundingStrategy.OLDEST_FIRST)
        newest = self.run_with_strategy(GroundingStrategy.NEWEST_FIRST)
        unbounded = self.run_with_strategy(GroundingStrategy.OLDEST_FIRST, k=10_000)
        # With an unbounded k the system coordinates everything; how much a
        # small k loses — and which victim order loses less — depends on the
        # arrival pattern and scale, so only the direction is asserted.
        assert unbounded[0] == unbounded[1]
        assert oldest[0] <= unbounded[0]
        assert newest[0] <= unbounded[0]

    def test_serializability_mode(self):
        flight = self.SPEC.flight_numbers()[0]
        remaining = {}
        for mode in SerializabilityMode:
            qdb = QuantumDatabase(
                build_flight_database(self.SPEC), QuantumConfig(serializability=mode)
            )
            for i in range(6):
                qdb.execute(self.ANY_SEAT.format(f=flight, name=f"user{i}"))
            # A read touching only the *last* user's booking arrives.
            qdb.read("Bookings", ["user5", None, None])
            remaining[mode] = qdb.pending_count
        # Semantic serializability preserves strictly more deferred choices.
        assert remaining[SerializabilityMode.SEMANTIC] > remaining[SerializabilityMode.STRICT]
        assert remaining[SerializabilityMode.STRICT] == 0
        assert remaining[SerializabilityMode.SEMANTIC] == 5


#: The empirically known critical clause/variable ratio for random 3-SAT.
CRITICAL_RATIO_3SAT = 4.27


def random_3sat_body(num_variables: int, num_clauses: int, rng: random.Random):
    """A uniform random 3-SAT instance as a body over ``Bool(v)``.

    One ``Bool(?xi)`` atom per variable; each clause picks three distinct
    variables and negates each with probability 1/2, and holds unless every
    literal takes its falsifying value.
    """
    names = [Variable(f"x{i}") for i in range(1, num_variables + 1)]
    parts = [AtomFormula(Atom.body("Bool", [name])) for name in names]
    for _ in range(num_clauses):
        chosen = rng.sample(names, 3)
        # A positive literal (probability 1/2) is falsified by 0.
        falsifying = [Constant(0 if rng.random() < 0.5 else 1) for _ in chosen]
        parts.append(Negation(conjunction(map(Equality, chosen, falsifying))))
    return conjunction(parts)


def bool_database() -> Database:
    """The one table the 3-SAT bodies range over: ``Bool`` = {0, 1}."""
    database = Database()
    database.create_table("Bool", ["v"], key=["v"])
    for value in (0, 1):
        database.insert("Bool", (value,))
    return database


@pytest.mark.parametrize("seed", range(40))
def test_kernel_decides_random_3sat_like_brute_force(seed):
    """The phase-transition test counts the kernel's own decisions, so
    they must be right: on small instances across the ratio sweep the
    search's verdict, its witness and its number of distinct groundings
    match a brute-force evaluation of the same body over every
    assignment."""
    num_variables = 8
    ratio = (1.0, 3.0, CRITICAL_RATIO_3SAT, 5.5, 7.0)[seed % 5]
    rng = random.Random(seed)
    body = random_3sat_body(num_variables, round(ratio * num_variables), rng)
    names = [f"x{i}" for i in range(1, num_variables + 1)]

    def holds(valuation):
        return body.evaluate(valuation, lambda _relation, values: values[0] in (0, 1))

    models = [
        valuation
        for bits in itertools.product((0, 1), repeat=num_variables)
        if holds(valuation := dict(zip(names, bits)))
    ]
    search = GroundingSearch(bool_database())
    result = search.find_one(body)
    assert result.satisfiable == bool(models)
    if result.satisfiable:
        assert holds(result.valuation())
    assert len(search.find_all(body)) == len(models)


def test_sat_phase_transition():
    """Random 3-SAT is easy, hard near the critical ratio, then easy again.

    The paper's Section 6 argues resource allocation behaves the same way,
    so a quantum database could detect the hard region and ground
    aggressively there.  The instances run through the system's own
    admission search, effort counted in its search nodes.
    """
    num_variables, instances = 18, 8
    database = bool_database()
    rng = random.Random(42)
    by_ratio = {}
    for ratio in (1.0, 2.0, 3.0, CRITICAL_RATIO_3SAT, 5.5, 7.0):
        nodes = []
        satisfiable = 0
        for _ in range(instances):
            body = random_3sat_body(num_variables, round(ratio * num_variables), rng)
            result = GroundingSearch(database).find_one(body)
            if result.satisfiable:
                satisfiable += 1
            nodes.append(result.statistics.nodes)
        by_ratio[round(ratio, 2)] = (
            satisfiable / instances,
            sum(nodes) / len(nodes),
        )
    # Under-constrained instances are almost all satisfiable; heavily
    # over-constrained ones almost never are.
    assert by_ratio[1.0][0] >= 0.9
    assert by_ratio[7.0][0] <= 0.2
    # Search effort peaks around the critical ratio (easy-hard-easy).
    critical_effort = by_ratio[round(CRITICAL_RATIO_3SAT, 2)][1]
    assert critical_effort >= by_ratio[1.0][1]
    assert critical_effort >= by_ratio[7.0][1] * 0.5
