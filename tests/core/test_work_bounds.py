"""Deterministic work bounds on the Figure 7 workload.

The Figure 7 stream (entangled pairs, 10 flights of 4 rows; Random arrival
order, seed 0, first) runs through the quantum database under the
configurations whose whole point is doing *less work for the same
decisions*.  Every bound is also checked on the other three arrival orders
of Table 1 and on two more Random seeds, whose partitions grow and resolve
differently.  Each bound is on a counter of ``statistics_report()``, never
on a clock, so it holds on any machine:

* routing — the signature index keeps the overlap scan near one
  unification check per transaction;
* the witness cache — at least 2x fewer composed-body passes, at
  identical decisions with the cache on, off and through ``commit_batch``;
* sampling — on an oversized partition exactly the over-capacity arrivals
  are decided by the estimator, and each says so (``exact is False``).
"""

from __future__ import annotations

import functools

import pytest

from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.solver.strategy import AdmissionSearchConfig, SamplingConfig
from repro.workloads.arrival_orders import ArrivalOrder
from repro.workloads.entangled_workload import generate_workload
from repro.workloads.flights import FlightDatabaseSpec, build_flight_database

SPEC = FlightDatabaseSpec(num_flights=10, rows_per_flight=4)
K = 4
#: (arrival order, seed) of every stream; the Figure 7 stream comes first.
STREAMS = [
    (ArrivalOrder.RANDOM, 0),
    (ArrivalOrder.RANDOM, 1),
    (ArrivalOrder.RANDOM, 2),
    (ArrivalOrder.ALTERNATE, 0),
    (ArrivalOrder.IN_ORDER, 0),
    (ArrivalOrder.REVERSE_ORDER, 0),
]
#: The configurations a stream runs under, by name.
VARIANTS = {
    "default": QuantumConfig(k=K),
    "cache off": QuantumConfig(k=K, witness_cache=False),
}

streams = pytest.mark.parametrize(
    "order, seed", STREAMS, ids=[f"{order.value}-{seed}" for order, seed in STREAMS]
)


@functools.cache
def run(order: ArrivalOrder, seed: int, variant: str, *, batch: bool = False):
    """One stream under ``VARIANTS[variant]``: (decisions, statistics)."""
    workload = generate_workload(SPEC, order, seed=seed)
    qdb = QuantumDatabase(build_flight_database(SPEC), VARIANTS[variant])
    if batch:
        results = qdb.commit_batch(list(workload.transactions))
    else:
        results = [qdb.execute(t) for t in workload.transactions]
    qdb.ground_all()
    return tuple(result.committed for result in results), qdb.statistics_report()


@streams
def test_every_admission_path_decides_alike(order, seed):
    # The cache is a pure fast path and commit_batch a pure batching of the
    # same admissions: neither changes a decision.
    decisions, stats = run(order, seed, "default")
    assert run(order, seed, "cache off")[0] == decisions
    assert run(order, seed, "default", batch=True)[0] == decisions
    # The exact search never samples without the opt-in.
    assert stats["search.samples"] == 0


@streams
def test_routing_stays_near_one_unification_check_per_transaction(order, seed):
    decisions, stats = run(order, seed, "default")
    assert stats["state.admitted"] + stats["state.rejected"] == len(decisions)
    # The exhaustive pairwise scan made ~450 checks per transaction here.
    assert stats["partitions.unification_checks"] <= 2 * len(decisions)


@streams
def test_witness_cache_halves_composed_body_passes(order, seed):
    passes_on = run(order, seed, "default")[1]["cache.composed_body_passes"]
    passes_off = run(order, seed, "cache off")[1]["cache.composed_body_passes"]
    assert passes_on * 2 <= passes_off, (passes_on, passes_off)


def test_oversized_partition_samples_exactly_the_overbooked_arrivals():
    """Bookings pile onto one flight until the estimator engages.

    With the witness cache off, the first ``seats`` arrivals extend the
    partition's solution; each of the ``overbook`` arrivals after them
    fails to extend it and solves the whole composed body, which is above
    the sampling ``threshold`` — the regime the estimator exists for.
    """
    seats, overbook, k, threshold = 10, 4, 16, 4
    search = AdmissionSearchConfig(
        sampling=SamplingConfig(threshold=threshold, samples=16, seed=7),
    )
    qdb = QuantumDatabase(
        config=QuantumConfig(k=k, search=search, witness_cache=False)
    )
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    qdb.load_rows("Available", [("f1", f"s{i}") for i in range(seats)])
    results = [
        qdb.execute(
            f"-Available('f1', ?s), +Bookings('u{i}', 'f1', ?s)"
            " :-1 Available('f1', ?s)"
        )
        for i in range(seats + overbook)
    ]
    sampled = [r for r in results if r.method == "sampled"]
    assert len(sampled) == overbook, [r.method for r in results]
    assert all(not r.exact for r in sampled)
    assert all(r.exact for r in results if r.method != "sampled")
    assert qdb.statistics_report()["cache.sampled_admissions"] == len(sampled)
