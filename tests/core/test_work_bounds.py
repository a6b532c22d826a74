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

A ``book_batch``-shaped round bounds what a grounding costs: no
composition is rebuilt after one (the successor is installed), its delta
notification checks at most one footprint (routed by rows), and
``unification_predicate`` constructs no ``Substitution``.
"""

from __future__ import annotations

import functools
from collections import Counter

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


# -- a grounding pays only for what it grounds --------------------------------------
#
# A ``book_batch``-shaped round (the benchmark's generator: entangled pair
# bookings on 4 x 3-seat flights, random arrival order, commit batches of
# 64, ``k=4``) on fewer flights.  Each bound is on a count of calls.


@functools.cache
def book_batch_round(flights: int = 8, seed: int = 1) -> Counter:
    """One round under call counters; see the tests below for each count."""
    from bench import generator as gen

    from repro import parse_transaction
    from repro.core.partition import Partition, PartitionManager
    from repro.core.quantum_state import QuantumState
    from repro.core.solution_cache import Footprint
    from repro.relational import Database
    from repro.workloads.flights import create_flight_tables

    counts: Counter = Counter()
    #: Partitions grounded since their last merge (or creation).
    grounded: set[int] = set()
    composition = Partition.composition
    merged_for = PartitionManager.merged_for
    apply_grounding = QuantumState.apply_grounding
    touched_by = Footprint.touched_by

    def counted_composition(self):
        if self._composition is None:
            counts["builds"] += 1
            counts["builds after a grounding"] += self.partition_id in grounded
        return composition(self)

    def counted_merged_for(self, atoms):
        partition, merged = merged_for(self, atoms)
        if merged:
            grounded.discard(partition.partition_id)
        return partition, merged

    def counted_apply(self, planned):
        before = counts["touched_by"]
        results = apply_grounding(self, planned)
        grounded.add(planned.partition.partition_id)
        counts["groundings"] += 1
        counts["max touched_by per grounding"] = max(
            counts["max touched_by per grounding"], counts["touched_by"] - before
        )
        return results

    def counted_touched_by(self, deltas):
        counts["touched_by"] += 1
        return touched_by(self, deltas)

    numbers = gen.flight_numbers(flights)
    (stream,) = gen.booking_streams(seed, numbers, 1)
    database = Database()
    create_flight_tables(database)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Partition, "composition", counted_composition)
        patch.setattr(PartitionManager, "merged_for", counted_merged_for)
        patch.setattr(QuantumState, "apply_grounding", counted_apply)
        patch.setattr(Footprint, "touched_by", counted_touched_by)
        qdb = QuantumDatabase(database, QuantumConfig(k=K))
        qdb.load_rows("Available", gen.available_rows(numbers))
        qdb.load_rows("Adjacent", gen.adjacent_rows(numbers))
        for first in range(0, len(stream), 64):
            batch = [
                parse_transaction(
                    op.booking.text, client=op.booking.client, partner=op.booking.partner
                )
                for op in stream[first : first + 64]
            ]
            results = qdb.commit_batch(batch)
            counts["failed"] += sum(not result.committed for result in results)
        counts["transactions"] = len(stream)
        counts["forced"] = qdb.statistics_report()["state.forced_groundings"]
    return counts


def test_grounding_round_is_book_batch_shaped():
    counts = book_batch_round()
    assert counts["failed"] == 0
    assert counts["groundings"] > counts["transactions"] // 3
    assert counts["forced"] > 0  # the k bound is live
    # New partitions still build their composition on first use.
    assert counts["builds"] > 0


def test_no_composition_is_rebuilt_after_a_grounding():
    # A grounding installs the successor of the planned composition; only
    # new partitions, merges and restarts compose from scratch.
    assert book_batch_round()["builds after a grounding"] == 0


def test_a_groundings_delta_notification_checks_at_most_one_footprint():
    # Routed by the deltas' rows, not a check of every live partition.
    assert book_batch_round()["max touched_by per grounding"] <= 1


def test_unification_predicate_constructs_no_substitution(monkeypatch):
    from bench import generator as gen

    from repro import parse_transaction
    from repro.logic.formula import FALSE
    from repro.logic.substitution import Substitution
    from repro.logic.unification import unification_predicate

    (stream,) = gen.booking_streams(1, gen.flight_numbers(2), 1)
    atoms = []
    for op in stream[:8]:
        transaction = parse_transaction(
            op.booking.text, client=op.booking.client, partner=op.booking.partner
        )
        renamed = transaction.rename_variables(f"@{transaction.transaction_id}")
        atoms.extend(renamed.body + renamed.updates)
    built = []
    substitution_init = Substitution.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        substitution_init(self, *args, **kwargs)

    monkeypatch.setattr(Substitution, "__init__", counted_init)
    predicates = [unification_predicate(a, b) for a in atoms for b in atoms]
    assert sum(predicate is not FALSE for predicate in predicates) > len(atoms)
    assert built == []
