"""Seeded arrival streams and the fingerprint of a run.

``seeded_stream`` draws pinned bookings, flight-agnostic wildcards that
merge partitions, entangled pairs and overbooked flights; ``run_stream``
runs one through ``commit_batch`` and fingerprints everything observable
— decisions, partition contents, pending set, invariant counters,
grounding valuations, final store state.  ``run_stream(...,
reference=True)`` routes through the exhaustive scan instead of the
signature index; ``test_serial_admission.py`` holds index routing to it
on these streams.

Here: a ``node_budget`` far above what a stream needs is invisible — a
bounded exact search with headroom is the unbounded one.
"""

from __future__ import annotations

import random

from repro import QuantumConfig, QuantumDatabase, parse_transaction
from repro.solver.strategy import AdmissionSearchConfig
from reference_scan import ExhaustiveScan

FLIGHTS = 4
SEATS = 3


def make_qdb(*, k=3, search=None, reference=False):
    kwargs = {} if search is None else {"search": search}
    qdb = QuantumDatabase(config=QuantumConfig(k=k, **kwargs))
    if reference:
        qdb.state.partitions = ExhaustiveScan()
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    qdb.load_rows(
        "Available",
        [(f, f"s{i}") for f in range(1, FLIGHTS + 1) for i in range(SEATS)],
    )
    return qdb


def pinned(user, flight):
    return (
        f"-Available({flight}, ?s), +Bookings('{user}', {flight}, ?s)"
        f" :-1 Available({flight}, ?s)"
    )


def wildcard(user):
    return (
        f"-Available(?f, ?s), +Bookings('{user}', ?f, ?s)"
        " :-1 Available(?f, ?s)"
    )


def seeded_stream(seed, *, length=14, cross_ratio=0.15, partner_ratio=0.2):
    """One seeded arrival stream (parsed transactions, arrival order).

    ``cross_ratio`` of arrivals are wildcards (their atoms unify with
    every flight's partition); ``partner_ratio`` of draws emit an
    entangled pair pinned to one flight; the rest are pinned single
    bookings.  Overbooking relative to ``k`` and the seat supply produces
    rejections and forced groundings.
    """
    rng = random.Random(seed)
    specs: list[tuple[str, str, str | None]] = []
    index = 0
    while len(specs) < length:
        user = f"u{seed}_{index}"
        index += 1
        roll = rng.random()
        if roll < cross_ratio:
            specs.append((wildcard(user), user, None))
        elif roll < cross_ratio + partner_ratio:
            flight = rng.randrange(1, FLIGHTS + 1)
            first, second = f"{user}a", f"{user}b"
            specs.append((pinned(first, flight), first, second))
            specs.append((pinned(second, flight), second, first))
        else:
            flight = rng.randrange(1, FLIGHTS + 1)
            specs.append((pinned(user, flight), user, None))
    specs = specs[:length]
    rng.shuffle(specs)
    return [
        parse_transaction(text, client=client, partner=partner)
        for text, client, partner in specs
    ]


def run_stream(transactions, *, k=3, search=None, reference=False):
    """Run one stream through ``commit_batch`` and fingerprint everything
    observable: decisions, partition contents, the pending set, the
    admitted / rejected / merges / pending invariants, every grounding
    valuation (admission-time and final) and the final store."""
    qdb = make_qdb(k=k, search=search, reference=reference)
    results = qdb.commit_batch(transactions)
    decisions = [r.committed for r in results]
    partitions = sorted(
        p.transaction_ids() for p in qdb.state.partitions.partitions
    )
    pending = sorted(
        e.transaction_id for e in qdb.state.pending_transactions()
    )
    report = qdb.statistics_report()
    invariants = {
        "admitted": report["state.admitted"],
        "rejected": report["state.rejected"],
        "merges": report["partitions.merges"],
        "pending": qdb.pending_count,
    }
    qdb.ground_all()
    valuations = {
        tid: record.valuation
        for tid, record in qdb.state.grounded_results.items()
    }
    store = {
        name: sorted(tuple(row.values) for row in qdb.table(name))
        for name in ("Available", "Bookings")
    }
    return {
        "decisions": decisions,
        "partitions": partitions,
        "pending": pending,
        "invariants": invariants,
        "valuations": valuations,
        "store": store,
    }


def assert_identical(reference, observed, context):
    """Every fingerprint facet must match the reference run exactly."""
    for facet in ("decisions", "partitions", "pending", "invariants"):
        assert observed[facet] == reference[facet], (context, facet)
    assert observed["valuations"] == reference["valuations"], (
        context,
        "valuations",
    )
    assert observed["store"] == reference["store"], (context, "store")


def test_generous_node_budget_changes_nothing():
    """A node budget far above what the workload needs must be invisible:
    bounded search with headroom is still exact search."""
    budgeted = AdmissionSearchConfig(node_budget=100_000)
    for seed in range(6):
        transactions = seeded_stream(seed + 4000, cross_ratio=0.15)
        reference = run_stream(transactions)
        observed = run_stream(transactions, search=budgeted)
        assert_identical(reference, observed, ("budgeted", seed))
