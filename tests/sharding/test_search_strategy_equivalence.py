"""Seeded-stream equivalence: branch-and-bound must not drift.

The admission-search redesign promises that the strategy selected through
``QuantumConfig(search=AdmissionSearchConfig(...))`` changes *how fast* an
admission decision is reached, never *what* is decided.  This suite runs
seeded arrival streams (pinned bookings, flight-agnostic wildcards that
merge partitions, entangled pairs, overbooked flights) and compares a full
fingerprint — decisions, partition contents, pending set, invariant
counters, grounding valuations, final store state — to prove
``strategy="bnb"`` (per-shape fast paths, cost bounds and trail-based undo
included) is bit-identical to the seed backtracking searcher.

``run_stream(..., reference=True)`` routes through the exhaustive scan
instead of the signature index; ``test_serial_admission.py`` holds index
routing to it on the same streams.
"""

from __future__ import annotations

import random

import pytest

from repro import QuantumConfig, QuantumDatabase, parse_transaction
from repro.solver.strategy import AdmissionSearchConfig
from reference_scan import ExhaustiveScan

BNB = AdmissionSearchConfig(strategy="bnb")

#: 3 wildcard ratios x 25 seeds = 75 streams.
RATIOS = (0.0, 0.15, 0.4)
SEEDS = 25

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


@pytest.mark.parametrize("cross_ratio", RATIOS)
def test_bnb_matches_backtracking_on_serialized_writer(cross_ratio):
    """Same stream, same decisions and state — only the searcher differs."""
    for seed in range(SEEDS):
        transactions = seeded_stream(seed, cross_ratio=cross_ratio)
        reference = run_stream(transactions)
        observed = run_stream(transactions, search=BNB)
        assert_identical(reference, observed, (cross_ratio, seed, "bnb"))


def test_budgeted_bnb_stays_equivalent_when_budget_is_generous():
    """A node budget far above what the workload needs must be invisible:
    bounded search with headroom is still exact search."""
    budgeted = AdmissionSearchConfig(strategy="bnb", node_budget=100_000)
    for seed in range(6):
        transactions = seeded_stream(seed + 4000, cross_ratio=0.15)
        reference = run_stream(transactions)
        observed = run_stream(transactions, search=budgeted)
        assert_identical(reference, observed, ("budgeted-bnb", seed))
