"""Admission is serial: one batch loop, sharded or not.

``QuantumDatabase.commit_batch`` admits every batch in one loop on the
writer; the shards only route admissions and run grounding plans.

* **Sharded batches.**  Over seeded streams — pinned bookings,
  flight-agnostic wildcards that merge partitions across shards, entangled
  pairs grounded on their partner's arrival, overbooked flights — a
  sharded ``commit_batch`` decides, partitions and grounds exactly like the
  unsharded one, and how a stream is cut into batches changes nothing.
* **The plan fan-out** is the one place other threads still run: under a
  tiny switch interval, ``ground_all`` fanned out on the shards' pools
  grounds exactly what the unsharded inline ``ground_all`` grounds, and
  the shared search totals lose no update.
* **What is left of the lanes is inert.**  Two names of the deleted lane
  pipeline stay, only for the repository benchmark:
  ``QuantumConfig.admission_lanes`` (``bench/settings.py`` passes
  ``admission_lanes=True`` for ``book_batch``) and
  ``repro.sharding.admission_lane.AdmissionController.commit_many``
  (``bench/spans.py`` wraps it by name).  The flag changes nothing
  observable, the lane tuning fields are gone, and every span target of
  the traced pass still resolves.
"""

from __future__ import annotations

import dataclasses
import random
import sys

import pytest

from bench import generator as gen
from bench import spans
from bench.workloads import build_flights
from repro import QuantumConfig, parse_transaction
from test_search_strategy_equivalence import (
    assert_identical,
    make_qdb,
    pinned,
    run_stream,
    seeded_stream,
    wildcard,
)

FLIGHTS = gen.flight_numbers(6)
BATCH = 16


# -- sharded batches ----------------------------------------------------------


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("cross_ratio", [0.0, 0.15, 0.4])
def test_sharded_batch_matches_unsharded(cross_ratio, shards):
    for seed in range(20):
        transactions = seeded_stream(seed, cross_ratio=cross_ratio)
        reference = run_stream(transactions, shards=1)
        observed = run_stream(transactions, shards=shards)
        assert_identical(reference, observed, (cross_ratio, seed, shards))


def every_nth_wildcard_stream(seed, n, *, length=14):
    """Pinned bookings with a flight-agnostic one at every ``n``-th
    position: each wildcard merges partitions owned by different shards."""
    rng = random.Random(seed)
    transactions = []
    for index in range(length):
        user = f"n{seed}_{index}"
        text = (
            wildcard(user)
            if index % n == n - 1
            else pinned(user, rng.randrange(1, 5))
        )
        transactions.append(parse_transaction(text, client=user))
    return transactions


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_cross_shard_merge_every_nth_arrival(n, shards):
    for seed in range(6):
        transactions = every_nth_wildcard_stream(seed, n)
        reference = run_stream(transactions, shards=1)
        observed = run_stream(transactions, shards=shards)
        assert_identical(reference, observed, (n, seed, shards))


def test_duplicate_partner_keys_match_the_unsharded_loop():
    """The entanglement registry keeps one waiting entry per (client,
    partner) key, so which duplicate a reverse partner matches depends on
    registration order: T3 must match T2, the last registered, on every
    shard count."""
    specs = [
        (pinned("A1", 1), "A", "B"),
        (pinned("A2", 2), "A", "B"),
        (pinned("B1", 2), "B", "A"),
        (pinned("x1", 3), "x1", None),
        (pinned("x2", 4), "x2", None),
    ]
    transactions = [
        parse_transaction(text, client=client, partner=partner)
        for text, client, partner in specs
    ]
    reference = run_stream(transactions, shards=1)
    for shards in (2, 4):
        assert_identical(
            reference, run_stream(transactions, shards=shards), shards
        )


def test_entangled_pairs_ground_on_partner_arrival():
    transactions = []
    for flight in range(1, 5):
        a, b = f"pa{flight}", f"pb{flight}"
        transactions.append(parse_transaction(pinned(a, flight), client=a, partner=b))
        transactions.append(parse_transaction(pinned(b, flight), client=b, partner=a))
    qdb = make_qdb(shards=4, k=8)
    results = qdb.commit_batch(transactions)
    qdb.close()
    # The second partner of each pair grounds both within the batch.
    assert [len(r.grounded) for r in results] == [0, 2] * 4
    assert qdb.pending_count == 0
    assert_identical(
        run_stream(transactions, shards=1), run_stream(transactions, shards=4),
        "pairs",
    )


@pytest.mark.parametrize("batch", [1, 5, 14])
def test_batch_boundaries_change_nothing(batch):
    """``commit_batch`` is ``execute`` per element, in order, whatever the
    cut: one batch per transaction, runs of five, the whole stream."""
    transactions = seeded_stream(99, cross_ratio=0.2)
    reference = make_qdb(shards=4)
    expected = [reference.execute(t).committed for t in transactions]
    reference.ground_all()
    qdb = make_qdb(shards=4)
    decisions = []
    for start in range(0, len(transactions), batch):
        decisions.extend(
            r.committed for r in qdb.commit_batch(transactions[start : start + batch])
        )
    qdb.ground_all()
    assert decisions == expected
    assert qdb.table("Bookings").snapshot() == reference.table("Bookings").snapshot()
    for db in (qdb, reference):
        db.close()


# -- the grounding-plan fan-out -------------------------------------------------


@pytest.mark.parametrize("shards", [2, 4])
def test_plan_fan_out_loses_no_update(shards):
    """Many partitions planned at once on the shard pools, with the
    interpreter switching threads as often as it can: the groundings and
    the shared ``search.*`` totals equal the unsharded inline run's."""
    transactions = [
        parse_transaction(pinned(f"f{flight}_{i}", flight), client=f"f{flight}_{i}")
        for i in range(2)
        for flight in range(1, 5)
    ]

    def ground(shard_count):
        qdb = make_qdb(shards=shard_count, k=8)
        qdb.commit_batch(transactions)
        before = qdb.statistics_report()
        grounded = {g.transaction_id: g.valuation for g in qdb.ground_all()}
        after = qdb.statistics_report()
        qdb.close()
        moved = {
            key: after[key] - before[key]
            for key in ("search.searches", "search.nodes", "state.grounded")
        }
        return grounded, moved

    reference = ground(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(5):
            assert ground(shards) == reference
    finally:
        sys.setswitchinterval(interval)


# -- what is left of the lanes ----------------------------------------------------


def book_batch_run(seed: int, *, lanes: bool):
    """A small ``book_batch`` round under the benchmark's pinned config."""
    (stream,) = gen.booking_streams(seed, FLIGHTS, 1)
    qdb = build_flights(FLIGHTS, lanes=lanes)
    results = []
    for start in range(0, len(stream), BATCH):
        batch = [op.booking for op in stream[start : start + BATCH]]
        parsed = [
            parse_transaction(b.text, client=b.client, partner=b.partner)
            for b in batch
        ]
        for result in qdb.commit_batch(parsed):
            results.append(
                (
                    result.transaction.client,
                    result.committed,
                    result.pending,
                    result.method,
                    result.exact,
                    sorted(
                        (record.transaction.client, sorted(record.valuation.items()))
                        for record in result.grounded
                    ),
                )
            )
    report = qdb.statistics_report()
    qdb.ground_all()
    valuations = sorted(
        (record.transaction.client, sorted(record.valuation.items()))
        for record in qdb.state.grounded_results.values()
    )
    qdb.close()
    return results, valuations, report


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_admission_lanes_flag_changes_nothing(seed):
    serial_results, serial_valuations, serial_report = book_batch_run(
        seed, lanes=False
    )
    lane_results, lane_valuations, lane_report = book_batch_run(seed, lanes=True)
    assert lane_results == serial_results
    assert lane_valuations == serial_valuations
    assert lane_report.keys() == serial_report.keys()
    assert not any(key.startswith("admission.") for key in lane_report)
    counters = ("state.", "cache.", "search.", "partitions.", "store.")
    assert {
        key: value for key, value in lane_report.items() if key.startswith(counters)
    } == {
        key: value
        for key, value in serial_report.items()
        if key.startswith(counters)
    }


@pytest.mark.parametrize(
    "suffix, value", [("queue_depth", 4), ("dispatch_timeout_s", 1.0)]
)
def test_lane_tuning_fields_are_gone(suffix, value):
    names = [field.name for field in dataclasses.fields(QuantumConfig)]
    assert not [name for name in names if name.startswith("lane_")]
    with pytest.raises(TypeError):
        QuantumConfig(shards=4, admission_lanes=True, **{f"lane_{suffix}": value})


def test_every_traced_span_target_resolves():
    recorder = spans.SpanRecorder()
    with spans.install(recorder):
        assert len(spans.installed()) == len(spans.TARGETS)
    assert spans.installed() == []
