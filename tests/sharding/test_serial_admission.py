"""Admission is serial, and index routing decides what the exhaustive scan does.

``QuantumDatabase.commit_batch`` admits every batch in one loop on the
writer, routing every overlap query through the partition manager's
signature index.

* **Batches.**  Over seeded streams — pinned bookings, flight-agnostic
  wildcards that merge partitions, entangled pairs grounded on their
  partner's arrival, overbooked flights that force groundings and
  rejections — ``commit_batch`` decides, partitions and grounds exactly as
  it does when every overlap query is answered by the exhaustive
  pairwise-unification scan (:class:`~reference_scan.ExhaustiveScan`), and
  how a stream is cut into batches changes nothing.
* **What is left of the lanes and shards is names.**  They stay only for
  the repository benchmark: ``QuantumConfig.admission_lanes``, ``shards``
  and ``shard_backend`` (``bench/settings.py``; their inertness is
  ``test_compat_contract.py``), and ``AdmissionController.commit_many`` and
  ``ShardedPartitionManager.merged_for`` / ``plan_on_shards``
  (``bench/spans.py`` wraps them by name).  The lane tuning fields are
  gone, and every span target of the traced pass still resolves.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from bench import spans
from repro import QuantumConfig, parse_transaction
from test_seeded_streams import (
    assert_identical,
    make_qdb,
    pinned,
    run_stream,
    seeded_stream,
    wildcard,
)

# -- batches ----------------------------------------------------------------------


def assert_matches_exhaustive_scan(transactions, context, *, k=3):
    """Index-routed ``commit_batch`` ≡ the same stream on the exhaustive scan."""
    reference = run_stream(transactions, k=k, reference=True)
    observed = run_stream(transactions, k=k)
    assert_identical(reference, observed, context)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("cross_ratio", [0.0, 0.15, 0.4])
def test_routed_batch_matches_exhaustive_scan(cross_ratio, k):
    for seed in range(20):
        transactions = seeded_stream(seed, cross_ratio=cross_ratio)
        assert_matches_exhaustive_scan(transactions, (cross_ratio, seed, k), k=k)


def every_nth_wildcard_stream(seed, n, *, length=14):
    """Pinned bookings with a flight-agnostic one at every ``n``-th
    position: each wildcard merges the pinned partitions."""
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


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_wildcard_merge_every_nth_arrival(n, k):
    for seed in range(6):
        transactions = every_nth_wildcard_stream(seed, n)
        assert_matches_exhaustive_scan(transactions, (n, seed, k), k=k)


def test_duplicate_partner_keys_match_the_exhaustive_scan():
    """The entanglement registry keeps one waiting entry per (client,
    partner) key, so which duplicate a reverse partner matches depends on
    registration order: T3 must match T2, the last registered, under
    either routing."""
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
    assert_matches_exhaustive_scan(transactions, "duplicate partners")


def test_entangled_pairs_ground_on_partner_arrival():
    transactions = []
    for flight in range(1, 5):
        a, b = f"pa{flight}", f"pb{flight}"
        transactions.append(parse_transaction(pinned(a, flight), client=a, partner=b))
        transactions.append(parse_transaction(pinned(b, flight), client=b, partner=a))
    qdb = make_qdb(k=8)
    results = qdb.commit_batch(transactions)
    # The second partner of each pair grounds both within the batch.
    assert [len(r.grounded) for r in results] == [0, 2] * 4
    assert qdb.pending_count == 0
    assert_matches_exhaustive_scan(transactions, "pairs")


@pytest.mark.parametrize("batch", [1, 5, 14])
def test_batch_boundaries_change_nothing(batch):
    """``commit_batch`` is ``execute`` per element, in order, whatever the
    cut: one batch per transaction, runs of five, the whole stream.  The
    reference runs ``execute`` on the exhaustive scan."""
    transactions = seeded_stream(99, cross_ratio=0.2)
    reference = make_qdb(reference=True)
    expected = [reference.execute(t).committed for t in transactions]
    reference.ground_all()
    qdb = make_qdb()
    decisions = []
    for start in range(0, len(transactions), batch):
        decisions.extend(
            r.committed for r in qdb.commit_batch(transactions[start : start + batch])
        )
    qdb.ground_all()
    assert decisions == expected
    assert qdb.table("Bookings").snapshot() == reference.table("Bookings").snapshot()


# -- what is left of the lanes ----------------------------------------------------


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
