"""Randomized linearization harness for the lane-parallel admission pipeline.

The headline claim of the router-first concurrent admission pipeline
(:mod:`repro.sharding.admission_lane`) is *concurrency without decision
drift*: for any arrival sequence, running admissions on per-shard lanes
(with cross-shard arrivals as epoch barriers) must produce decisions,
partition contents, grounding valuations and final store state
**bit-identical** to the serialized writer — no matter how the lanes
interleave.

This harness attacks that claim with seeded randomness on three axes:

* **streams** — seeded arrival sequences mixing pinned bookings (the
  single-shard common case), wildcard bookings (cross-shard barriers),
  entangled partner pairs (the partner-aware rung) and overbooked flights
  (rejections and forced groundings), at tunable cross-shard ratios;
* **schedules** — a barrier-injecting scheduler: seeded jitter in the
  lane workers randomizes interleavings, and a seeded injector forces
  extra epoch barriers at arbitrary stream positions (escalation must
  never change outcomes, so *any* barrier placement must be invisible);
* **shard counts** — the grounding fan-out at barriers and at the final
  ``ground_all`` runs on the shards' thread pools, at 2 and 4 shards.

Across the parametrizations below the harness replays well over 200
seeded streams per run (each compared fingerprint-by-fingerprint against
the serialized writer), which is the PR's acceptance bar.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import QuantumConfig, QuantumDatabase, parse_transaction

#: Thread-backend sweep: 3 cross-shard ratios x 60 seeds = 180 streams.
THREAD_RATIOS = (0.0, 0.15, 0.4)
THREAD_SEEDS = 60

FLIGHTS = 4
SEATS = 3


def make_qdb(*, shards, lanes=False, backend="thread", k=3, search=None):
    kwargs = {} if search is None else {"search": search}
    qdb = QuantumDatabase(
        config=QuantumConfig(
            k=k, shards=shards, admission_lanes=lanes, shard_backend=backend, **kwargs
        )
    )
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


def seeded_stream(
    seed,
    *,
    length=14,
    cross_ratio=0.15,
    partner_ratio=0.2,
):
    """One seeded arrival stream (parsed transactions, arrival order).

    ``cross_ratio`` of arrivals are wildcards (route cross-shard, hence
    epoch barriers); ``partner_ratio`` of draws emit an entangled pair
    pinned to one flight (the partner-aware lane rung); the rest are
    pinned single bookings.  Overbooking relative to ``k`` and the seat
    supply produces rejections and forced groundings.
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


def jitter_scheduler(seed):
    """Deterministic per-(slot, lane) jitter to randomize interleavings."""

    def hook(slot, lane_id):
        time.sleep(((slot * 2654435761 + lane_id * 40503 + seed) % 7) * 3e-4)

    return hook


def barrier_injector(seed, ratio=0.12):
    """Seeded injector forcing extra epoch barriers at stream positions."""
    rng = random.Random(seed ^ 0x5EED)
    picks = {slot for slot in range(512) if rng.random() < ratio}

    def inject(slot, _transaction):
        return slot in picks

    return inject


def run_stream(
    transactions, *, shards, lanes, backend="thread", scheduler=None, search=None
):
    """Run one stream to completion and fingerprint everything observable.

    The fingerprint is exactly what the acceptance criteria name: the
    accept/reject decision vector, the partition contents, the
    ``BENCH_admission.json``-visible invariants (admitted / rejected /
    merges / pending), every grounding valuation (admission-time and
    final), and the final extensional store state.
    """
    qdb = make_qdb(shards=shards, lanes=lanes, backend=backend, search=search)
    if scheduler is not None:
        controller = qdb.admission_controller()
        assert controller is not None
        jitter, injector = scheduler
        controller.before_admit = jitter
        controller.barrier_injector = injector
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
    qdb.close()
    return {
        "decisions": decisions,
        "partitions": partitions,
        "pending": pending,
        "invariants": invariants,
        "valuations": valuations,
        "store": store,
    }


def assert_linearized(reference, observed, context):
    """Every fingerprint facet must match the serialized writer exactly."""
    for facet in ("decisions", "partitions", "pending", "invariants"):
        assert observed[facet] == reference[facet], (context, facet)
    assert observed["valuations"] == reference["valuations"], (
        context,
        "valuations",
    )
    assert observed["store"] == reference["store"], (context, "store")


@pytest.mark.parametrize("cross_ratio", THREAD_RATIOS)
def test_linearization_thread_backend(cross_ratio):
    """Lane-parallel == serialized, over seeded streams and schedules."""
    for seed in range(THREAD_SEEDS):
        transactions = seeded_stream(seed, cross_ratio=cross_ratio)
        reference = run_stream(
            transactions, shards=4, lanes=False, backend="thread"
        )
        observed = run_stream(
            transactions,
            shards=4,
            lanes=True,
            backend="thread",
            scheduler=(jitter_scheduler(seed), barrier_injector(seed)),
        )
        assert_linearized(
            reference, observed, (cross_ratio, seed, "thread")
        )


def every_nth_cross_shard_stream(seed, n, *, length=14):
    """Seeded stream where every ``n``-th arrival is a wildcard barrier."""
    rng = random.Random(seed)
    transactions = []
    for index in range(length):
        user = f"n{seed}_{index}"
        if index % n == n - 1:
            text, client, partner = wildcard(user), user, None
        else:
            flight = rng.randrange(1, FLIGHTS + 1)
            text, client, partner = pinned(user, flight), user, None
        transactions.append(
            parse_transaction(text, client=client, partner=partner)
        )
    return transactions


# Threads are the only shard backend; the one-value parameter keeps the
# test ids of the process-backend era.
@pytest.mark.parametrize("backend", ["thread"])
@pytest.mark.parametrize("n", [3, 5])
def test_epoch_barriers_every_nth_arrival(n, backend):
    """Property: streams with a cross-shard arrival every Nth position make
    identical decisions at shards=1/2/4 (lanes on).

    This is the epoch-barrier stress shape: lanes repeatedly fill with
    single-shard work and are drained by the periodic wildcard, so the
    barrier lifecycle (fill → drain → serialized merge → refill) runs many
    times per stream.
    """
    for seed in range(6):
        transactions = every_nth_cross_shard_stream(seed, n)
        reference = run_stream(
            transactions, shards=1, lanes=False, backend="thread"
        )
        for shards in (2, 4):
            observed = run_stream(
                transactions,
                shards=shards,
                lanes=True,
                backend=backend,
                scheduler=(jitter_scheduler(seed), barrier_injector(seed)),
            )
            # shards=1 has no shard ownership, so partition fingerprints,
            # decisions, valuations and the store must all still agree.
            assert_linearized(
                reference, observed, (n, backend, seed, shards)
            )


def test_all_barriers_schedule_is_the_serialized_writer():
    """Forcing a barrier at *every* arrival degenerates to the serialized
    writer — the two extremes of the scheduler lattice must agree."""
    transactions = seeded_stream(777, cross_ratio=0.2)
    reference = run_stream(transactions, shards=4, lanes=False)
    observed = run_stream(
        transactions,
        shards=4,
        lanes=True,
        scheduler=(lambda *_: None, lambda *_: True),
    )
    assert_linearized(reference, observed, "all-barriers")


def test_duplicate_partner_keys_stay_deterministic():
    """Two in-flight arrivals with the *same* (client, partner) key must
    serialize on one lane (or a barrier): the entanglement registry keeps
    one waiting entry per key, so which duplicate a later reverse partner
    matches depends on registration order — the lanes must reproduce the
    serialized writer's order exactly, including the grounded pair."""
    specs = [
        # T1 and T2 share the key (A, B) but pin different flights (so
        # atom routing alone would happily put them on different lanes);
        # T3 completes the pair and must match T2 — the last registered —
        # exactly as on the serialized writer.
        (pinned("A1", 1), "A", "B"),
        (pinned("A2", 2), "A", "B"),
        (pinned("B1", 2), "B", "A"),
        # Unrelated traffic to keep the lanes busy around them.
        (pinned("x1", 3), "x1", None),
        (pinned("x2", 4), "x2", None),
    ]
    transactions = [
        parse_transaction(text, client=client, partner=partner)
        for text, client, partner in specs
    ]
    reference = run_stream(transactions, shards=4, lanes=False)
    for schedule_seed in range(6):
        observed = run_stream(
            transactions,
            shards=4,
            lanes=True,
            scheduler=(
                jitter_scheduler(schedule_seed),
                barrier_injector(schedule_seed),
            ),
        )
        assert_linearized(reference, observed, ("dup-partners", schedule_seed))


def test_entangled_pairs_ride_the_lanes():
    """Same-flight partner pairs take the partner-aware lane rung (not a
    blanket barrier), and coordination outcomes stay identical."""
    transactions = []
    for i in range(8):
        flight = (i % FLIGHTS) + 1
        a, b = f"pa{i}", f"pb{i}"
        transactions.append(
            parse_transaction(pinned(a, flight), client=a, partner=b)
        )
        transactions.append(
            parse_transaction(pinned(b, flight), client=b, partner=a)
        )
    reference = run_stream(transactions, shards=4, lanes=False)

    qdb = make_qdb(shards=4, lanes=True)
    results = qdb.commit_batch(transactions)
    controller = qdb.admission_controller()
    assert controller is not None
    # The pairs were lane-dispatched, not serialized behind barriers.
    assert controller.statistics.lane_dispatches > 0
    assert controller.statistics.barrier_arrivals == 0
    decisions = [r.committed for r in results]
    qdb.ground_all()
    valuations = {
        tid: record.valuation
        for tid, record in qdb.state.grounded_results.items()
    }
    qdb.close()
    assert decisions == reference["decisions"]
    assert valuations == reference["valuations"]
