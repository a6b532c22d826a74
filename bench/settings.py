"""Pinned configuration of the benchmark: no CLI knob changes any of it.

Every constant here is recorded in the environment block of each run.
Sizes are per *round*: a run repeats fixed-size rounds, each on a fresh
database, until the measured regions add up to ``--seconds``.
"""

from __future__ import annotations

from pathlib import Path

#: Closed-loop connections (TCP) or sessions (in-process) generating load.
#: One thread drives both; never more than ``nproc``.
CONNECTIONS = 2

#: ``QuantumConfig`` of every quantum workload.  ``k=4`` triggers forced
#: groundings (~0.2 per transaction) on this geometry, so the k-bound
#: maintenance path is live; ``shards=4`` is the serving configuration.
K = 4
SHARDS = 4
SHARD_BACKEND = "thread"

#: Flight geometry: 4 rows of 3 seats = 12 seats and 6 coordination pairs.
ROWS_PER_FLIGHT = 4
SEAT_LETTERS = "ABC"
SEATS_PER_FLIGHT = ROWS_PER_FLIGHT * len(SEAT_LETTERS)

#: ``commit_batch`` size of ``book_batch``.
BATCH_SIZE = 64

#: ``mixed_session``: after each booking, one extra operation with these
#: probabilities (collapse read, check-in, blind insert+delete).
MIX_READ = 0.30
MIX_CHECK_IN = 0.10
MIX_WRITE = 0.10
#: The extra seat the blind writes add and remove (adjacent to nothing).
EXTRA_SEAT = "9Z"

#: ``lookup_tcp``: mean point lookups before each live booking of a
#: connection.  At 3% commits the lookups that queued behind one are 3% of
#: all, so the p99 lies well inside them and not on their edge.
LOOKUPS_PER_COMMIT = 32

#: ``store_churn``: rows replaced per transaction, transactions between
#: checkpoints (2% of transactions pay for one, so the p99 lies inside
#: them), payload characters per row (~90 bytes JSON-encoded).
STORE_ROWS_PER_TXN = 10
STORE_TXNS_PER_CHECKPOINT = 50
STORE_PAYLOAD_CHARS = 80

#: WAL records between policy checkpoints on ``book_tcp``.
CHECKPOINT_WAL_RECORDS = 1000

#: Per-round sizes, chosen so one round measures for 1.5-2 s on the 2-core
#: reference box: a 16 s run then has seven to nine rounds, and a burst of
#: noise from the shared host spoils a minority of them.
SIZES: dict[str, dict[str, int]] = {
    "book_tcp": {"flights": 64},
    "book_batch": {"flights": 80},
    "mixed_session": {"flights": 96},
    "lookup_tcp": {"booked_flights": 64, "open_flights": 16},
    "store_churn": {"rows": 12000, "transactions": 1200},
}

#: The miniature the tests run, and the unmeasured first round of the two
#: workloads that have no quality probe.
MINI_SIZES: dict[str, dict[str, int]] = {
    "book_tcp": {"flights": 8},
    "book_batch": {"flights": 8},
    "mixed_session": {"flights": 8},
    "lookup_tcp": {"booked_flights": 8, "open_flights": 2},
    "store_churn": {"rows": 2000, "transactions": 120},
}

#: A run measures at least this many rounds, so ``setup_s`` and
#: ``recover_s`` are medians of several set-ups and restarts.
MIN_ROUNDS = 3

#: Cold restarts timed per round (each from its own copy of the log).
RECOVERIES_PER_ROUND = 2

#: The quality probe.  ``coordinated_pct`` is the paper's utility measure,
#: and a later change could trade it for speed.  It cannot be a bounded
#: end-to-end metric (``store_churn`` has none, and from seed to seed it
#: scatters by more than the half point the issue allows), but on fixed
#: inputs it is exact: every partition sees a fixed operation order.  So
#: the unmeasured first round of the three booking workloads runs these
#: inputs whatever ``--seed`` says, and the run is incorrect if it
#: coordinates less than the pinned share by more than the tolerance.
#: 40 flights are 480 requests: one lost pair is 0.42 points.
QUALITY_SEED = "quality"
QUALITY_FLIGHTS = 40
PINNED_COORDINATED_PCT = {
    "book_tcp": 100 * 390 / 480,
    "book_batch": 100 * 390 / 480,
    "mixed_session": 100 * 370 / 480,
}
COORDINATION_TOLERANCE = 0.5

#: A coarse net under the seeded rounds as well: the mean
#: ``coordinated_pct`` of a run's rounds stays above these floors.  k=4 on
#: this geometry lands at 84-85% for plain bookings and at 76-78% when
#: reads force early groundings (Fig. 9); the mean of a slow machine's
#: three rounds scatters by a point, so the floors sit six below.
COORDINATION_FLOORS = {"book_tcp": 78.0, "book_batch": 78.0, "mixed_session": 70.0}

#: ``python3 -m bench repeat``: seeds per workload in each of its two sets
#: (the acceptance rule of the benchmark contract).
RUNS_PER_SET = 10

#: Scratch space: WAL directories and trace files.  Inside the checkout,
#: because a run may read and write nowhere else.
OUT_DIR = Path(__file__).resolve().parent / "out"


def quantum_config(*, lanes: bool = False):
    """The pinned ``QuantumConfig`` (``lanes`` only on ``book_batch``)."""
    from repro import QuantumConfig

    return QuantumConfig(
        k=K, shards=SHARDS, shard_backend=SHARD_BACKEND, admission_lanes=lanes
    )


def durability_config(directory: str):
    """The pinned flush policy of the durable workloads."""
    from repro import DurabilityConfig

    return DurabilityConfig(
        mode="segmented",
        directory=directory,
        fsync=True,
        fsync_window_s=0,
        incremental_bases=True,
        compaction=True,
    )
