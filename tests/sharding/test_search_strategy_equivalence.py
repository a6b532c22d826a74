"""Seeded-stream equivalence: branch-and-bound must not drift.

The admission-search redesign promises that the strategy selected through
``QuantumConfig(search=AdmissionSearchConfig(...))`` changes *how fast* an
admission decision is reached, never *what* is decided.  This suite reuses
the linearization harness's seeded stream generator and full fingerprint
(decisions, partition contents, pending set, invariant counters, grounding
valuations, final store state) to prove ``strategy="bnb"`` — per-shape fast
paths, cost bounds and trail-based undo included — is bit-identical to the
seed backtracking searcher over randomized arrival streams, on the
serialized writer and on lane-parallel admission.
"""

from __future__ import annotations

import pytest

from test_concurrent_admission_harness import (
    assert_linearized,
    barrier_injector,
    jitter_scheduler,
    run_stream,
    seeded_stream,
)

from repro.solver.strategy import AdmissionSearchConfig

BNB = AdmissionSearchConfig(strategy="bnb")

#: Serialized-writer sweep: 3 cross-shard ratios x 25 seeds = 75 streams.
RATIOS = (0.0, 0.15, 0.4)
SEEDS = 25


@pytest.mark.parametrize("cross_ratio", RATIOS)
def test_bnb_matches_backtracking_on_serialized_writer(cross_ratio):
    """Same stream, same decisions and state — only the searcher differs."""
    for seed in range(SEEDS):
        transactions = seeded_stream(seed, cross_ratio=cross_ratio)
        reference = run_stream(transactions, shards=4, lanes=False)
        observed = run_stream(transactions, shards=4, lanes=False, search=BNB)
        assert_linearized(reference, observed, (cross_ratio, seed, "bnb"))


def test_bnb_matches_backtracking_under_lane_parallelism():
    """Strategy equivalence composes with the lane scheduler: jittered,
    barrier-injected lane runs under bnb still reproduce the serialized
    backtracking writer exactly."""
    for seed in range(8):
        transactions = seeded_stream(seed + 300, cross_ratio=0.2)
        reference = run_stream(transactions, shards=4, lanes=False)
        observed = run_stream(
            transactions,
            shards=4,
            lanes=True,
            search=BNB,
            scheduler=(jitter_scheduler(seed), barrier_injector(seed)),
        )
        assert_linearized(reference, observed, ("lanes+bnb", seed))


def test_budgeted_bnb_stays_equivalent_when_budget_is_generous():
    """A node budget far above what the workload needs must be invisible:
    bounded search with headroom is still exact search."""
    budgeted = AdmissionSearchConfig(strategy="bnb", node_budget=100_000)
    for seed in range(6):
        transactions = seeded_stream(seed + 4000, cross_ratio=0.15)
        reference = run_stream(transactions, shards=4, lanes=False)
        observed = run_stream(
            transactions, shards=4, lanes=False, search=budgeted
        )
        assert_linearized(reference, observed, ("budgeted-bnb", seed))
