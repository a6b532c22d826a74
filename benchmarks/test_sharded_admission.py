"""Sharded admission — signature-routed partitions vs. the exhaustive scan.

Runs the Figure 7 scalability workload (Random arrival order, entangled
pairs, per-flight partitioning) through the quantum database at 1, 2 and 4
partition shards.  ``shards=1`` is the unsharded baseline: every admission
scans every partition's atoms with pairwise unification inside
``merged_for``.  With ``shards >= 2`` the :mod:`repro.sharding` subsystem
routes each admission through the signature index, scanning only the
candidate partitions, and fans grounding plans out on the shards' thread
pools.

The acceptance criteria asserted here:

* accept/reject decisions are identical at every shard count (the index
  is a conservative prefilter confirmed by the exact scan);
* the sharded runs spend **at least 5x fewer** pairwise unification calls
  in the overlap scans (in practice the reduction is 100x+ on this
  constant-pinned workload);
* admission throughput measurably scales from 1 to 4 shards.

Every run also appends its numbers to ``BENCH_admission.json`` at the
repository root — throughput and scan counts per (shard count, backend)
point — so the admission-path perf trajectory is tracked across PRs by
``make check`` and gated against the committed baseline by
``scripts/bench_gate.py`` (``make gate``).
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from benchmarks.bench_json import read_results, write_results
from benchmarks.conftest import BENCH_SCALE, report
from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.experiments.report import format_table
from repro.workloads.arrival_orders import ArrivalOrder
from repro.workloads.entangled_workload import generate_workload
from repro.workloads.flights import FlightDatabaseSpec, build_flight_database

#: Shard counts swept by the benchmark (1 = the unsharded baseline).
SHARD_COUNTS = (1, 2, 4)

#: (shards, backend) sweep points, in reporting order.  The unsharded
#: baseline has no shards, recorded as backend "unsharded"; every sharded
#: point runs on the thread backend, the only one.
SWEEP = ((1, "unsharded"),) + tuple(
    (shards, "thread") for shards in SHARD_COUNTS[1:]
)

#: Where the perf trajectory lands (tracked in git, one file per repo).


def _spec(smoke: bool) -> FlightDatabaseSpec:
    if BENCH_SCALE == "paper":
        return FlightDatabaseSpec(num_flights=50, rows_per_flight=10)
    if smoke:
        return FlightDatabaseSpec(num_flights=10, rows_per_flight=4)
    return FlightDatabaseSpec(num_flights=16, rows_per_flight=4)


def _run(spec: FlightDatabaseSpec, *, shards: int, k: int = 4, seed: int = 0):
    """One sweep point; returns (decisions, statistics, admit_s, total_s).

    Every point admits via per-call ``execute``, so accept/reject decisions
    must be identical across shard counts, which the test asserts.
    """
    workload = generate_workload(spec, ArrivalOrder.RANDOM, seed=seed)
    config = QuantumConfig(k=k, shards=shards)
    qdb = QuantumDatabase(build_flight_database(spec), config)
    start = time.perf_counter()
    decisions = [qdb.execute(t).committed for t in workload.transactions]
    admit_elapsed = time.perf_counter() - start
    qdb.ground_all()
    total_elapsed = time.perf_counter() - start
    statistics = qdb.statistics_report()
    qdb.close()
    return decisions, statistics, admit_elapsed, total_elapsed


def _emit_json(
    path: Path, spec: FlightDatabaseSpec, results: dict[tuple, dict], *, smoke: bool
) -> None:
    """Write the results file (one entry per (shards, backend)).

    The recorded ``scale`` distinguishes the smoke-shrunk workload from the
    full/paper ones so ``scripts/bench_gate.py`` refuses to compare numbers
    produced by different specs: CI regenerates the file with ``make smoke``,
    so the committed baseline must be a smoke run too.

    Read-modify-write: sections owned by other benchmarks (the TCP
    latency sweep under ``"network"``, the recovery benchmark's
    ``"durability"`` section, the admission-search strategy benchmark's
    ``"search"`` section) are preserved, so the emitters can run in any
    order across pytest sessions.
    """
    baseline = results[(1, "unsharded")]
    sharded = [r for key, r in results.items() if key[0] > 1]
    # Label "smoke" only when _spec actually shrank to the smoke workload:
    # REPRO_BENCH_SCALE=paper wins over -m smoke there, and the label must
    # track the spec that was run, not the selection flag.
    scale = "smoke" if smoke and BENCH_SCALE != "paper" else BENCH_SCALE
    payload = {
        "benchmark": "sharded_admission",
        "scale": scale,
        "workload": {
            "order": "RANDOM",
            "num_flights": spec.num_flights,
            "rows_per_flight": spec.rows_per_flight,
            "transactions": baseline["transactions"],
        },
        "results": [results[point] for point in SWEEP],
        "unification_call_reduction": round(
            baseline["unification_checks"]
            / max(1, min(r["unification_checks"] for r in sharded)),
            1,
        ),
        "throughput_scaling_1_to_4": round(
            results[(4, "thread")]["admission_txn_per_s"]
            / max(1e-9, baseline["admission_txn_per_s"]),
            2,
        ),
    }
    previous = read_results(path)
    for section in ("network", "durability", "search"):
        if section in previous:
            payload[section] = previous[section]
    write_results(path, payload)


@pytest.mark.smoke
def test_sharded_admission(benchmark, smoke_run, bench_json):
    spec = _spec(smoke_run)
    runs: dict[tuple, tuple] = {}

    def sweep():
        for shards, backend in SWEEP:
            runs[(shards, backend)] = _run(spec, shards=shards)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    decisions = {point: run[0] for point, run in runs.items()}
    # Identical accept/reject decisions on the same stream at every shard
    # count: routing is a pure fast path.
    baseline_decisions = decisions[(1, "unsharded")]
    for point in SWEEP[1:]:
        assert decisions[point] == baseline_decisions, point

    results: dict[tuple, dict] = {}
    rows = []
    for point in SWEEP:
        shards, backend = point
        dec, stats, admit_s, total_s = runs[point]
        throughput = len(dec) / admit_s if admit_s else 0.0
        results[point] = {
            "shards": shards,
            "backend": backend,
            "transactions": len(dec),
            "admitted": stats["state.admitted"],
            "rejected": stats["state.rejected"],
            "unification_checks": stats["partitions.unification_checks"],
            "scanned_partitions": stats["partitions.scanned_partitions"],
            "index_filtered": stats.get("partitions.index_filtered", 0),
            "merges": stats["partitions.merges"],
            "admission_s": round(admit_s, 4),
            "total_s": round(total_s, 4),
            "admission_txn_per_s": round(throughput, 1),
        }
        rows.append(
            [
                shards,
                backend,
                len(dec),
                stats["partitions.unification_checks"],
                stats.get("partitions.index_filtered", 0),
                round(admit_s, 3),
                round(total_s, 3),
                round(throughput, 1),
            ]
        )
    report(
        "Sharded admission (Figure 7 workload)",
        format_table(
            [
                "shards",
                "backend",
                "#txns",
                "unif. checks",
                "filtered",
                "admit (s)",
                "total (s)",
                "txn/s",
            ],
            rows,
        ),
    )
    _emit_json(bench_json, spec, results, smoke=smoke_run)

    # The headline criteria: at least 5x fewer pairwise unification calls
    # with routing on, and admission throughput that scales 1 -> 4 shards.
    baseline_checks = results[(1, "unsharded")]["unification_checks"]
    for point in SWEEP[1:]:
        assert results[point]["unification_checks"] * 5 <= baseline_checks, (
            point,
            results[point]["unification_checks"],
            baseline_checks,
        )
    # Wall-clock comparison, so keep it noise-tolerant: the measured gap is
    # ~2x, and the best sharded run (not a single fixed point) must beat
    # the unsharded baseline.
    baseline_throughput = results[(1, "unsharded")]["admission_txn_per_s"]
    best_sharded = max(
        results[point]["admission_txn_per_s"] for point in SWEEP[1:]
    )
    assert best_sharded > baseline_throughput, (
        best_sharded,
        results[(1, "unsharded")],
    )
