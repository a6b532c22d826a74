"""Admission throughput on the Figure 7 workload — the gate's anchor point.

Runs the Figure 7 scalability workload (Random arrival order, entangled
pairs, per-flight partitioning) through the quantum database once and
records its admission throughput and overlap-scan counts.  Every
admission routes through the partition manager's signature index, so the
pairwise unification calls in ``merged_for`` stay near one per
transaction.

The point is recorded as ``(shards=1, backend="unsharded")`` — the key the
committed baselines have always used for it.  It is the *anchor* of
``BENCH_admission.json``: ``scripts/bench_gate.py`` gates its decision
counts and its overlap-scan counts strictly and divides the other sections' throughputs and latencies
by its ``admission_txn_per_s`` to normalize away machine speed.  The shard
sweep that used to run beside it compared a knob that no longer changes
anything (``QuantumConfig.shards`` is accepted and ignored).
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

#: The one sweep point (``scripts/bench_gate.py``'s ``ANCHOR_KEY``).
ANCHOR = (1, "unsharded")


def _spec(smoke: bool) -> FlightDatabaseSpec:
    if BENCH_SCALE == "paper":
        return FlightDatabaseSpec(num_flights=50, rows_per_flight=10)
    if smoke:
        return FlightDatabaseSpec(num_flights=10, rows_per_flight=4)
    return FlightDatabaseSpec(num_flights=16, rows_per_flight=4)


def _run(spec: FlightDatabaseSpec, *, k: int = 4, seed: int = 0):
    """Admit the workload via per-call ``execute``, then ground it all.

    Returns ``(decisions, statistics, admit_s, total_s)``.
    """
    workload = generate_workload(spec, ArrivalOrder.RANDOM, seed=seed)
    qdb = QuantumDatabase(build_flight_database(spec), QuantumConfig(k=k))
    start = time.perf_counter()
    decisions = [qdb.execute(t).committed for t in workload.transactions]
    admit_elapsed = time.perf_counter() - start
    qdb.ground_all()
    total_elapsed = time.perf_counter() - start
    return decisions, qdb.statistics_report(), admit_elapsed, total_elapsed


def _emit_json(
    path: Path, spec: FlightDatabaseSpec, result: dict, *, smoke: bool
) -> None:
    """Write the results file (one entry: the anchor point).

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
            "transactions": result["transactions"],
        },
        "results": [result],
    }
    previous = read_results(path)
    for section in ("network", "durability", "search"):
        if section in previous:
            payload[section] = previous[section]
    write_results(path, payload)


@pytest.mark.smoke
def test_sharded_admission(benchmark, smoke_run, bench_json):
    spec = _spec(smoke_run)
    runs = []
    benchmark.pedantic(lambda: runs.append(_run(spec)), rounds=1, iterations=1)
    decisions, stats, admit_s, total_s = runs[0]
    throughput = len(decisions) / admit_s if admit_s else 0.0
    shards, backend = ANCHOR
    result = {
        "shards": shards,
        "backend": backend,
        "transactions": len(decisions),
        "admitted": stats["state.admitted"],
        "rejected": stats["state.rejected"],
        "unification_checks": stats["partitions.unification_checks"],
        "scanned_partitions": stats["partitions.scanned_partitions"],
        "index_filtered": stats["partitions.index_filtered"],
        "merges": stats["partitions.merges"],
        "admission_s": round(admit_s, 4),
        "total_s": round(total_s, 4),
        "admission_txn_per_s": round(throughput, 1),
    }
    report(
        "Admission (Figure 7 workload)",
        format_table(
            ["#txns", "unif. checks", "filtered", "admit (s)", "total (s)", "txn/s"],
            [
                [
                    len(decisions),
                    result["unification_checks"],
                    result["index_filtered"],
                    round(admit_s, 3),
                    round(total_s, 3),
                    round(throughput, 1),
                ]
            ],
        ),
    )
    _emit_json(bench_json, spec, result, smoke=smoke_run)
    assert result["admitted"] + result["rejected"] == len(decisions)
    # The index keeps the scan near one unification call per transaction;
    # the exhaustive scan made ~450 per transaction here at smoke scale.
    assert result["unification_checks"] <= 2 * len(decisions)
