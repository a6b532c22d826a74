"""Admission-search strategies — branch-and-bound vs. the seed searcher.

Runs the Figure 7 scalability workload (Random arrival order, entangled
pairs, per-flight partitioning) through the unsharded quantum database
twice — once under the seed backtracking searcher, once under
``AdmissionSearchConfig(strategy="bnb")`` (per-shape fast paths, cost
bounds from the partition structure, trail-based undo) — and once more
with the opt-in sampling estimator engaged on oversized partitions.

The acceptance criteria asserted here:

* accept/reject decisions under ``bnb`` are **bit-identical** to the
  backtracking run on the same stream (strategy changes cost, never
  outcome);
* the bnb run expands **at most half** the admission-search nodes the
  backtracking run does on this workload (``nodes_ratio <= 0.5``), with
  the per-shape fast paths answering a healthy share of dispatched
  searches outright.  The comparison reads ``cache.admission_nodes`` —
  the nodes spent *deciding admissions* (summed from every admission
  probe) — rather than the global ``search.nodes``, which the grounding
  and serializability searches dominate and the strategy never touches
  (decisions being identical, that work is identical by construction);
* the wall time each strategy spends *deciding admissions* is recorded
  (best of a few alternating passes): fewer counted nodes are not a win
  unless the clock agrees, and the gate fails a run where ``bnb`` is
  slower than backtracking beyond tolerance — the node ratio alone once
  let a 1.3x wall-clock regression ship;
* sampled admissions actually happen on the oversized-partition workload,
  their approximation is surfaced end-to-end (``method == "sampled"``,
  ``exact is False`` on the :class:`CommitResult`), and their per-admission
  latency is recorded.

Results land in the ``"search"`` section of ``BENCH_admission.json``
(read-modify-write, like the ``"network"`` and ``"durability"``
sections) where ``scripts/bench_gate.py`` gates them: decisions and the
node-ratio bound are structural (any violation fails), so is bnb's
search wall time staying within tolerance of backtracking's, the
fast-path hit rate must not collapse, and the per-strategy search wall
time and the sampled-admission latency — normalized by the run's anchor
admission throughput — must not grow beyond tolerance.
Run via ``make searchbench`` (part of ``make check``); not smoke-marked,
so ``make smoke`` keeps its budget.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

import pytest

from benchmarks.bench_json import read_results, write_results
from benchmarks.conftest import BENCH_SCALE, report
from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.experiments.report import format_table
from repro.solver.strategy import AdmissionSearchConfig, SamplingConfig
from repro.workloads.arrival_orders import ArrivalOrder
from repro.workloads.entangled_workload import generate_workload
from repro.workloads.flights import FlightDatabaseSpec, build_flight_database


#: Acceptance bound — bnb must expand at most this fraction of the
#: backtracking run's search nodes on the Figure 7 workload.
NODES_RATIO_BOUND = 0.5

#: Timed passes per strategy for the search wall-time point (the minimum
#: is recorded).
SEARCH_TIMING_PASSES = 6

#: Oversized-partition workload for the sampling point: one flight, many
#: seats, ``k`` high enough that the composed body keeps growing, plus a
#: tail of over-capacity arrivals whose failed extensions force full
#: solves of the big composed body — the regime the estimator exists
#: for.  (seats, overbook tail, k, sampling threshold).
SAMPLING_PARAMS = {
    "default": (10, 4, 16, 4),
    "paper": (24, 8, 34, 6),
}


def _spec() -> FlightDatabaseSpec:
    if BENCH_SCALE == "paper":
        return FlightDatabaseSpec(num_flights=50, rows_per_flight=10)
    return FlightDatabaseSpec(num_flights=16, rows_per_flight=4)


def _run_strategy(
    spec: FlightDatabaseSpec, search: AdmissionSearchConfig | None, *, seed: int = 0
):
    """One full admission pass.

    Returns (decisions, statistics, admit_s, search_ms) where ``search_ms``
    is the wall time spent *deciding admissions* — inside
    ``SolutionCache.ensure``, the only part of the pass the strategy
    touches; grounding and serializability searches do identical work
    under either strategy and would only dilute the comparison.
    """
    workload = generate_workload(spec, ArrivalOrder.RANDOM, seed=seed)
    config = (
        QuantumConfig(k=4, search=search) if search is not None else QuantumConfig(k=4)
    )
    qdb = QuantumDatabase(build_flight_database(spec), config)
    cache = qdb.state.cache
    ensure = cache.ensure
    search_s = 0.0

    def timed_ensure(*args, **kwargs):
        nonlocal search_s
        started = time.perf_counter()
        try:
            return ensure(*args, **kwargs)
        finally:
            search_s += time.perf_counter() - started

    cache.ensure = timed_ensure
    start = time.perf_counter()
    decisions = [qdb.execute(t).committed for t in workload.transactions]
    admit_s = time.perf_counter() - start
    statistics = qdb.statistics_report()
    qdb.close()
    return decisions, statistics, admit_s, search_s * 1000.0


def _search_wall_ms(spec: FlightDatabaseSpec) -> tuple[float, float]:
    """Best-of-``SEARCH_TIMING_PASSES`` admission-search wall time per strategy.

    The passes alternate strategies — and which one goes first — so a
    slow spell of the machine, or the heap the previous pass left behind,
    hits both alike; the minimum is the least noisy estimate of a
    deterministic computation's cost.
    """
    configs = {"backtracking": None, "bnb": AdmissionSearchConfig(strategy="bnb")}
    wall_ms: dict[str, list[float]] = {name: [] for name in configs}
    for index in range(SEARCH_TIMING_PASSES):
        order = list(configs) if index % 2 == 0 else list(reversed(configs))
        for name in order:
            gc.collect()
            wall_ms[name].append(_run_strategy(spec, configs[name])[3])
    return min(wall_ms["backtracking"]), min(wall_ms["bnb"])


def _run_sampling(seats: int, overbook: int, k: int, threshold: int):
    """Pinned bookings piling onto one flight until the estimator engages.

    The first ``seats`` arrivals fill the partition (witness extensions
    are off, but the cached solution keeps extending); the ``overbook``
    tail can no longer extend it, so each of those admissions solves the
    full ``seats``-plus-atom composed body — above ``threshold``, which
    hands the decision to the sampling estimator.  Returns (results,
    statistics, per-admission latencies in ms).
    """
    search = AdmissionSearchConfig(
        strategy="bnb",
        sampling=SamplingConfig(threshold=threshold, samples=16, seed=7),
    )
    # Witness cache off: every admission re-solves the growing composed
    # body, so the partition crosses the sampling threshold — the huge-
    # partition / no-valid-witness regime the estimator exists for.
    qdb = QuantumDatabase(
        config=QuantumConfig(k=k, search=search, witness_cache=False)
    )
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    qdb.load_rows("Available", [("f1", f"s{i}") for i in range(seats)])
    results, latencies_ms = [], []
    for i in range(seats + overbook):
        text = (
            f"-Available('f1', ?s), +Bookings('u{i}', 'f1', ?s)"
            " :-1 Available('f1', ?s)"
        )
        start = time.perf_counter()
        results.append(qdb.execute(text))
        latencies_ms.append((time.perf_counter() - start) * 1000.0)
    statistics = qdb.statistics_report()
    qdb.close()
    return results, statistics, latencies_ms


def _emit_search_json(path: Path, result: dict) -> None:
    """Merge the search section into the results file.

    Read-modify-write, mirroring the ``"network"`` and ``"durability"``
    emitters: the sharded admission benchmark owns the rest of the file
    and preserves this section symmetrically.
    """
    payload = read_results(path)
    payload["search"] = {"scale": BENCH_SCALE, "results": [result]}
    write_results(path, payload)


@pytest.mark.search
def test_admission_search_strategies(bench_json):
    spec = _spec()

    bt_decisions, bt_stats, bt_admit_s, _ = _run_strategy(spec, None)
    bnb_decisions, bnb_stats, bnb_admit_s, _ = _run_strategy(
        spec, AdmissionSearchConfig(strategy="bnb")
    )
    bt_search_ms, bnb_search_ms = _search_wall_ms(spec)

    # Bit-identical decisions: the strategy selector changes how fast an
    # admission decision is reached, never what is decided.
    assert bnb_decisions == bt_decisions

    bt_nodes = bt_stats["cache.admission_nodes"]
    bnb_nodes = bnb_stats["cache.admission_nodes"]
    nodes_ratio = bnb_nodes / max(1, bt_nodes)
    # The headline criterion: cost bounds + per-shape fast paths halve the
    # admission-search node count on the Figure 7 workload (or better).
    assert nodes_ratio <= NODES_RATIO_BOUND, (bnb_nodes, bt_nodes)
    assert bnb_stats["search.fastpath_hits"] > 0
    # Hit rate over the searches the admission dispatcher actually ran
    # (witness/cached-solution extensions plus full solves), not the
    # global search counter the grounding machinery dominates.
    dispatched = (
        bnb_stats["cache.extension_hits"]
        + bnb_stats["cache.extension_misses"]
        + bnb_stats["cache.full_solves"]
    )
    fastpath_rate = bnb_stats["search.fastpath_hits"] / max(1, dispatched)
    # The seed searcher must never sample; neither does bnb without opt-in.
    assert bt_stats["search.samples"] == 0
    assert bnb_stats["search.samples"] == 0

    seats, overbook, k, threshold = SAMPLING_PARAMS[
        "paper" if BENCH_SCALE == "paper" else "default"
    ]
    sampled_results, sampled_stats, latencies_ms = _run_sampling(
        seats, overbook, k, threshold
    )
    sampled_ms_points = [
        ms
        for r, ms in zip(sampled_results, latencies_ms)
        if r.method == "sampled"
    ]
    sampled = [r for r in sampled_results if r.method == "sampled"]
    # The estimator genuinely engaged (once per over-capacity arrival) and
    # its approximation is surfaced end-to-end on the commit results.
    assert len(sampled) == overbook, [r.method for r in sampled_results]
    assert all(not r.exact for r in sampled)
    assert all(r.exact for r in sampled_results if r.method != "sampled")
    assert sampled_stats["cache.sampled_admissions"] == len(sampled)
    sampled_ms = sum(sampled_ms_points) / len(sampled_ms_points)

    result = {
        "num_flights": spec.num_flights,
        "rows_per_flight": spec.rows_per_flight,
        "transactions": len(bt_decisions),
        "admitted": bnb_stats["state.admitted"],
        "rejected": bnb_stats["state.rejected"],
        "decisions_match": bnb_decisions == bt_decisions,
        "backtracking_nodes": bt_nodes,
        "bnb_nodes": bnb_nodes,
        "nodes_ratio": round(nodes_ratio, 3),
        "fastpath_hits": bnb_stats["search.fastpath_hits"],
        "fastpath_hit_rate": round(fastpath_rate, 3),
        "backtracking_admit_s": round(bt_admit_s, 4),
        "bnb_admit_s": round(bnb_admit_s, 4),
        "backtracking_search_ms": round(bt_search_ms, 3),
        "bnb_search_ms": round(bnb_search_ms, 3),
        "sampled_admissions": len(sampled),
        "sampled_admission_ms": round(sampled_ms, 3),
    }
    report(
        "Admission search strategies (Figure 7 workload)",
        format_table(
            [
                "strategy",
                "#txns",
                "nodes",
                "ratio",
                "fastpath",
                "admit (s)",
                "search (ms)",
            ],
            [
                [
                    "backtracking",
                    len(bt_decisions),
                    bt_nodes,
                    "",
                    0,
                    round(bt_admit_s, 3),
                    round(bt_search_ms, 1),
                ],
                [
                    "bnb",
                    len(bnb_decisions),
                    bnb_nodes,
                    round(nodes_ratio, 3),
                    bnb_stats["search.fastpath_hits"],
                    round(bnb_admit_s, 3),
                    round(bnb_search_ms, 1),
                ],
            ],
        ),
    )
    _emit_search_json(bench_json, result)
