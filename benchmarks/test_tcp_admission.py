"""Network admission — the Figure 7 workload over real TCP sockets.

Drives the closed-loop load harness (``scripts/load_client.py``) against an
in-process :class:`~repro.server.net.NetworkServer` at increasing client
counts: every simulated client is one user of the seeded entangled
workload, opening its own loopback connection and submitting one booking.
Records commit-latency percentiles (p50/p95/p99) and end-to-end throughput
per client count, and merges them into ``BENCH_admission.json`` under the
``"network"`` key — new gated points: ``scripts/bench_gate.py`` fails the
build when a shared point's decisions diverge, its throughput regresses
beyond the standard tolerance, or its p95 commit latency (normalized by
the run's anchor throughput, a machine-speed proxy) grows by more than
50%.

The full-scale sweep reaches 1000 concurrent TCP clients — the smoke
subset stays at (64, 256) to fit the ``make check`` budget; run the
harness directly for the thousand-client point::

    PYTHONPATH=src python scripts/load_client.py --clients 1000

This file is named ``test_tcp_admission`` (not ``test_network_...``) so
it sorts — and therefore runs — *after* ``test_sharded_admission``:
driving thousands of socket round trips immediately before the sharded
benchmark's timed regions measurably depresses its lane-scaling ratio
on small boxes, and pytest's collection order is the one deterministic
lever.
"""

from __future__ import annotations

import asyncio
import gc
import importlib.util
import sys
from pathlib import Path

import pytest

from benchmarks.bench_json import read_results, write_results
from benchmarks.conftest import BENCH_SCALE, report
from repro.experiments.report import format_table

REPO_ROOT = Path(__file__).resolve().parents[1]

_SPEC = importlib.util.spec_from_file_location(
    "load_client", REPO_ROOT / "scripts" / "load_client.py"
)
load_client = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("load_client", load_client)
_SPEC.loader.exec_module(load_client)


def _clients_sweep(smoke: bool) -> tuple[int, ...]:
    if BENCH_SCALE == "paper":
        return (256, 1000)
    if smoke:
        return (64, 256)
    return (256, 1000)


def _emit_network_json(path: Path, sweep_results: list[dict], *, smoke: bool) -> None:
    """Merge the network section into the results file.

    Read-modify-write: the sharded-admission benchmark owns the rest of the
    file (and preserves this section symmetrically), so the two emitters
    can run in either order within one pytest session.
    """
    payload = read_results(path)
    scale = "smoke" if smoke and BENCH_SCALE != "paper" else BENCH_SCALE
    payload["network"] = {
        "scale": scale,
        "results": sweep_results,
    }
    write_results(path, payload)


@pytest.mark.smoke
def test_network_admission(benchmark, smoke_run, bench_json):
    sweep = _clients_sweep(smoke_run)
    results: list[dict] = []

    def run_sweep():
        for clients in sweep:
            results.append(
                asyncio.run(load_client.run_load(clients, seed=0))
            )
            # Each run retires thousands of client/future reference cycles;
            # collect them here so the garbage is not swept inside another
            # benchmark's timed region later in the same pytest session.
            gc.collect()

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for result in results:
        # The harness itself vouches for completeness: every simulated
        # client connected, committed, and heard the decision.
        assert result["errors"] == 0, result
        assert result["completed"] == result["transactions"] == result["clients"]
        assert result["admitted"] + result["rejected"] == result["transactions"]
        # The workload guarantees full coordination is achievable, and the
        # network path must not manufacture rejections.
        assert result["admitted"] == result["transactions"], result
        # Percentiles are well-formed (monotone, positive).
        assert 0 < result["p50_ms"] <= result["p95_ms"] <= result["p99_ms"]
        rows.append(
            [
                result["clients"],
                result["transactions"],
                result["throughput_txn_per_s"],
                result["p50_ms"],
                result["p95_ms"],
                result["p99_ms"],
            ]
        )
    report(
        "Network admission (Figure 7 workload over TCP)",
        format_table(
            ["clients", "#txns", "txn/s", "p50 ms", "p95 ms", "p99 ms"],
            rows,
        ),
    )
    _emit_network_json(
        bench_json,
        [
            {
                key: result[key]
                for key in (
                    "clients",
                    "transactions",
                    "admitted",
                    "rejected",
                    "throughput_txn_per_s",
                    "p50_ms",
                    "p95_ms",
                    "p99_ms",
                    "workload",
                )
            }
            for result in results
        ],
        smoke=smoke_run,
    )
