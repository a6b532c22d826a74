"""``scripts/load_client.py``: the closed-loop TCP load harness of ``make loadtest``."""

from __future__ import annotations

import asyncio
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "load_client", REPO_ROOT / "scripts" / "load_client.py"
)
load_client = importlib.util.module_from_spec(_SPEC)
_path = list(sys.path)
_SPEC.loader.exec_module(load_client)
sys.path[:] = _path  # the script puts the checkout's src first; a test must not

SAMPLE = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]


@pytest.mark.parametrize(
    "fraction, expected",
    [(0.0, 1.0), (0.5, 6.0), (0.9, 10.0), (0.99, 11.0), (1.0, 11.0)],
)
def test_percentile_is_nearest_rank(fraction, expected):
    assert load_client.percentile(SAMPLE, fraction) == expected


def test_percentile_of_no_sample_is_zero():
    assert load_client.percentile([], 0.5) == 0.0


@pytest.mark.parametrize("fraction, expected", [(-1.0, 1.0), (2.0, 11.0)])
def test_percentile_clamps_to_the_sample(fraction, expected):
    assert load_client.percentile(SAMPLE, fraction) == expected


@pytest.mark.parametrize(
    "clients, flights", [(1, 1), (4, 1), (5, 2), (64, 16), (1000, 250)]
)
def test_every_client_gets_a_seat(clients, flights):
    spec = load_client.spec_for_clients(clients)
    assert spec.rows_per_flight == load_client.SEATS_PER_FLIGHT
    assert spec.num_flights == flights
    assert spec.num_flights * spec.rows_per_flight >= clients


@pytest.mark.parametrize(
    "argv",
    [["--clients", "0"], ["--host", "127.0.0.1"], ["--port", "9000"]],
    ids=["no clients", "host without port", "port without host"],
)
def test_main_refuses_inconsistent_arguments(argv, capsys):
    with pytest.raises(SystemExit) as raised:
        load_client.main(argv)
    assert raised.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_a_small_load_commits_every_booking():
    result = asyncio.run(load_client.run_load(8, seed=3))
    assert result["clients"] == result["transactions"] == result["completed"] == 8
    assert result["errors"] == 0
    assert result["admitted"] + result["rejected"] == 8
    # Every admitted booking is still pending until the final ground_all.
    assert result["grounded"] == result["admitted"]
    assert result["p50_ms"] <= result["p95_ms"] <= result["p99_ms"] <= result["max_ms"]
    assert result["workload"] == {
        "order": "RANDOM", "num_flights": 2, "rows_per_flight": 4, "seed": 3,
    }  # fmt: skip


def test_main_prints_the_result_as_json(capsys):
    assert load_client.main(["--clients", "4", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["completed"] == result["transactions"] == 4
    assert result["errors"] == 0


def test_summary_line_names_every_measurement():
    result = {
        "clients": 64, "completed": 63, "transactions": 64, "admitted": 60,
        "rejected": 3, "errors": 1, "throughput_txn_per_s": 512.0,
        "elapsed_s": 0.125, "p50_ms": 1.5, "p95_ms": 3.0, "p99_ms": 4.5,
        "max_ms": 9.0,
    }  # fmt: skip
    assert load_client.format_summary(result) == (
        "64 clients | 63/64 commits (60 admitted, 3 rejected, 1 errors) | "
        "512.0 txn/s over 0.125s | latency ms p50=1.5 p95=3.0 p99=4.5 max=9.0"
    )
