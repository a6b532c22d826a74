"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at a scaled
workload size (the paper's Java-over-MySQL prototype ran thousands of
transactions; a pure-Python reproduction uses smaller databases so the whole
suite finishes in minutes).  Set ``REPRO_BENCH_SCALE=paper`` in the
environment to run the paper-sized parameters instead — see EXPERIMENTS.md
for which scale produced the recorded numbers.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from benchmarks.bench_json import results_path

#: "default" (scaled-down, minutes) or "paper" (the published sizes, hours).
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "default")

def pytest_configure(config) -> None:
    """Register the ``smoke`` marker (fast cases kept by ``-m smoke``)."""
    config.addinivalue_line(
        "markers",
        "smoke: fast benchmark subset run by `make check` (select with -m smoke)",
    )
    config.addinivalue_line(
        "markers",
        "recovery: durability/recovery benchmark run by `make recoverbench` "
        "(select with -m recovery; excluded from -m smoke)",
    )
    config.addinivalue_line(
        "markers",
        "search: admission-search strategy benchmark run by `make searchbench` "
        "(select with -m search; excluded from -m smoke)",
    )


@pytest.fixture(scope="session")
def smoke_run(request) -> bool:
    """True when the run was restricted to the smoke subset (``-m smoke``).

    Smoke-marked benchmarks shrink their parameters further so the whole
    selection finishes in roughly ten seconds (the ``make check`` budget).
    """
    markexpr = request.config.getoption("markexpr", default="") or ""
    # Exact match only: compound expressions like "not smoke" must not
    # shrink parameters.
    return markexpr.strip() == "smoke"


@pytest.fixture(scope="session")
def bench_json(request) -> Path:
    """The results file this session's emitters read-modify-write.

    The committed ``BENCH_admission.json`` only for the baseline chain's
    ``-m`` selections; ``BENCH_admission.full.json`` otherwise (see
    :mod:`benchmarks.bench_json`).
    """
    markexpr = request.config.getoption("markexpr", default="") or ""
    return results_path(markexpr, BENCH_SCALE)


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """The active benchmark scale ("default" or "paper")."""
    return BENCH_SCALE


def report(title: str, body: str) -> None:
    """Print a result block so ``pytest -s`` shows the regenerated artifact."""
    print(f"\n--- {title} ---\n{body}")
