"""The committed perf baseline stays smoke-scale, by construction.

``scripts/bench_gate.py`` hard-fails on a scale mismatch and CI
regenerates ``BENCH_admission.json`` with ``make smoke``, so a committed
``"scale": "default"`` file fails every CI run.  That file used to be
rewritten at default scale by any plain ``pytest`` run (the tier-1 command
collects ``benchmarks/``) and was committed that way again and again;
these tests pin the three things that now make the mistake impossible:
the committed file's scale, the routing of full-scale runs to a separate
gitignored file, and the emitters' refusal to downgrade the baseline.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "bench_json", REPO_ROOT / "benchmarks" / "bench_json.py"
)
bench_json = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_json)


def test_committed_baseline_is_smoke_scale():
    payload = json.loads((REPO_ROOT / "BENCH_admission.json").read_text())
    assert payload["scale"] == "smoke"
    assert payload["network"]["scale"] == "smoke"
    # The whole emitter chain ran: the gate needs every section.
    assert {"durability", "search"} <= set(payload)


@pytest.mark.parametrize("selection", ["smoke", "recovery", "search", " smoke "])
def test_baseline_chain_selections_write_the_committed_file(selection):
    assert bench_json.results_path(selection, "default") == bench_json.BENCH_JSON


@pytest.mark.parametrize(
    ("selection", "scale"),
    [
        ("", "default"),  # plain `pytest` (tier-1) and `make bench`
        ("not smoke", "default"),
        ("smoke or recovery", "default"),
        ("smoke", "paper"),  # paper-sized parameters win over -m smoke
        ("", "paper"),
    ],
)
def test_every_other_session_writes_the_full_file(selection, scale):
    path = bench_json.results_path(selection, scale)
    assert path == bench_json.BENCH_FULL_JSON
    assert path.name in (REPO_ROOT / ".gitignore").read_text().split()


@pytest.mark.parametrize(
    "payload",
    [
        {"scale": "default", "results": []},
        {"scale": "paper", "results": []},
        {"scale": "smoke", "network": {"scale": "default", "results": []}},
    ],
)
def test_baseline_refuses_non_smoke_sweeps(payload):
    with pytest.raises(RuntimeError, match="smoke-scale only"):
        bench_json.check_baseline(payload)


def test_baseline_accepts_smoke_sweeps_and_fixed_size_sections():
    bench_json.check_baseline(
        {
            "scale": "smoke",
            "network": {"scale": "smoke", "results": []},
            "durability": {"scale": "default", "results": []},
            "search": {"scale": "default", "results": []},
        }
    )
    # A section emitter running before the sweep has no top-level scale yet.
    bench_json.check_baseline({"durability": {"scale": "default", "results": []}})


def test_write_results_guards_only_the_committed_file(tmp_path):
    full = tmp_path / "BENCH_admission.full.json"
    bench_json.write_results(full, {"scale": "default", "results": []})
    assert bench_json.read_results(full)["scale"] == "default"
    assert bench_json.read_results(tmp_path / "absent.json") == {}
