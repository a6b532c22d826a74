"""Where benchmark results are written, and the guard on the committed file.

``BENCH_admission.json`` is the committed perf baseline: CI regenerates it
with ``make smoke recoverbench searchbench`` and ``scripts/bench_gate.py``
hard-fails when its workload scale differs from the fresh run's.  A plain
``pytest`` run (the tier-1 command collects ``benchmarks/`` too) or
``make bench`` runs the *full* workloads; those used to rewrite the same
file at ``"scale": "default"``, and committing that by accident disarmed
or broke the gate in review round after review round.  So:

* only a session restricted to one of the baseline chain's selections
  (``-m smoke``, ``-m recovery``, ``-m search``) at a non-paper scale
  writes the committed file; every other session writes the gitignored
  ``BENCH_admission.full.json``;
* whatever the routing says, :func:`write_results` refuses to put a
  non-smoke sweep into the committed file.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
#: The committed, smoke-scale baseline the gate compares against.
BENCH_JSON = REPO_ROOT / "BENCH_admission.json"
#: Full-scale (default / paper) runs; gitignored.
BENCH_FULL_JSON = REPO_ROOT / "BENCH_admission.full.json"
#: ``-m`` selections of the baseline chain.
BASELINE_SELECTIONS = frozenset({"smoke", "recovery", "search"})


def results_path(markexpr: str, scale: str) -> Path:
    """The file a pytest session selected with ``-m markexpr`` writes."""
    if markexpr.strip() in BASELINE_SELECTIONS and scale != "paper":
        return BENCH_JSON
    return BENCH_FULL_JSON


def read_results(path: Path) -> dict:
    """The current contents of a results file (empty when absent)."""
    return json.loads(path.read_text()) if path.exists() else {}


def check_baseline(payload: dict) -> None:
    """Refuse anything but smoke-scale sweeps in the committed baseline.

    The ``"durability"`` and ``"search"`` sections have one workload size
    (labelled with ``REPRO_BENCH_SCALE``) and are exempt.
    """
    scales = {
        "top-level": payload.get("scale"),
        "network": (payload.get("network") or {}).get("scale"),
    }
    for owner, scale in scales.items():
        if scale not in (None, "smoke"):
            raise RuntimeError(
                f"refusing to write a {scale!r}-scale {owner} sweep into "
                f"{BENCH_JSON.name}: the committed baseline is smoke-scale only "
                f"(full runs belong in {BENCH_FULL_JSON.name}; regenerate the "
                "baseline with `make smoke recoverbench searchbench`)"
            )


def write_results(path: Path, payload: dict) -> None:
    """Write a results file, guarding the committed baseline."""
    if path == BENCH_JSON:
        check_baseline(payload)
    path.write_text(json.dumps(payload, indent=2) + "\n")
