"""``python3 -m bench repeat``: do the end-to-end numbers repeat?

Runs the untraced suite as two sets of ``RUNS_PER_SET`` seeds per workload and
applies the acceptance rule of the benchmark contract to every workload
and end-to-end metric: within a set, the distance between the first and
third quartile as a share of the median must stay within the metric's
bound (``setup_s`` excepted), and the second set's median must not be
worse than the first's by more than the bound.  Spreads above a third
of the bound are flagged ``wide`` as a warning.
"""

from __future__ import annotations

import json
import statistics

from bench.cli import child
from bench.settings import RUNS_PER_SET
from bench.stats import quartile_spread


def collect(workload: str, seeds: range, seconds: int) -> dict[str, list[float]]:
    """Metric name -> one value per seed; raises if a run is not correct."""
    values: dict[str, list[float]] = {}
    for seed in seeds:
        code, output = child(workload, seed, seconds, 0)
        result = json.loads(output.strip().splitlines()[-1]) if output.strip() else {}
        if code != 0 or not result.get("correct") or result.get("failed"):
            raise SystemExit(
                f"{workload} seed {seed}: exit {code}, result {result or output!r}"
            )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def worse_by(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the ``second`` median is worse (<0: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main_repeat(contract: dict, seed: int, only: list[str] | None) -> int:
    runs = RUNS_PER_SET
    seconds = contract["run_seconds"]
    failures = 0
    print(f"{'workload':14s} {'metric':14s} {'median 1':>12s} {'median 2':>12s} "
          f"{'worse by':>9s} {'spread 1':>9s} {'spread 2':>9s} {'bound':>6s}")
    for workload in (w["name"] for w in contract["workloads"]):
        if only and workload not in only:
            continue
        sets = [
            collect(workload, range(seed + s * runs, seed + (s + 1) * runs), seconds)
            for s in range(2)
        ]
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (s[name] for s in sets)
            medians = [statistics.median(first), statistics.median(second)]
            spreads = [quartile_spread(first), quartile_spread(second)]
            drift = worse_by(*medians, metric["better"])
            gated = spreads if name != "setup_s" else []
            verdict = "ok"
            if drift > bound or any(s > bound for s in gated):
                verdict = "FAIL"
                failures += 1
            elif any(s > bound / 3 for s in gated):
                verdict = "wide"
            print(f"{workload:14s} {name:14s} {medians[0]:12.4f} {medians[1]:12.4f} "
                  f"{drift:+9.1%} {spreads[0]:9.1%} {spreads[1]:9.1%} "
                  f"{bound:6.0%} {verdict}", flush=True)
    return 1 if failures else 0
