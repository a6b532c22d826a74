#!/usr/bin/env python
"""Paired parent/change runs of the repository benchmark.

``bench/README.md`` says a gain "is to be claimed from paired,
alternating runs"; this is the tool that makes them.  It runs the
contract command of ``BENCHMARK.json``::

    python3 -m bench run --workload W --seed S --trace 0

on a checkout of a base revision and on the working tree, pair by pair:
both sides of a pair get the same seed, and which side runs first
alternates from pair to pair, so a slow spell of the machine is shared
instead of landing on one side.  The base is checked out into a temporary
``git worktree`` (removed afterwards), or taken from ``--base-dir`` when a
checkout already exists.

For every end-to-end metric it prints both sides' medians and quartiles,
the pairs the change won, and a verdict by the rule of the
choosing-metrics guide, section 8:

* **gain** — the change won at least nine tenths of the pairs (ties
  count for neither side) *and* the medians are further apart than the
  base's own runs spread (the distance between their quartiles);
* **REGRESSION** — the change's median is worse than the base's by more
  than the metric's bound in ``BENCHMARK.json``;
* **unresolved** — the change's median is worse and the base's own
  spread is wider than the bound, so the runs cannot tell;
* **no change** — anything else.

Every run made is listed, and the exit code is 1 when any run was
incorrect (``correct: false`` or a failed operation) or any metric
regressed.

Usage::

    python scripts/bench_pair.py --base HEAD --workload book_batch
    python scripts/bench_pair.py --base-dir ../parent --workload store_churn --pairs 3
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
#: Share of the pairs a side must win before a gain is claimed.
WIN_SHARE = 0.9


def contract_command(contract: dict, workload: str, seed: int) -> list[str]:
    return [
        *contract["command"], "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]  # fmt: skip


def run_once(checkout: Path, command: list[str]) -> dict:
    """One contract run in ``checkout``; the parsed last line of its output."""
    completed = subprocess.run(
        command, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False
    )
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"bench_pair: `{' '.join(command)}` in {checkout} printed no result "
            f"(exit code {completed.returncode})"
        ) from None
    result["exit_code"] = completed.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4, method="inclusive")
    return first, median, third


def verdict(
    base: list[float], change: list[float], *, higher_is_better: bool, bound: float
) -> tuple[str, int, int]:
    """(verdict, pairs the change won, pairs the base won) for one metric."""
    sign = 1.0 if higher_is_better else -1.0
    won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    lost = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    base_q1, base_median, base_q3 = quartiles(base)
    change_median = quartiles(change)[1]
    spread = base_q3 - base_q1
    improvement = sign * (change_median - base_median)
    if won >= WIN_SHARE * len(base) and improvement > spread:
        return "gain", won, lost
    allowed = bound * abs(base_median)
    if -improvement > allowed:
        return "REGRESSION", won, lost
    if improvement < 0 and spread > allowed:
        return "unresolved", won, lost
    return "no change", won, lost


def report(contract: dict, runs: list[tuple[dict, dict]]) -> bool:
    """Print the per-metric table; True when no metric regressed."""
    clean = True
    print(
        f"\n{'metric':14s} {'base median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'change':>8s}  {'won':>5s}  verdict"
    )
    for metric in contract["end_to_end"]:
        name = metric["name"]
        base = [b["metrics"][name]["value"] for b, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        outcome, won, lost = verdict(
            base, change,
            higher_is_better=metric["better"] == "higher", bound=metric["bound"],
        )  # fmt: skip
        clean = clean and outcome != "REGRESSION"
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        shift = (c2 / b2 - 1.0) if b2 else 0.0
        print(
            f"{name:14s} {b2:12.4f} [{b1:9.4f},{b3:9.4f}] "
            f"{c2:12.4f} [{c1:9.4f},{c3:9.4f}] {shift:+8.1%}  "
            f"{won:2d}/{len(runs):<2d}  {outcome} "
            f"({metric['unit']}, {metric['better']} is better)"
        )
        if lost and outcome == "gain":
            print(f"{'':14s} (base won {lost} of {len(runs)})")
    return clean


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="revision to compare the working tree against")
    parser.add_argument("--base-dir", type=Path,
                        help="an existing checkout of the base (instead of --base)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair (pair i uses seed + i)")
    args = parser.parse_args(argv)
    if (args.base is None) == (args.base_dir is None):
        parser.error("give exactly one of --base and --base-dir")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    with tempfile.TemporaryDirectory(prefix="bench-pair-") as scratch:
        if args.base_dir is not None:
            base_dir = args.base_dir.resolve()
        else:
            base_dir = Path(scratch) / "base"
            subprocess.run(
                ["git", "worktree", "add", "--detach", str(base_dir), args.base],
                cwd=REPO_ROOT, check=True, stdout=subprocess.DEVNULL,
            )  # fmt: skip
        # The metric echoed after every run (the table has them all).
        headline = next(
            (m["name"] for m in contract["end_to_end"] if m["better"] == "higher"),
            contract["end_to_end"][0]["name"],
        )
        try:
            runs: list[tuple[dict, dict]] = []
            for pair in range(args.pairs):
                seed = args.seed + pair
                command = contract_command(contract, args.workload, seed)
                sides = [("base", base_dir), ("change", REPO_ROOT)]
                if pair % 2:
                    sides.reverse()
                results = {}
                for side, checkout in sides:
                    results[side] = run_once(checkout, command)
                    print(
                        f"pair {pair + 1:2d} seed {seed:3d} {side:6s} "
                        f"correct={results[side]['correct']} "
                        f"failed={results[side]['failed']}/{results[side]['attempted']} "
                        f"{headline}={results[side]['metrics'][headline]['value']:.4f}",
                        flush=True,
                    )
                runs.append((results["base"], results["change"]))
        finally:
            if args.base_dir is None:
                subprocess.run(
                    ["git", "worktree", "remove", "--force", str(base_dir)],
                    cwd=REPO_ROOT, check=False, stdout=subprocess.DEVNULL,
                )  # fmt: skip

    print(f"\n{args.workload}: {len(runs)} pairs, seeds {args.seed}..{args.seed + len(runs) - 1}")
    print(json.dumps([
        {side: {k: v["value"] for k, v in result["metrics"].items()}
         for side, result in (("base", b), ("change", c))}
        for b, c in runs
    ]))  # fmt: skip
    clean = report(contract, runs)
    incorrect = [
        (side, index + 1)
        for index, pair in enumerate(runs)
        for side, result in zip(("base", "change"), pair)
        if not result["correct"] or result["failed"] or result["exit_code"]
    ]
    for side, index in incorrect:
        print(f"bench_pair: INCORRECT RUN — {side} side of pair {index}")
    return 0 if clean and not incorrect else 1


if __name__ == "__main__":
    sys.exit(main())
