"""Command line of the benchmark.

``run --workload NAME --seed N --seconds S --trace 0|1`` is the contract
form (one workload, one JSON result as the last line).  ``run`` without
``--workload`` runs every workload in a child process of its own:
untraced and then traced, or only the pass ``--trace`` names.  ``repeat``
checks run-to-run repeatability against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def locate_program() -> bool:
    """Put the checkout's ``src`` first on ``sys.path``; False if absent."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"bench: {source}/repro not found; run from a checkout of the "
            "repository (the benchmark measures that program)",
            file=sys.stderr,
        )
        return False
    sys.path.insert(0, str(source))
    return True


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def child(workload: str, seed: int, seconds: int, trace: int) -> tuple[int, str]:
    """One contract-form run in a fresh process; (exit code, stdout)."""
    completed = subprocess.run(
        [
            sys.executable, "-m", "bench", "run", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    return completed.returncode, completed.stdout


def run_all(seed: int, seconds: int, passes: tuple[int, ...]) -> int:
    status = 0
    for workload in (w["name"] for w in load_contract()["workloads"]):
        for trace in passes:
            print(f"== {workload} ({'traced' if trace else 'untraced'}) ==", flush=True)
            code, output = child(workload, seed, seconds, trace)
            print(output, end="", flush=True)
            status = status or code
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload, or all of them")
    run.add_argument("--workload")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=int)
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="1: the traced pass (per-layer metrics); 0: the "
                     "untraced one (default; without --workload: both)")
    repeat = commands.add_parser(
        "repeat", help="check that end-to-end metrics repeat within bounds"
    )
    repeat.add_argument("--seed", type=int, default=1, help="first seed")
    repeat.add_argument("--workload", action="append",
                        help="only these workloads (default: all)")
    args = parser.parse_args(argv)

    if not locate_program():
        return 2
    contract = load_contract()
    if args.command == "repeat":
        from bench.repeat import main_repeat

        return main_repeat(contract, args.seed, args.workload)
    seconds = args.seconds or contract["run_seconds"]
    if args.workload is None:
        passes = (0, 1) if args.trace is None else (args.trace,)
        return run_all(args.seed, seconds, passes)
    from bench.harness import main_run
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    return main_run(args.workload, args.seed, seconds, bool(args.trace))
