"""Runs one workload for a fixed time and turns its rounds into metrics.

A run is: one unmeasured first round (imports, lazy set-up, caches; on the
booking workloads it is the quality probe on pinned inputs), then
fixed-size rounds, each on a fresh database with inputs from
``(seed, round)``, until the measured regions add up to ``--seconds``.
The traced pass measures one untraced reference round first, installs
the span wrappers for the remaining rounds and removes them again.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import signal
import statistics
import sys
from typing import Any, Callable, Sequence

from bench import metrics, settings, spans
from bench.workloads import WORKLOADS, Round, Workload


def environment(workload: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """What a run records about where and how it ran."""
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "connections": settings.CONNECTIONS,
        "quantum_config": {
            "k": settings.K,
            "shards": settings.SHARDS,
            "shard_backend": settings.SHARD_BACKEND,
        },
        "size": settings.SIZES[workload.name],
    }


def _commit() -> str:
    """HEAD of the checkout, read without starting a process."""
    git = settings.OUT_DIR.parent.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def run_rounds(
    run_round: Callable[[int], Round],
    seconds: float,
    min_rounds: int,
    min_samples: int,
    kinds: Sequence[str],
    first: int,
) -> list[Round]:
    """Rounds ``first``, ``first + 1``, ... until ``seconds`` are measured.

    Stops where the measured total is nearest to ``seconds``, but never
    before ``min_rounds`` rounds and ``min_samples`` latencies of the
    operations ``kinds`` (so that a slow machine still backs its tail
    percentile).
    """
    rounds: list[Round] = []
    measured, samples = 0.0, 0
    while (
        len(rounds) < min_rounds
        or samples < min_samples
        or measured + 0.5 * measured / len(rounds) < seconds
    ):
        # Each round starts from a collected heap, so that no round pays
        # for cyclic garbage its predecessor left behind.
        gc.collect()
        rounds.append(run_round(first + len(rounds)))
        measured += rounds[-1].measure_s
        samples += len(rounds[-1].samples(kinds))
    return rounds


def first_round(workload: Workload) -> tuple[list[str], float | None]:
    """The unmeasured first round: (violations, the probe's coordination).

    Where ``settings.PINNED_COORDINATED_PCT`` has the workload, the round
    is the quality probe: fixed inputs, so its ``coordinated_pct`` is the
    same in every run of the same program, and falling short of the pinned
    value by more than the tolerance is a violation.
    """
    pinned = settings.PINNED_COORDINATED_PCT.get(workload.name)
    if pinned is None:
        workload.run_round("warm-up", settings.MINI_SIZES[workload.name])
        return [], None
    probe = workload.run_round(
        settings.QUALITY_SEED, {"flights": settings.QUALITY_FLIGHTS}
    )
    coordinated = probe.facts["coordinated_pct"]
    violations = [f"quality probe: {text}" for text in probe.violations]
    if probe.failed or probe.restarts_failed:
        violations.append("quality probe: an operation failed")
    if coordinated < pinned - settings.COORDINATION_TOLERANCE:
        violations.append(
            f"quality probe: coordinated_pct {coordinated:.2f} is more than "
            f"{settings.COORDINATION_TOLERANCE} points below the pinned "
            f"{pinned:.2f}"
        )
    return violations, coordinated


def run(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One run of workload ``name``; returns the result object."""
    workload = WORKLOADS[name]
    size = settings.SIZES[name]

    def round_seed(index: int) -> str:
        return f"{seed}.{index}"

    violations, probe_coordinated = first_round(workload)
    if not trace:
        rounds = run_rounds(
            lambda index: workload.run_round(round_seed(index), size),
            seconds, settings.MIN_ROUNDS, workload.min_samples, workload.primary, 0,
        )
        values = metrics.end_to_end(workload, rounds)
        units = {m.name: m.unit for m in metrics.END_TO_END}
    else:
        reference = workload.run_round(round_seed(0), size)
        recorder = spans.SpanRecorder()
        with spans.install(recorder):
            traced = run_rounds(
                lambda index: workload.run_round(round_seed(index), size, recorder),
                seconds - reference.measure_s, settings.MIN_ROUNDS - 1,
                0, workload.primary, 1,
            )
        rounds = [reference, *traced]
        values = metrics.per_layer(
            traced, recorder.spans, metrics.ops_per_s([reference])
        )
        units = {m.name: m.unit for m in metrics.PER_LAYER}
        write_trace(name, recorder.spans)
    violations.extend(v for rnd in rounds for v in rnd.violations)
    floor = settings.COORDINATION_FLOORS.get(name)
    if floor is not None:
        coordinated = statistics.mean(rnd.facts["coordinated_pct"] for rnd in rounds)
        if coordinated < floor:
            violations.append(
                f"coordinated_pct {coordinated:.1f} below the floor {floor}"
            )
    failed = sum(rnd.failed + rnd.restarts_failed for rnd in rounds)
    return {
        "correct": not violations and failed == 0,
        "attempted": sum(rnd.attempted + rnd.restarts_attempted for rnd in rounds),
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in values.items()
        },
        "violations": violations,
        "probe_coordinated_pct": probe_coordinated,
        "rounds": len(rounds),
        "slowdowns": sorted(rnd.slowdown["measure"] for rnd in rounds),
        "samples": sum(len(rnd.samples(workload.primary)) for rnd in rounds),
    }


def write_trace(name: str, recorded: Sequence[spans.Span]) -> None:
    """All spans of the traced rounds, one compact row each."""
    settings.OUT_DIR.mkdir(parents=True, exist_ok=True)
    origin = min((span.start for span in recorded), default=0.0)
    document = {
        "workload": name,
        "columns": [
            "id", "parent", "name", "layer", "thread", "start_us", "end_us",
            "phase", "payload",
        ],
        "spans": [
            [
                span.id, span.parent, span.name, spans.LAYER_OF[span.name],
                span.thread, round(1e6 * (span.start - origin)),
                round(1e6 * (span.end - origin)), span.phase, span.payload,
            ]
            for span in recorded
        ],
    }
    path = settings.OUT_DIR / f"trace-{name}.json"
    with open(path, "w") as handle:
        json.dump(document, handle, separators=(",", ":"))


def report(result: dict[str, Any], env: dict[str, Any]) -> str:
    """The run as text: environment, every metric by name with its unit."""
    lines = [f"# {key}: {value}" for key, value in env.items()]
    lines.append(
        f"# rounds: {result['rounds']}  primary-operation samples: "
        f"{result['samples']}  attempted: {result['attempted']}  "
        f"failed: {result['failed']}"
    )
    slowdowns = result["slowdowns"]
    lines.append(
        f"# host slowdown of the rounds (reference work against the quiet "
        f"reference box): median {statistics.median(slowdowns):.3f}, "
        f"{slowdowns[0]:.3f} to {slowdowns[-1]:.3f}"
    )
    if result["probe_coordinated_pct"] is not None:
        lines.append(
            f"# quality probe: coordinated_pct "
            f"{result['probe_coordinated_pct']:.4f} on pinned inputs (pinned "
            f"{settings.PINNED_COORDINATED_PCT[env['workload']]:.4f}, may fall "
            f"short by {settings.COORDINATION_TOLERANCE})"
        )
    for key, metric in result["metrics"].items():
        lines.append(f"{key:42s} {metric['value']:14.4f} {metric['unit']}")
    lines.extend(f"VIOLATION: {text}" for text in result["violations"])
    return "\n".join(lines)


def main_run(name: str, seed: int, seconds: float, trace: bool) -> int:
    if (os.cpu_count() or 1) < settings.CONNECTIONS:
        print(
            f"bench: needs nproc >= {settings.CONNECTIONS} (the load thread "
            "and the server's helper threads would share one core)",
            file=sys.stderr,
        )
        return 2
    # A terminated run still unwinds, so that its round removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(name, seed, seconds, trace)
    print(report(result, environment(WORKLOADS[name], seed, seconds)))
    contract = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(contract))
    return 0 if result["correct"] else 1
