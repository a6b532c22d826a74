#!/usr/bin/env python
"""Perf-regression gate over the committed ``BENCH_admission.json``.

``make smoke`` regenerates ``BENCH_admission.json`` from the admission
benchmark (``benchmarks/test_sharded_admission.py``); this script compares
the fresh file against the baseline committed at ``HEAD`` and fails (exit
code 1) when the admission path regressed:

* **decision divergence** — an admission point's admitted/rejected/
  transaction counts differ from the baseline's.  Decisions are
  deterministic, so any divergence is a correctness bug, never noise; this
  always fails.
* **the anchor** — a fresh run records one admission point, the anchor
  ``(1, "unsharded")`` (points are identified by ``(shards, backend)``;
  older baselines also carry shard-sweep rows, reported as no longer
  swept, and lane rows, ``"lanes": true``, ignored).  Its
  ``admission_txn_per_s`` is the machine-speed proxy every other section
  is normalized by, which is what makes the gate meaningful on CI runners
  whose absolute speed differs arbitrarily from the machine that produced
  the committed numbers.  Normalized by itself it is always 1, so its
  throughput gates only under ``--absolute`` (raw txn/s, for two files
  from the same machine), against the tolerance, default 30%.  What gates
  the admission path in every mode is its overlap-scan work: the point's
  ``unification_checks`` and ``scanned_partitions`` are deterministic
  (same workload, same routing), so either one rising above the
  baseline's fails with no tolerance — routing that fell back to scanning
  partitions the signature index used to rule out shows there first.

* **latency regression** — the ``"network"`` section (emitted by the TCP
  load benchmark) carries commit-latency percentiles per concurrent-client
  count.  A shared latency point whose p95, normalized by the same run's
  anchor throughput (a machine-speed proxy: latency times machine speed is
  roughly machine-invariant), grew by more than ``LATENCY_TOLERANCE``
  (50%) fails the gate; network throughput gates with the standard
  tolerance, and the point's decision counters gate strictly.  Unknown
  keys in any result are ignored, so the format can keep growing without
  tripping older baselines.

* **durability regression** — the ``"durability"`` section (emitted by
  ``make recoverbench``, the segmented-WAL recovery benchmark) carries
  cold-restart recovery time and the max delta-checkpoint pause.  Both
  gate with the same anchor normalization as the latency points and fail
  beyond ``DURABILITY_TOLERANCE`` (50%); additionally the fresh run must
  show compaction actually reclaiming bytes and its delta checkpoint
  pause staying below the engine's own full-snapshot base pause
  (``base_pause_ms``) — the two structural claims of the segmented
  engine, gated so they cannot silently rot.  One more structural claim
  gates on every fresh point that carries the fields, baseline or not:
  the writer must fold at most the first base
  (``writer_base_folds <= 1``) while the compaction pass synthesized at
  least one (``bases_synthesized >= 1``).

* **admission-search regression** — the ``"search"`` section (emitted by
  ``make searchbench``, the admission-search strategy benchmark) compares
  branch-and-bound against the seed backtracking searcher.  Two claims
  are structural and fail on every fresh run that violates them,
  baseline or not: the strategies decided every transaction identically
  (``decisions_match``), and bnb expanded at most
  ``SEARCH_NODES_RATIO_BOUND`` of backtracking's admission-search nodes.
  A third is structural too, within the standard tolerance: bnb's
  admission-search *wall time* (``bnb_search_ms``) must not exceed
  backtracking's (``backtracking_search_ms``, same run, same machine) —
  counted nodes are a proxy, and a strategy that expands fewer of them
  while running slower is a regression the node ratio cannot see.
  Against the baseline, the fast-path hit rate must not drop beyond the
  throughput tolerance, and each strategy's search wall time and the
  sampled-admission latency — anchor-normalized like every other
  millisecond quantity — must not grow beyond ``LATENCY_TOLERANCE``.

Sweep points present on only one side are reported but never fail the
gate: the grid may legitimately grow (a new backend) or shrink across PRs.
Runs with different workload scales (``"smoke"`` for ``-m smoke`` runs,
else ``REPRO_BENCH_SCALE``) or workload parameters **fail the gate**:
their numbers are not comparable, and a mis-scaled committed baseline
would otherwise disarm every comparison silently (exactly the bug this
gate once had — it *skipped* on mismatch, so a ``"default"``-scale
baseline turned the gate into an exit-0 no-op on every CI run).  The
committed baseline must be a ``make smoke`` run, since that is what CI
regenerates; re-baseline by committing the fresh file.  The only
skip-as-success left is the genuine first-commit case where no baseline
exists at ``HEAD`` at all.  ``--require-points N`` additionally fails
the gate when fewer than N sweep points were actually compared, so CI
can reject any outcome where the gate silently had nothing to do.

Used as ``make gate`` (part of ``make check``), so the gate runs
identically on a developer laptop and in the CI workflow.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_admission.json"
DEFAULT_TOLERANCE = 0.30

#: Maximum tolerated relative p95 commit-latency growth on the network
#: load points.  Latency tails over real sockets are noisier than bulk
#: throughput (one delayed scheduling round lands whole-hog in the p95),
#: so the band is wider than the throughput default — but a latency
#: doubling still fails.
LATENCY_TOLERANCE = 0.50

#: Maximum tolerated relative growth of the durability points' recovery
#: time and max delta-checkpoint pause (anchor-normalized, like the
#: latency points).  Single-digit-millisecond pauses are scheduling-noisy
#: on shared CI boxes, so the band matches the latency one.
DURABILITY_TOLERANCE = 0.50

#: Absolute floor (raw milliseconds) under which the delta-checkpoint
#: pause growth check never fails.  The pause is a ~1ms quantity at smoke
#: scale and a *max* over every checkpoint in the run, so one delayed
#: scheduling slice anywhere can multiply it — a purely relative band
#: flaps on loaded boxes no matter which run is committed as the
#: baseline.  The effective floor is the larger of this constant and
#: half the same run's full-snapshot base pause: the engine's claim is
#: the delta pause staying materially below a full fold, so only a
#: fresh pause that has lost most of that advantage re-arms the band
#: (and one that reaches the fold fails the structural delta-below-base
#: check regardless).
PAUSE_NOISE_FLOOR_MS = 5.0

#: Structural bound on the admission-search points: branch-and-bound must
#: expand at most this fraction of the backtracking run's admission-search
#: nodes.  Node counts are deterministic (same workload, same algorithm),
#: so this is a hard acceptance bar, not a noise band — a fresh run above
#: it fails even against an identical baseline.
SEARCH_NODES_RATIO_BOUND = 0.5


def load_fresh(path: Path) -> dict:
    """The freshly emitted benchmark file (written by ``make smoke``)."""
    return json.loads(path.read_text())


def load_baseline(explicit: str | None) -> dict | None:
    """The committed baseline: an explicit file, or ``HEAD``'s copy."""
    if explicit is not None:
        return json.loads(Path(explicit).read_text())
    try:
        shown = subprocess.run(
            ["git", "show", f"HEAD:{BENCH_JSON.name}"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return json.loads(shown.stdout)


def point_key(result: dict) -> tuple[int, str]:
    """Identity of one sweep point: ``(shards, backend)``.

    Baselines written before the backend dimension existed default to the
    backend their shard count implied.
    """
    shards = int(result["shards"])
    default = "unsharded" if shards == 1 else "thread"
    return shards, str(result.get("backend", default))


def indexed(payload: dict) -> dict[tuple[int, str], dict]:
    """The sweep points by key, without the retired lane rows."""
    return {
        point_key(result): result
        for result in payload.get("results", [])
        if not result.get("lanes", False)
    }


#: Admission point every other section's numbers are normalized against.
ANCHOR_KEY = (1, "unsharded")


def network_points(payload: dict) -> dict[int, dict]:
    """The TCP load sweep, keyed by concurrent-client count.

    Baselines written before the network layer existed simply have no
    ``"network"`` section — an empty mapping, which the gate reports as
    new points rather than failing.
    """
    section = payload.get("network") or {}
    return {int(result["clients"]): result for result in section.get("results", [])}


def normalized_ms(
    value: float | None, points: dict[tuple[int, str], dict]
) -> float | None:
    """A millisecond quantity scaled by the run's anchor throughput.

    Latency times machine speed is roughly machine-invariant, so scaling
    each file's milliseconds by its own anchor ``admission_txn_per_s``
    lets a slow CI runner gate against a baseline recorded on a fast
    laptop — the same trick normalized throughput uses, applied to
    quantities where *higher* is worse (commit p95, recovery time,
    checkpoint pause).
    """
    anchor = points.get(ANCHOR_KEY)
    if anchor is None or value is None:
        return None
    speed = float(anchor["admission_txn_per_s"])
    if speed <= 0:
        return None
    return float(value) * speed


def normalized_latency(
    result: dict, points: dict[tuple[int, str], dict]
) -> float | None:
    """p95 commit latency scaled by the run's anchor throughput."""
    return normalized_ms(result.get("p95_ms"), points)


def durability_points(payload: dict) -> dict[tuple[int, int], dict]:
    """The recovery-benchmark sweep, keyed by ``(store_rows, churn_rows)``.

    Baselines written before the segmented durability engine existed have
    no ``"durability"`` section — an empty mapping, reported as new points
    rather than failed.
    """
    section = payload.get("durability") or {}
    return {
        (int(result["store_rows"]), int(result["churn_rows"])): result
        for result in section.get("results", [])
    }


def search_points(payload: dict) -> dict[tuple[int, int], dict]:
    """The admission-search sweep, keyed by ``(num_flights, rows_per_flight)``.

    Baselines written before the strategy subsystem existed have no
    ``"search"`` section — an empty mapping, reported as new points rather
    than failed.
    """
    section = payload.get("search") or {}
    return {
        (int(result["num_flights"]), int(result["rows_per_flight"])): result
        for result in section.get("results", [])
    }


def missing_anchor(
    points: dict[tuple[int, str], dict], label: str
) -> str | None:
    """A failure message when a non-empty run lacks a usable anchor point.

    Normalized gating divides the other sections' numbers by the run's
    ``(1, "unsharded")`` throughput; without that anchor every comparison
    would be silently skipped, which is indistinguishable from "everything passed".
    An empty results list is fine (nothing to normalize), as is gating in
    ``--absolute`` mode (the caller skips this check).
    """
    if not points:
        return None
    anchor = points.get(ANCHOR_KEY)
    if anchor is None:
        return f"{label} run has sweep points but no {ANCHOR_KEY} anchor"
    if float(anchor["admission_txn_per_s"]) <= 0:
        return f"{label} run's {ANCHOR_KEY} anchor has non-positive throughput"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_GATE_TOLERANCE", DEFAULT_TOLERANCE)),
        help="maximum tolerated relative throughput drop (default 0.30)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON file (default: HEAD's BENCH_admission.json)",
    )
    parser.add_argument(
        "--fresh",
        default=str(BENCH_JSON),
        help="freshly emitted JSON file (default: repo BENCH_admission.json)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="compare raw txn/s instead of run-normalized throughput",
    )
    parser.add_argument(
        "--require-points",
        type=int,
        default=0,
        metavar="N",
        help=(
            "fail unless at least N sweep points were actually compared "
            "(rejects the no-baseline and zero-shared-points outcomes)"
        ),
    )
    args = parser.parse_args(argv)

    fresh_path = Path(args.fresh)
    if not fresh_path.exists():
        print(f"bench gate: {fresh_path} missing — run `make smoke` first")
        return 1
    fresh = load_fresh(fresh_path)
    baseline = load_baseline(args.baseline)
    if baseline is None:
        if args.require_points > 0:
            print(
                "bench gate: FAIL — no committed baseline found but "
                f"--require-points {args.require_points} demands a comparison"
            )
            return 1
        print("bench gate: no committed baseline found; nothing to compare")
        return 0
    if fresh.get("scale") != baseline.get("scale"):
        print(
            "bench gate: FAIL — scale mismatch "
            f"({baseline.get('scale')!r} -> {fresh.get('scale')!r}); the "
            "committed baseline must be a `make smoke` run (commit the fresh "
            "file to re-baseline)"
        )
        return 1
    if fresh.get("workload") != baseline.get("workload"):
        print(
            "bench gate: FAIL — workload mismatch: baseline "
            f"{baseline.get('workload')} vs fresh {fresh.get('workload')}; "
            "numbers are not comparable (commit the fresh file to re-baseline)"
        )
        return 1

    fresh_points = indexed(fresh)
    base_points = indexed(baseline)
    if not args.absolute:
        anchor_failures = [
            message
            for message in (
                missing_anchor(base_points, "baseline"),
                missing_anchor(fresh_points, "fresh"),
            )
            if message is not None
        ]
        if anchor_failures:
            for message in anchor_failures:
                print(
                    f"bench gate: FAIL — {message}; normalized gating would "
                    "silently skip every point"
                )
            return 1
    shared = sorted(set(fresh_points) & set(base_points))
    only_base = sorted(set(base_points) - set(fresh_points))
    only_fresh = sorted(set(fresh_points) - set(base_points))
    for key in only_base:
        print(f"bench gate: note — baseline point {key} no longer swept")
    for key in only_fresh:
        print(f"bench gate: note — new sweep point {key} (no baseline)")

    failures: list[str] = []
    for key in shared:
        fresh_result = fresh_points[key]
        base_result = base_points[key]
        for field in ("transactions", "admitted", "rejected"):
            if fresh_result.get(field) != base_result.get(field):
                failures.append(
                    f"{key}: decisions diverged — {field} "
                    f"{base_result.get(field)} -> {fresh_result.get(field)}"
                )
        # Overlap-scan work is as deterministic as the decisions: more of it
        # fails, less is reported (baselines without the counters skip).
        for field in ("unification_checks", "scanned_partitions"):
            base_count = base_result.get(field)
            fresh_count = fresh_result.get(field)
            if base_count is None or fresh_count is None:
                continue
            if int(fresh_count) > int(base_count):
                failures.append(
                    f"{key}: overlap-scan work grew — {field} "
                    f"{base_count} -> {fresh_count}"
                )
            elif int(fresh_count) < int(base_count):
                print(
                    f"bench gate: note — {key} {field} "
                    f"{base_count} -> {fresh_count}"
                )
        # Normalized, an admission point is divided by the anchor — itself.
        if not args.absolute:
            continue
        base_value = float(base_result["admission_txn_per_s"])
        fresh_value = float(fresh_result["admission_txn_per_s"])
        if base_value <= 0:
            continue
        drop = 1.0 - fresh_value / base_value
        print(
            f"bench gate: {key} txn/s {base_value:.2f} -> {fresh_value:.2f}"
            f" ({-drop:+.1%})"
        )
        if drop > args.tolerance:
            failures.append(
                f"{key}: txn/s regressed {drop:.1%} "
                f"(tolerance {args.tolerance:.0%})"
            )

    # -- network load points (commit-latency percentiles over TCP) ----------
    fresh_net = network_points(fresh)
    base_net = network_points(baseline)
    shared_net = sorted(set(fresh_net) & set(base_net))
    for clients in sorted(set(base_net) - set(fresh_net)):
        print(f"bench gate: note — baseline network point {clients} clients no longer swept")
    for clients in sorted(set(fresh_net) - set(base_net)):
        print(f"bench gate: note — new network point {clients} clients (no baseline)")
    if shared_net:
        fresh_net_scale = (fresh.get("network") or {}).get("scale")
        base_net_scale = (baseline.get("network") or {}).get("scale")
        if fresh_net_scale != base_net_scale:
            print(
                "bench gate: FAIL — network scale mismatch "
                f"({base_net_scale!r} -> {fresh_net_scale!r}); commit the "
                "fresh file to re-baseline"
            )
            return 1
    compared_net = 0
    for clients in shared_net:
        fresh_result = fresh_net[clients]
        base_result = base_net[clients]
        if fresh_result.get("workload") != base_result.get("workload"):
            failures.append(
                f"network {clients} clients: workload mismatch — "
                f"{base_result.get('workload')} vs {fresh_result.get('workload')}"
            )
            continue
        for field in ("transactions", "admitted", "rejected"):
            if fresh_result.get(field) != base_result.get(field):
                failures.append(
                    f"network {clients} clients: decisions diverged — {field} "
                    f"{base_result.get(field)} -> {fresh_result.get(field)}"
                )
        compared_net += 1
        # Throughput: normalized by the run's anchor (its in-process
        # admission point), with the standard tolerance.
        if args.absolute:
            base_tp = float(base_result["throughput_txn_per_s"])
            fresh_tp = float(fresh_result["throughput_txn_per_s"])
        else:
            base_anchor = base_points.get(ANCHOR_KEY)
            fresh_anchor = fresh_points.get(ANCHOR_KEY)
            if base_anchor is None or fresh_anchor is None:
                base_tp = fresh_tp = None
            else:
                base_tp = float(base_result["throughput_txn_per_s"]) / float(
                    base_anchor["admission_txn_per_s"]
                )
                fresh_tp = float(fresh_result["throughput_txn_per_s"]) / float(
                    fresh_anchor["admission_txn_per_s"]
                )
        if base_tp is not None and base_tp > 0:
            drop = 1.0 - fresh_tp / base_tp
            print(
                f"bench gate: network {clients} clients throughput "
                f"{base_tp:.2f} -> {fresh_tp:.2f} ({-drop:+.1%})"
            )
            if drop > args.tolerance:
                failures.append(
                    f"network {clients} clients: throughput regressed "
                    f"{drop:.1%} (tolerance {args.tolerance:.0%})"
                )
        # Latency: p95 normalized by the run's machine-speed anchor;
        # growth beyond LATENCY_TOLERANCE fails.
        if args.absolute:
            base_p95 = base_result.get("p95_ms")
            fresh_p95 = fresh_result.get("p95_ms")
        else:
            base_p95 = normalized_latency(base_result, base_points)
            fresh_p95 = normalized_latency(fresh_result, fresh_points)
        if base_p95 and fresh_p95:
            growth = float(fresh_p95) / float(base_p95) - 1.0
            print(
                f"bench gate: network {clients} clients p95 "
                f"{float(base_p95):.2f} -> {float(fresh_p95):.2f} ({growth:+.1%})"
            )
            if growth > LATENCY_TOLERANCE:
                failures.append(
                    f"network {clients} clients: p95 latency grew "
                    f"{growth:.1%} (tolerance {LATENCY_TOLERANCE:.0%})"
                )

    # -- durability points (segmented-WAL recovery benchmark) ---------------
    fresh_dur = durability_points(fresh)
    base_dur = durability_points(baseline)
    shared_dur = sorted(set(fresh_dur) & set(base_dur))
    for key in sorted(set(base_dur) - set(fresh_dur)):
        print(
            f"bench gate: note — baseline durability point {key} no longer swept"
        )
    for key in sorted(set(fresh_dur) - set(base_dur)):
        print(f"bench gate: note — new durability point {key} (no baseline)")
    if shared_dur:
        fresh_dur_scale = (fresh.get("durability") or {}).get("scale")
        base_dur_scale = (baseline.get("durability") or {}).get("scale")
        if fresh_dur_scale != base_dur_scale:
            print(
                "bench gate: FAIL — durability scale mismatch "
                f"({base_dur_scale!r} -> {fresh_dur_scale!r}); commit the "
                "fresh file to re-baseline"
            )
            return 1
    compared_dur = 0
    # Structural claim of synthesized bases: it holds on every fresh point
    # carrying the fields, baseline or not (older baselines without the
    # fields gate nothing here).
    for key, fresh_result in sorted(fresh_dur.items()):
        writer_folds = fresh_result.get("writer_base_folds")
        if writer_folds is not None and float(writer_folds) > 1:
            failures.append(
                f"durability {key}: the writer folded {writer_folds} full "
                "bases — only the first fold may run on the writer"
            )
        synthesized = fresh_result.get("bases_synthesized")
        if (
            writer_folds is not None
            and synthesized is not None
            and float(synthesized) < 1
        ):
            failures.append(
                f"durability {key}: no base was synthesized off the writer"
            )
    for key in shared_dur:
        fresh_result = fresh_dur[key]
        base_result = base_dur[key]
        if fresh_result.get("checkpoints") != base_result.get("checkpoints"):
            failures.append(
                f"durability {key}: run shape diverged — checkpoints "
                f"{base_result.get('checkpoints')} -> "
                f"{fresh_result.get('checkpoints')}"
            )
            continue
        compared_dur += 1
        # The engine's structural claims hold in every fresh run: sealed
        # segments keep getting reclaimed, and the delta checkpoint pause
        # stays below the full-snapshot base pause of the same run.
        if float(fresh_result.get("bytes_reclaimed", 0)) <= 0:
            failures.append(
                f"durability {key}: compaction reclaimed no bytes"
            )
        delta_pause = fresh_result.get("max_delta_pause_ms")
        fold_pause = fresh_result.get("base_pause_ms")
        if (
            delta_pause is not None
            and fold_pause is not None
            and float(delta_pause) >= float(fold_pause)
        ):
            failures.append(
                f"durability {key}: delta checkpoint pause "
                f"{float(delta_pause):.2f}ms is not below the "
                f"full-snapshot base pause {float(fold_pause):.2f}ms"
            )
        for field, label in (
            ("recovery_ms", "recovery time"),
            ("max_delta_pause_ms", "max delta checkpoint pause"),
        ):
            if args.absolute:
                base_value = base_result.get(field)
                fresh_value = fresh_result.get(field)
            else:
                base_value = normalized_ms(base_result.get(field), base_points)
                fresh_value = normalized_ms(fresh_result.get(field), fresh_points)
            if not base_value or not fresh_value:
                continue
            growth = float(fresh_value) / float(base_value) - 1.0
            print(
                f"bench gate: durability {key} {label} "
                f"{float(base_value):.2f} -> {float(fresh_value):.2f} "
                f"({growth:+.1%})"
            )
            if growth > DURABILITY_TOLERANCE:
                raw_fresh = fresh_result.get(field)
                if field == "max_delta_pause_ms" and raw_fresh is not None:
                    floor = PAUSE_NOISE_FLOOR_MS
                    if fold_pause is not None:
                        floor = max(floor, 0.5 * float(fold_pause))
                    if float(raw_fresh) <= floor:
                        print(
                            f"bench gate: note — durability {key} {label} "
                            f"{float(raw_fresh):.2f}ms is within the "
                            f"{floor:.1f}ms scheduling-noise floor; "
                            "growth not gated"
                        )
                        continue
                failures.append(
                    f"durability {key}: {label} grew {growth:.1%} "
                    f"(tolerance {DURABILITY_TOLERANCE:.0%})"
                )

    # -- admission-search points (strategy benchmark) -----------------------
    fresh_search = search_points(fresh)
    base_search = search_points(baseline)
    shared_search = sorted(set(fresh_search) & set(base_search))
    for key in sorted(set(base_search) - set(fresh_search)):
        print(f"bench gate: note — baseline search point {key} no longer swept")
    for key in sorted(set(fresh_search) - set(base_search)):
        print(f"bench gate: note — new search point {key} (no baseline)")
    if shared_search:
        fresh_search_scale = (fresh.get("search") or {}).get("scale")
        base_search_scale = (baseline.get("search") or {}).get("scale")
        if fresh_search_scale != base_search_scale:
            print(
                "bench gate: FAIL — search scale mismatch "
                f"({base_search_scale!r} -> {fresh_search_scale!r}); commit "
                "the fresh file to re-baseline"
            )
            return 1
    compared_search = 0
    # The two structural claims gate on every fresh point, baseline or not:
    # identical decisions across strategies, and the node-ratio bound.
    for key, fresh_result in sorted(fresh_search.items()):
        if not fresh_result.get("decisions_match", False):
            failures.append(
                f"search {key}: bnb and backtracking decisions diverged"
            )
        ratio = fresh_result.get("nodes_ratio")
        if ratio is not None and float(ratio) > SEARCH_NODES_RATIO_BOUND:
            failures.append(
                f"search {key}: admission-node ratio {float(ratio):.3f} "
                f"exceeds the {SEARCH_NODES_RATIO_BOUND} bound"
            )
        # Same run, same machine: a plain ratio, no anchor needed.
        bt_ms = fresh_result.get("backtracking_search_ms")
        bnb_ms = fresh_result.get("bnb_search_ms")
        if bt_ms and bnb_ms:
            slower = float(bnb_ms) / float(bt_ms) - 1.0
            print(
                f"bench gate: search {key} wall time backtracking "
                f"{float(bt_ms):.1f}ms, bnb {float(bnb_ms):.1f}ms ({slower:+.1%})"
            )
            if slower > args.tolerance:
                failures.append(
                    f"search {key}: bnb search wall time is {slower:.1%} above "
                    f"backtracking's (tolerance {args.tolerance:.0%})"
                )
    for key in shared_search:
        fresh_result = fresh_search[key]
        base_result = base_search[key]
        for field in ("transactions", "admitted", "rejected"):
            if fresh_result.get(field) != base_result.get(field):
                failures.append(
                    f"search {key}: decisions diverged — {field} "
                    f"{base_result.get(field)} -> {fresh_result.get(field)}"
                )
        compared_search += 1
        # Fast-path hit rate: a drop beyond the throughput tolerance means
        # the per-shape dispatch stopped answering searches it used to.
        base_rate = float(base_result.get("fastpath_hit_rate") or 0.0)
        fresh_rate = float(fresh_result.get("fastpath_hit_rate") or 0.0)
        if base_rate > 0:
            drop = 1.0 - fresh_rate / base_rate
            print(
                f"bench gate: search {key} fastpath hit rate "
                f"{base_rate:.3f} -> {fresh_rate:.3f} ({-drop:+.1%})"
            )
            if drop > args.tolerance:
                failures.append(
                    f"search {key}: fastpath hit rate dropped {drop:.1%} "
                    f"(tolerance {args.tolerance:.0%})"
                )
        # Millisecond quantities: anchor-normalized, the same machine-speed
        # trick as the network and durability points.
        for field, label in (
            ("backtracking_search_ms", "backtracking search wall time"),
            ("bnb_search_ms", "bnb search wall time"),
            ("sampled_admission_ms", "sampled-admission latency"),
        ):
            if args.absolute:
                base_ms = base_result.get(field)
                fresh_ms = fresh_result.get(field)
            else:
                base_ms = normalized_ms(base_result.get(field), base_points)
                fresh_ms = normalized_ms(fresh_result.get(field), fresh_points)
            if base_ms and fresh_ms:
                growth = float(fresh_ms) / float(base_ms) - 1.0
                print(
                    f"bench gate: search {key} {label} "
                    f"{float(base_ms):.2f} -> {float(fresh_ms):.2f} ({growth:+.1%})"
                )
                if growth > LATENCY_TOLERANCE:
                    failures.append(
                        f"search {key}: {label} grew "
                        f"{growth:.1%} (tolerance {LATENCY_TOLERANCE:.0%})"
                    )

    if failures:
        for failure in failures:
            print(f"bench gate: FAIL — {failure}")
        return 1
    total_compared = len(shared) + compared_net + compared_dur + compared_search
    if total_compared < args.require_points:
        print(
            f"bench gate: FAIL — only {total_compared} sweep points compared, "
            f"--require-points demands {args.require_points}"
        )
        return 1
    print(
        f"bench gate: OK ({len(shared)} admission points, "
        f"{compared_net} network points, {compared_dur} durability points "
        f"and {compared_search} search points within tolerance)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
