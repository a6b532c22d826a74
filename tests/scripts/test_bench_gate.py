"""Exit-code coverage for ``scripts/bench_gate.py``.

The gate is the last line of defence for the paper's Figure 7 scalability
claim, and it was once silently disarmed: a ``"default"``-scale baseline
made every CI comparison "skip" with exit 0.  These tests pin down the
re-armed semantics — mismatched baselines *fail*, a missing normalization
anchor *fails*, and ``--require-points`` rejects the nothing-was-compared
outcome — by driving ``main()`` directly with synthetic benchmark files.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "bench_gate", REPO_ROOT / "scripts" / "bench_gate.py"
)
bench_gate = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("bench_gate", bench_gate)
_SPEC.loader.exec_module(bench_gate)

WORKLOAD = {"num_flights": 10, "transactions": 120}


def point(
    shards: int,
    backend: str,
    lanes: bool,
    txn_per_s: float,
    *,
    admitted: int = 100,
    rejected: int = 20,
) -> dict:
    return {
        "shards": shards,
        "backend": backend,
        "lanes": lanes,
        "transactions": admitted + rejected,
        "admitted": admitted,
        "rejected": rejected,
        "admission_txn_per_s": txn_per_s,
    }


def payload(
    points: list[dict], *, scale: str = "smoke", workload: dict | None = None
) -> dict:
    return {
        "scale": scale,
        "workload": dict(WORKLOAD if workload is None else workload),
        "results": points,
    }


def standard_points(anchor: float = 100.0, sharded: float = 200.0) -> list[dict]:
    return [
        point(1, "unsharded", False, anchor),
        point(4, "thread", False, sharded),
        point(4, "thread", True, sharded * 1.1),
    ]


def write(tmp_path: Path, name: str, data: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_gate(tmp_path: Path, fresh: dict, baseline: dict, *extra: str) -> int:
    return bench_gate.main(
        [
            "--fresh",
            write(tmp_path, "fresh.json", fresh),
            "--baseline",
            write(tmp_path, "baseline.json", baseline),
            *extra,
        ]
    )


def test_clean_comparison_exits_zero(tmp_path, capsys):
    assert run_gate(tmp_path, payload(standard_points()), payload(standard_points())) == 0
    assert "OK (3 admission points" in capsys.readouterr().out


def test_scale_mismatch_fails(tmp_path, capsys):
    fresh = payload(standard_points())
    baseline = payload(standard_points(), scale="default")
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "scale mismatch" in capsys.readouterr().out


def test_workload_mismatch_fails(tmp_path, capsys):
    fresh = payload(standard_points())
    baseline = payload(
        standard_points(), workload={"num_flights": 16, "transactions": 192}
    )
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "workload mismatch" in capsys.readouterr().out


def test_decision_divergence_fails(tmp_path, capsys):
    fresh_points = standard_points()
    fresh_points[1] = point(4, "thread", False, 200.0, admitted=99, rejected=21)
    assert run_gate(tmp_path, payload(fresh_points), payload(standard_points())) == 1
    assert "decisions diverged" in capsys.readouterr().out


def test_throughput_drop_beyond_tolerance_fails(tmp_path, capsys):
    # Anchor unchanged, sharded point's normalized throughput drops 50%.
    fresh = payload(standard_points(sharded=100.0))
    baseline = payload(standard_points(sharded=200.0))
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "regressed" in capsys.readouterr().out


def test_throughput_drop_within_tolerance_passes(tmp_path):
    fresh = payload(standard_points(sharded=180.0))
    baseline = payload(standard_points(sharded=200.0))
    assert run_gate(tmp_path, fresh, baseline) == 0


def test_missing_anchor_fails(tmp_path, capsys):
    without_anchor = payload([point(4, "thread", False, 200.0)])
    assert run_gate(tmp_path, without_anchor, payload(standard_points())) == 1
    assert "anchor" in capsys.readouterr().out

    assert run_gate(tmp_path, payload(standard_points()), without_anchor) == 1


def test_zero_throughput_anchor_fails(tmp_path, capsys):
    broken = payload(
        [point(1, "unsharded", False, 0.0), point(4, "thread", False, 200.0)]
    )
    assert run_gate(tmp_path, payload(standard_points()), broken) == 1
    assert "non-positive" in capsys.readouterr().out


def test_absolute_mode_skips_anchor_check(tmp_path):
    without_anchor = payload([point(4, "thread", False, 200.0)])
    assert run_gate(tmp_path, without_anchor, without_anchor, "--absolute") == 0


def test_no_baseline_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_gate, "load_baseline", lambda explicit: None)
    fresh = write(tmp_path, "fresh.json", payload(standard_points()))
    assert bench_gate.main(["--fresh", fresh]) == 0
    assert "no committed baseline" in capsys.readouterr().out


def test_no_baseline_with_require_points_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_gate, "load_baseline", lambda explicit: None)
    fresh = write(tmp_path, "fresh.json", payload(standard_points()))
    assert bench_gate.main(["--fresh", fresh, "--require-points", "1"]) == 1


def test_missing_fresh_file_fails(tmp_path, capsys):
    assert bench_gate.main(["--fresh", str(tmp_path / "absent.json")]) == 1
    assert "run `make smoke` first" in capsys.readouterr().out


def test_require_points_rejects_disjoint_grids(tmp_path, capsys):
    fresh = payload(
        [point(1, "unsharded", False, 100.0), point(2, "thread", False, 150.0)]
    )
    baseline = payload(
        [point(1, "unsharded", False, 100.0), point(4, "process", False, 150.0)]
    )
    # One shared point (the anchor): --require-points 2 must fail...
    assert run_gate(tmp_path, fresh, baseline, "--require-points", "2") == 1
    assert "--require-points" in capsys.readouterr().out
    # ...while 1 passes.
    assert run_gate(tmp_path, fresh, baseline, "--require-points", "1") == 0


@pytest.mark.parametrize("side", ["fresh", "baseline"])
def test_one_sided_points_never_fail(tmp_path, side, capsys):
    extra = standard_points() + [point(2, "process", True, 150.0)]
    fresh, baseline = (extra, standard_points())
    if side == "baseline":
        fresh, baseline = baseline, fresh
    assert run_gate(tmp_path, payload(fresh), payload(baseline)) == 0
    assert "note —" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Network load points: commit-latency percentiles over TCP
# ---------------------------------------------------------------------------


NET_WORKLOAD = {"order": "RANDOM", "num_flights": 16, "rows_per_flight": 4, "seed": 0}


def net_point(
    clients: int,
    *,
    txn_per_s: float = 300.0,
    p95_ms: float = 20.0,
    admitted: int | None = None,
    rejected: int = 0,
    workload: dict | None = None,
) -> dict:
    admitted = clients if admitted is None else admitted
    return {
        "clients": clients,
        "transactions": admitted + rejected,
        "admitted": admitted,
        "rejected": rejected,
        "throughput_txn_per_s": txn_per_s,
        "p50_ms": p95_ms / 2,
        "p95_ms": p95_ms,
        "p99_ms": p95_ms * 1.5,
        "workload": dict(NET_WORKLOAD if workload is None else workload),
    }


def with_network(base: dict, points: list[dict], *, scale: str = "smoke") -> dict:
    data = dict(base)
    data["network"] = {"scale": scale, "results": points}
    return data


def test_network_points_clean_comparison(tmp_path, capsys):
    fresh = with_network(payload(standard_points()), [net_point(64), net_point(256)])
    baseline = with_network(payload(standard_points()), [net_point(64), net_point(256)])
    assert run_gate(tmp_path, fresh, baseline) == 0
    assert "2 network points" in capsys.readouterr().out


def test_network_section_absent_from_baseline_is_a_note(tmp_path, capsys):
    # Pre-network baselines must keep gating cleanly: the fresh network
    # points are reported as new, never failed.
    fresh = with_network(payload(standard_points()), [net_point(64)])
    baseline = payload(standard_points())
    assert run_gate(tmp_path, fresh, baseline) == 0
    out = capsys.readouterr().out
    assert "new network point 64 clients" in out


def test_network_decision_divergence_fails(tmp_path, capsys):
    fresh = with_network(
        payload(standard_points()), [net_point(64, admitted=60, rejected=4)]
    )
    baseline = with_network(payload(standard_points()), [net_point(64)])
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "decisions diverged" in capsys.readouterr().out


def test_network_p95_growth_beyond_tolerance_fails(tmp_path, capsys):
    # 60% latency growth > the 50% band (anchors equal, so normalization
    # is the identity here).
    fresh = with_network(payload(standard_points()), [net_point(64, p95_ms=32.0)])
    baseline = with_network(payload(standard_points()), [net_point(64, p95_ms=20.0)])
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "p95 latency grew" in capsys.readouterr().out


def test_network_p95_growth_within_tolerance_passes(tmp_path):
    fresh = with_network(payload(standard_points()), [net_point(64, p95_ms=28.0)])
    baseline = with_network(payload(standard_points()), [net_point(64, p95_ms=20.0)])
    assert run_gate(tmp_path, fresh, baseline) == 0


def test_network_p95_normalized_by_machine_speed(tmp_path):
    # The fresh run's p95 doubled — but its anchor throughput halved too,
    # so the machine is simply slower and the normalized latency is flat.
    fresh = with_network(
        payload(standard_points(anchor=50.0, sharded=100.0)),
        [net_point(64, p95_ms=40.0, txn_per_s=150.0)],
    )
    baseline = with_network(
        payload(standard_points(anchor=100.0, sharded=200.0)),
        [net_point(64, p95_ms=20.0, txn_per_s=300.0)],
    )
    assert run_gate(tmp_path, fresh, baseline) == 0


def test_network_throughput_regression_fails(tmp_path, capsys):
    fresh = with_network(
        payload(standard_points()), [net_point(64, txn_per_s=150.0)]
    )
    baseline = with_network(
        payload(standard_points()), [net_point(64, txn_per_s=300.0)]
    )
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "throughput regressed" in capsys.readouterr().out


def test_network_scale_mismatch_fails(tmp_path, capsys):
    fresh = with_network(payload(standard_points()), [net_point(64)], scale="smoke")
    baseline = with_network(
        payload(standard_points()), [net_point(64)], scale="default"
    )
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "network scale mismatch" in capsys.readouterr().out


def test_network_workload_mismatch_fails(tmp_path, capsys):
    other = dict(NET_WORKLOAD, num_flights=99)
    fresh = with_network(
        payload(standard_points()), [net_point(64, workload=other)]
    )
    baseline = with_network(payload(standard_points()), [net_point(64)])
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "workload mismatch" in capsys.readouterr().out


def test_network_points_count_toward_require_points(tmp_path):
    fresh = with_network(payload(standard_points()), [net_point(64)])
    baseline = with_network(payload(standard_points()), [net_point(64)])
    assert run_gate(tmp_path, fresh, baseline, "--require-points", "4") == 0
    assert run_gate(tmp_path, fresh, baseline, "--require-points", "5") == 1


def test_unknown_keys_do_not_trip_identity_or_comparison(tmp_path):
    # Future fields in both sections — per-point or per-file — must be
    # ignored: the format can grow without invalidating old baselines.
    def decorate(data: dict) -> dict:
        for result in data["results"]:
            result["p999_ms"] = 1.0
            result["flux_capacitance"] = "1.21GW"
        for result in data["network"]["results"]:
            result["jitter_ms"] = 0.5
        data["someday"] = {"more": "sections"}
        return data

    fresh = decorate(
        with_network(payload(standard_points()), [net_point(64)])
    )
    baseline = with_network(payload(standard_points()), [net_point(64)])
    assert run_gate(tmp_path, fresh, baseline) == 0
    assert run_gate(tmp_path, baseline, fresh) == 0


def test_absolute_mode_compares_raw_network_numbers(tmp_path, capsys):
    # No anchors anywhere: --absolute still gates the network points on
    # their raw milliseconds and txn/s.
    fresh = with_network(
        payload([point(4, "thread", False, 200.0)]),
        [net_point(64, p95_ms=50.0)],
    )
    baseline = with_network(
        payload([point(4, "thread", False, 200.0)]),
        [net_point(64, p95_ms=20.0)],
    )
    assert run_gate(tmp_path, fresh, baseline, "--absolute") == 1
    assert "p95 latency grew" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Durability points: segmented-WAL recovery benchmark
# ---------------------------------------------------------------------------


def dur_point(
    store_rows: int = 4000,
    churn_rows: int = 100,
    *,
    checkpoints: int = 7,
    recovery_ms: float = 40.0,
    delta_pause_ms: float = 1.5,
    legacy_pause_ms: float = 30.0,
    bytes_reclaimed: int = 500_000,
) -> dict:
    return {
        "store_rows": store_rows,
        "churn_rows": churn_rows,
        "checkpoints": checkpoints,
        "recovery_ms": recovery_ms,
        "max_delta_pause_ms": delta_pause_ms,
        "base_pause_ms": legacy_pause_ms,
        "legacy_pause_ms": legacy_pause_ms,
        "bytes_reclaimed": bytes_reclaimed,
        "segments_sealed": 10,
        "compactions": 8,
    }


def with_durability(base: dict, points: list[dict], *, scale: str = "default") -> dict:
    data = dict(base)
    data["durability"] = {"scale": scale, "results": points}
    return data


def test_durability_clean_comparison(tmp_path, capsys):
    fresh = with_durability(payload(standard_points()), [dur_point()])
    baseline = with_durability(payload(standard_points()), [dur_point()])
    assert run_gate(tmp_path, fresh, baseline) == 0
    assert "1 durability points" in capsys.readouterr().out


def test_durability_section_absent_from_baseline_is_a_note(tmp_path, capsys):
    # Pre-engine baselines must keep gating cleanly: the fresh durability
    # point is reported as new, never failed.
    fresh = with_durability(payload(standard_points()), [dur_point()])
    baseline = payload(standard_points())
    assert run_gate(tmp_path, fresh, baseline) == 0
    assert "new durability point (4000, 100)" in capsys.readouterr().out


def test_durability_shape_divergence_fails(tmp_path, capsys):
    fresh = with_durability(payload(standard_points()), [dur_point(checkpoints=9)])
    baseline = with_durability(payload(standard_points()), [dur_point()])
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "run shape diverged" in capsys.readouterr().out


def test_durability_recovery_time_growth_beyond_tolerance_fails(tmp_path, capsys):
    fresh = with_durability(
        payload(standard_points()), [dur_point(recovery_ms=64.0)]
    )
    baseline = with_durability(
        payload(standard_points()), [dur_point(recovery_ms=40.0)]
    )
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "recovery time grew" in capsys.readouterr().out


def test_durability_pause_growth_beyond_tolerance_fails(tmp_path, capsys):
    # The fresh pause clears the noise floor (half the 30ms legacy fold),
    # so the relative band applies — and +67% fails it.
    fresh = with_durability(
        payload(standard_points()), [dur_point(delta_pause_ms=20.0)]
    )
    baseline = with_durability(
        payload(standard_points()), [dur_point(delta_pause_ms=12.0)]
    )
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "max delta checkpoint pause grew" in capsys.readouterr().out


def test_durability_subfloor_pause_growth_is_noise(tmp_path, capsys):
    # A ~1ms pause tripling is one delayed scheduling slice, not a
    # regression: below the noise floor the relative band never fires,
    # whichever run happened to be committed as the baseline.
    fresh = with_durability(
        payload(standard_points()), [dur_point(delta_pause_ms=4.0)]
    )
    baseline = with_durability(
        payload(standard_points()), [dur_point(delta_pause_ms=1.0)]
    )
    assert run_gate(tmp_path, fresh, baseline) == 0
    assert "scheduling-noise floor" in capsys.readouterr().out


def test_durability_pause_floor_scales_with_legacy_fold(tmp_path, capsys):
    # The floor is half the same run's legacy full-snapshot pause: a
    # pause that still undercuts the fold 2.5x keeps the engine's
    # pause-proportional-to-churn claim, however it compares to a
    # baseline recorded on a quieter box.
    fresh = with_durability(
        payload(standard_points()),
        [dur_point(delta_pause_ms=40.0, legacy_pause_ms=100.0)],
    )
    baseline = with_durability(
        payload(standard_points()),
        [dur_point(delta_pause_ms=10.0, legacy_pause_ms=100.0)],
    )
    assert run_gate(tmp_path, fresh, baseline) == 0
    assert "scheduling-noise floor" in capsys.readouterr().out


def test_durability_pause_floor_is_raw_not_normalized(tmp_path, capsys):
    # The floor is an absolute raw-milliseconds statement about scheduling
    # jitter: a doubled anchor throughput doubles the normalized pause on
    # top of the raw tripling (+500% normalized), but 3ms raw is still
    # one delayed scheduling slice, so it passes as noise.
    fresh = with_durability(
        payload(standard_points(anchor=200.0, sharded=400.0)),
        [dur_point(recovery_ms=20.0, delta_pause_ms=3.0)],
    )
    baseline = with_durability(
        payload(standard_points(anchor=100.0, sharded=200.0)),
        [dur_point(recovery_ms=40.0, delta_pause_ms=1.0)],
    )
    assert run_gate(tmp_path, fresh, baseline) == 0
    assert "scheduling-noise floor" in capsys.readouterr().out


def test_durability_pause_above_floor_reengages_band(tmp_path, capsys):
    # Drifting back toward the legacy full-snapshot fold clears the floor
    # and the band fails it, even while still below the legacy pause.
    fresh = with_durability(
        payload(standard_points()), [dur_point(delta_pause_ms=20.0)]
    )
    baseline = with_durability(
        payload(standard_points()), [dur_point(delta_pause_ms=1.5)]
    )
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "max delta checkpoint pause grew" in capsys.readouterr().out


def test_durability_growth_within_tolerance_passes(tmp_path):
    fresh = with_durability(
        payload(standard_points()),
        [dur_point(recovery_ms=55.0, delta_pause_ms=2.0)],
    )
    baseline = with_durability(
        payload(standard_points()),
        [dur_point(recovery_ms=40.0, delta_pause_ms=1.5)],
    )
    assert run_gate(tmp_path, fresh, baseline) == 0


def test_durability_normalized_by_machine_speed(tmp_path):
    # Recovery took twice as long — on a machine whose anchor throughput
    # halved.  Normalized, nothing regressed.
    fresh = with_durability(
        payload(standard_points(anchor=50.0, sharded=100.0)),
        [dur_point(recovery_ms=80.0, delta_pause_ms=3.0)],
    )
    baseline = with_durability(
        payload(standard_points(anchor=100.0, sharded=200.0)),
        [dur_point(recovery_ms=40.0, delta_pause_ms=1.5)],
    )
    assert run_gate(tmp_path, fresh, baseline) == 0


def test_durability_delta_pause_must_beat_legacy_fold(tmp_path, capsys):
    # Even with an identical baseline, a fresh run whose delta pause
    # reaches the legacy full-snapshot pause fails: the engine's whole
    # point is the pause being proportional to churn, not store size.
    degenerate = dur_point(delta_pause_ms=30.0, legacy_pause_ms=30.0)
    fresh = with_durability(payload(standard_points()), [degenerate])
    baseline = with_durability(payload(standard_points()), [degenerate])
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "not below the legacy full-snapshot pause" in capsys.readouterr().out


def test_durability_zero_reclaim_fails(tmp_path, capsys):
    broken = dur_point(bytes_reclaimed=0)
    fresh = with_durability(payload(standard_points()), [broken])
    baseline = with_durability(payload(standard_points()), [dur_point()])
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "compaction reclaimed no bytes" in capsys.readouterr().out


def test_durability_scale_mismatch_fails(tmp_path, capsys):
    fresh = with_durability(
        payload(standard_points()), [dur_point()], scale="default"
    )
    baseline = with_durability(
        payload(standard_points()), [dur_point()], scale="paper"
    )
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "durability scale mismatch" in capsys.readouterr().out


def test_durability_points_count_toward_require_points(tmp_path):
    fresh = with_durability(payload(standard_points()), [dur_point()])
    baseline = with_durability(payload(standard_points()), [dur_point()])
    assert run_gate(tmp_path, fresh, baseline, "--require-points", "4") == 0
    assert run_gate(tmp_path, fresh, baseline, "--require-points", "5") == 1


def test_durability_absolute_mode_compares_raw_milliseconds(tmp_path, capsys):
    fresh = with_durability(
        payload([point(4, "thread", False, 200.0)]),
        [dur_point(recovery_ms=100.0)],
    )
    baseline = with_durability(
        payload([point(4, "thread", False, 200.0)]),
        [dur_point(recovery_ms=40.0)],
    )
    assert run_gate(tmp_path, fresh, baseline, "--absolute") == 1
    assert "recovery time grew" in capsys.readouterr().out


def windowed_dur_point(**overrides) -> dict:
    """A durability point carrying the window/incremental-base fields."""
    return {
        **dur_point(),
        "writer_base_folds": 1,
        "bases_synthesized": 2,
        "fsyncs_per_commit": 0.31,
        "windowed_commits": 100,
        **overrides,
    }


def test_durability_windowed_fields_clean_pass(tmp_path):
    fresh = with_durability(payload(standard_points()), [windowed_dur_point()])
    baseline = with_durability(payload(standard_points()), [dur_point()])
    assert run_gate(tmp_path, fresh, baseline) == 0


def test_durability_fsyncs_per_commit_at_one_fails(tmp_path, capsys):
    fresh = with_durability(
        payload(standard_points()), [windowed_dur_point(fsyncs_per_commit=1.0)]
    )
    baseline = with_durability(payload(standard_points()), [windowed_dur_point()])
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "fsyncs-per-commit" in capsys.readouterr().out


def test_durability_second_writer_fold_fails(tmp_path, capsys):
    fresh = with_durability(
        payload(standard_points()), [windowed_dur_point(writer_base_folds=2)]
    )
    baseline = with_durability(payload(standard_points()), [windowed_dur_point()])
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "only the first fold may run on the writer" in capsys.readouterr().out


def test_durability_missing_synthesized_base_fails(tmp_path, capsys):
    fresh = with_durability(
        payload(standard_points()), [windowed_dur_point(bases_synthesized=0)]
    )
    baseline = with_durability(payload(standard_points()), [windowed_dur_point()])
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "no base was synthesized" in capsys.readouterr().out


def test_durability_structural_claims_gate_without_baseline(tmp_path, capsys):
    # Like the search structural claims, these hold on every fresh run —
    # even against a pre-window baseline with no durability section.
    fresh = with_durability(
        payload(standard_points()), [windowed_dur_point(fsyncs_per_commit=1.4)]
    )
    baseline = payload(standard_points())
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "group-fsync window stopped batching" in capsys.readouterr().out


def test_durability_legacy_points_without_fields_still_pass(tmp_path):
    # Old-format points (no window fields) must keep gating exactly as
    # before: the structural claims only arm when the fields are present.
    fresh = with_durability(payload(standard_points()), [dur_point()])
    baseline = with_durability(payload(standard_points()), [windowed_dur_point()])
    assert run_gate(tmp_path, fresh, baseline) == 0


# ---------------------------------------------------------------------------
# Search points: admission-search strategy benchmark
# ---------------------------------------------------------------------------


def search_point(
    num_flights: int = 16,
    rows_per_flight: int = 4,
    *,
    admitted: int = 192,
    rejected: int = 0,
    nodes_ratio: float = 0.2,
    decisions_match: bool = True,
    fastpath_hit_rate: float = 0.10,
    sampled_admission_ms: float = 15.0,
    backtracking_search_ms: float | None = 40.0,
    bnb_search_ms: float | None = 36.0,
) -> dict:
    wall = {}
    if backtracking_search_ms is not None:
        wall["backtracking_search_ms"] = backtracking_search_ms
    if bnb_search_ms is not None:
        wall["bnb_search_ms"] = bnb_search_ms
    return {
        **wall,
        "num_flights": num_flights,
        "rows_per_flight": rows_per_flight,
        "transactions": admitted + rejected,
        "admitted": admitted,
        "rejected": rejected,
        "decisions_match": decisions_match,
        "backtracking_nodes": 1000,
        "bnb_nodes": int(1000 * nodes_ratio),
        "nodes_ratio": nodes_ratio,
        "fastpath_hits": 20,
        "fastpath_hit_rate": fastpath_hit_rate,
        "sampled_admissions": 4,
        "sampled_admission_ms": sampled_admission_ms,
    }


def with_search(base: dict, points: list[dict], *, scale: str = "default") -> dict:
    data = dict(base)
    data["search"] = {"scale": scale, "results": points}
    return data


def test_search_clean_comparison(tmp_path, capsys):
    fresh = with_search(payload(standard_points()), [search_point()])
    baseline = with_search(payload(standard_points()), [search_point()])
    assert run_gate(tmp_path, fresh, baseline) == 0
    assert "1 search points" in capsys.readouterr().out


def test_search_section_absent_from_baseline_is_a_note(tmp_path, capsys):
    # Pre-subsystem baselines must keep gating cleanly: the fresh search
    # point is reported as new, never failed.
    fresh = with_search(payload(standard_points()), [search_point()])
    baseline = payload(standard_points())
    assert run_gate(tmp_path, fresh, baseline) == 0
    assert "new search point (16, 4)" in capsys.readouterr().out


def test_search_nodes_ratio_bound_is_structural(tmp_path, capsys):
    # A ratio above the bound fails even against an identical baseline —
    # and even with no baseline section at all: the bound is the PR's
    # acceptance bar, not a relative noise band.
    degenerate = search_point(nodes_ratio=0.6)
    fresh = with_search(payload(standard_points()), [degenerate])
    baseline = with_search(payload(standard_points()), [degenerate])
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "exceeds the 0.5 bound" in capsys.readouterr().out
    assert run_gate(tmp_path, fresh, payload(standard_points())) == 1


def test_search_decision_mismatch_is_structural(tmp_path, capsys):
    broken = search_point(decisions_match=False)
    fresh = with_search(payload(standard_points()), [broken])
    baseline = with_search(payload(standard_points()), [broken])
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "decisions diverged" in capsys.readouterr().out


def test_search_decision_counters_gate_strictly(tmp_path, capsys):
    fresh = with_search(
        payload(standard_points()), [search_point(admitted=191, rejected=1)]
    )
    baseline = with_search(payload(standard_points()), [search_point()])
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "decisions diverged" in capsys.readouterr().out


def test_search_fastpath_rate_collapse_fails(tmp_path, capsys):
    fresh = with_search(
        payload(standard_points()), [search_point(fastpath_hit_rate=0.05)]
    )
    baseline = with_search(
        payload(standard_points()), [search_point(fastpath_hit_rate=0.10)]
    )
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "fastpath hit rate dropped" in capsys.readouterr().out


def test_search_sampled_latency_growth_beyond_tolerance_fails(tmp_path, capsys):
    fresh = with_search(
        payload(standard_points()), [search_point(sampled_admission_ms=24.0)]
    )
    baseline = with_search(
        payload(standard_points()), [search_point(sampled_admission_ms=15.0)]
    )
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "sampled-admission latency grew" in capsys.readouterr().out


def test_search_sampled_latency_normalized_by_machine_speed(tmp_path):
    # Latency doubled on a machine whose anchor throughput halved:
    # normalized, nothing regressed.
    fresh = with_search(
        payload(standard_points(anchor=50.0, sharded=100.0)),
        [search_point(sampled_admission_ms=30.0)],
    )
    baseline = with_search(
        payload(standard_points(anchor=100.0, sharded=200.0)),
        [search_point(sampled_admission_ms=15.0)],
    )
    assert run_gate(tmp_path, fresh, baseline) == 0


def test_search_scale_mismatch_fails(tmp_path, capsys):
    fresh = with_search(payload(standard_points()), [search_point()], scale="default")
    baseline = with_search(payload(standard_points()), [search_point()], scale="paper")
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "search scale mismatch" in capsys.readouterr().out


def test_search_points_count_toward_require_points(tmp_path):
    fresh = with_search(payload(standard_points()), [search_point()])
    baseline = with_search(payload(standard_points()), [search_point()])
    assert run_gate(tmp_path, fresh, baseline, "--require-points", "4") == 0
    assert run_gate(tmp_path, fresh, baseline, "--require-points", "5") == 1


def test_search_absolute_mode_compares_raw_milliseconds(tmp_path, capsys):
    fresh = with_search(
        payload([point(4, "thread", False, 200.0)]),
        [search_point(sampled_admission_ms=40.0)],
    )
    baseline = with_search(
        payload([point(4, "thread", False, 200.0)]),
        [search_point(sampled_admission_ms=15.0)],
    )
    assert run_gate(tmp_path, fresh, baseline, "--absolute") == 1
    assert "sampled-admission latency grew" in capsys.readouterr().out


def test_search_bnb_slower_than_backtracking_is_structural(tmp_path, capsys):
    # The regression the node ratio cannot see: bnb counts a fifth of the
    # nodes and still takes 1.4x the wall time.  Fails against an identical
    # baseline and with no baseline section at all.
    slow = search_point(backtracking_search_ms=40.0, bnb_search_ms=56.0)
    fresh = with_search(payload(standard_points()), [slow])
    baseline = with_search(payload(standard_points()), [slow])
    assert run_gate(tmp_path, fresh, baseline) == 1
    assert "bnb search wall time is 40.0% above" in capsys.readouterr().out
    assert run_gate(tmp_path, fresh, payload(standard_points())) == 1


def test_search_bnb_within_tolerance_of_backtracking_passes(tmp_path):
    noisy = search_point(backtracking_search_ms=40.0, bnb_search_ms=48.0)
    fresh = with_search(payload(standard_points()), [noisy])
    baseline = with_search(payload(standard_points()), [search_point()])
    assert run_gate(tmp_path, fresh, baseline) == 0


def test_search_wall_time_growth_against_baseline_fails(tmp_path, capsys):
    # Both strategies got 2x slower on the same machine speed: bnb still
    # beats backtracking, but the search itself regressed.
    fresh = with_search(
        payload(standard_points()),
        [search_point(backtracking_search_ms=80.0, bnb_search_ms=72.0)],
    )
    baseline = with_search(payload(standard_points()), [search_point()])
    assert run_gate(tmp_path, fresh, baseline) == 1
    out = capsys.readouterr().out
    assert "backtracking search wall time grew" in out
    assert "bnb search wall time grew" in out


def test_search_wall_time_absent_from_baseline_is_not_compared(tmp_path):
    # Baselines written before the wall-time point existed keep gating.
    fresh = with_search(payload(standard_points()), [search_point()])
    baseline = with_search(
        payload(standard_points()),
        [search_point(backtracking_search_ms=None, bnb_search_ms=None)],
    )
    assert run_gate(tmp_path, fresh, baseline) == 0
