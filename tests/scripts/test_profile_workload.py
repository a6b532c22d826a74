"""``scripts/profile_workload.py``: the phase accounting and the drivers."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "profile_workload", REPO_ROOT / "scripts" / "profile_workload.py"
)
profile_workload = importlib.util.module_from_spec(_SPEC)
_path = list(sys.path)
_SPEC.loader.exec_module(profile_workload)
sys.path[:] = _path  # the script puts the checkout first; a test must not


def test_nested_phases_are_charged_once():
    clock = iter([0.0, 1.0, 4.0, 10.0])  # admit in, plan in, plan out, admit out
    timers = profile_workload.PhaseTimers()
    real = profile_workload.time.perf_counter
    profile_workload.time.perf_counter = lambda: next(clock)
    try:
        with timers.phase("admit"):
            with timers.phase("plan"):
                pass
    finally:
        profile_workload.time.perf_counter = real
    assert timers.seconds == {"plan": 3.0, "admit": 7.0}
    assert timers.calls == {"plan": 1, "admit": 1}


@pytest.mark.parametrize("workload", profile_workload.WORKLOADS)
def test_a_miniature_round_runs_clean(workload, monkeypatch):
    monkeypatch.setitem(profile_workload.settings.SIZES, workload, {"flights": 4})
    timers = profile_workload.PhaseTimers()
    with timers.installed():
        count, failed, _elapsed, report = profile_workload.drive(workload, 1, timers)
    assert failed == 0
    assert timers.calls["parse"] == timers.calls["admit"] == 48
    assert count == 48 or workload == "mixed_session"
    assert timers.calls["plan"] == timers.calls["apply"] > 0
    assert report["state.admitted"] == 48
    # The persist phase counts the store commits: one per writer operation.
    assert report["wal.records"] > 2 * timers.calls["persist"] > 0
    if workload == "book_tcp":
        # The segmented engine under the benchmark's flush policy: every
        # commit run of two bookings is one COMMIT record and one fsync.
        assert report["durability.mode"] == "segmented"
        assert timers.calls["persist"] == report["wal.fsyncs"] == 24
    else:
        assert report["wal.fsyncs"] == 0
        assert timers.calls["persist"] == 1 or workload == "mixed_session"
    # The wrappers are gone again.
    assert profile_workload.QuantumState.admit.__name__ == "admit"
    assert profile_workload.Transaction.commit.__name__ == "commit"
