"""``scripts/profile_workload.py``: the phase accounting and the drivers."""

from __future__ import annotations

import gc
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


def test_a_collection_is_charged_to_gc_not_to_the_phase_it_interrupts():
    # phase in, collection start, collection stop, phase out
    clock = iter([0.0, 1.0, 4.0, 10.0])
    timers = profile_workload.PhaseTimers()
    real = profile_workload.time.perf_counter
    automatic = gc.isenabled()
    gc.disable()  # only the explicit collection below may run
    profile_workload.time.perf_counter = lambda: next(clock)
    try:
        with timers.installed():
            with timers.phase("plan"):
                gc.collect()
    finally:
        profile_workload.time.perf_counter = real
        if automatic:
            gc.enable()
    assert timers.seconds == {"plan": 7.0, "gc": 3.0}
    assert timers.calls == {"plan": 1}
    assert timers.collections == [0, 0, 1]
    assert timers._on_collection not in gc.callbacks


@pytest.mark.parametrize("workload", profile_workload.WORKLOADS)
def test_a_miniature_round_runs_clean(workload, monkeypatch):
    monkeypatch.setitem(profile_workload.settings.SIZES, workload, {"flights": 4})
    timers, restart = profile_workload.PhaseTimers(), profile_workload.PhaseTimers()
    with timers.installed():
        count, failed, _elapsed, report = profile_workload.drive(
            workload, 1, timers, restart
        )
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
    # The restart from the round's log: every phase ran once (a checkpoint
    # is restored only from book_tcp's segmented log, the in-memory logs
    # hold none), one search per rebuilt partition, and the phases fit
    # inside the whole.
    assert report["restart.pending"] > 0
    assert 0 < report["restart.searches"] <= report["restart.partitions"]
    once = {"open", "replay", "decode", "rebuild", "k bound"}
    if workload == "book_tcp":
        once.add("checkpoint")
    assert restart.calls == dict.fromkeys(once, 1) | {
        "solve": report["restart.partitions"]
    }
    assert sum(restart.seconds.values()) <= report["restart.seconds"]
    # The wrappers are gone again.
    assert profile_workload.QuantumState.admit.__name__ == "admit"
    assert profile_workload.Transaction.commit.__name__ == "commit"
    assert profile_workload.QuantumState.rebuild.__name__ == "rebuild"
    assert profile_workload.relational_recovery.replay_into.__name__ == "replay_into"


def test_the_restart_table_counts_collections_by_generation(capsys):
    timers = profile_workload.PhaseTimers()
    timers.seconds["gc"] = 0.002
    timers.collections = [3, 0, 1]
    report = {
        "restart.seconds": 0.01,
        "restart.pending": 2,
        "restart.partitions": 1,
        "restart.searches": 1,
    }
    profile_workload.print_restart(report, timers)
    (row,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("gc ")]
    assert row.split()[1:3] == ["2.00", "20.0%"]
    assert row.endswith("(collections by generation: 3/0/1)")


def test_stopped_timers_charge_nothing():
    timers = profile_workload.PhaseTimers()
    timers.stopped = True
    with timers.phase("admit"):
        pass
    assert timers.seconds == {} and timers.calls == {}


def test_wrappers_are_removed_when_the_round_raises():
    timers = profile_workload.PhaseTimers()
    with pytest.raises(RuntimeError):
        with timers.installed():
            assert profile_workload.QuantumState.admit.__name__ == "timed"
            raise RuntimeError
    assert profile_workload.QuantumState.admit.__name__ == "admit"
    assert profile_workload.Transaction.commit.__name__ == "commit"


@pytest.mark.parametrize("workload", ["lookup_tcp", "store_churn"])
def test_workloads_without_phases_are_refused(workload, capsys):
    with pytest.raises(SystemExit) as raised:
        profile_workload.main(["--workload", workload])
    assert raised.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_the_decisions_digest_is_reproducible_and_seed_dependent(monkeypatch):
    monkeypatch.setitem(profile_workload.settings.SIZES, "book_batch", {"flights": 4})
    digests = [
        profile_workload.drive("book_batch", seed)[3]["decisions"] for seed in (1, 1, 2)
    ]
    assert digests[0] == digests[1] != digests[2]
    satisfied, _, digest = digests[0].partition("/")
    assert int(satisfied) > 0 and len(digest) == 12
