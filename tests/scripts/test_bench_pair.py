"""The verdict rule of ``scripts/bench_pair.py`` (choosing-metrics §8)."""

from __future__ import annotations

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "bench_pair", REPO_ROOT / "scripts" / "bench_pair.py"
)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def judge(change, *, higher=True, bound=0.25, base=BASE):
    return bench_pair.verdict(base, change, higher_is_better=higher, bound=bound)


def test_gain_needs_nine_of_ten_pairs_and_medians_beyond_the_base_spread():
    assert judge([b * 1.3 for b in BASE]) == ("gain", 10, 0)
    # Nine wins of ten still claim it...
    nine = [b * 1.3 for b in BASE[:9]] + [BASE[9] * 0.9]
    assert judge(nine) == ("gain", 9, 1)
    # ...eight do not, however large the median shift.
    eight = [b * 1.3 for b in BASE[:8]] + [b * 0.9 for b in BASE[8:]]
    assert judge(eight)[0] == "no change"
    # Winning every pair by less than the base's own quartile distance is
    # not a gain either.
    assert judge([b + 0.5 for b in BASE]) == ("no change", 10, 0)


def test_ties_count_for_neither_side():
    ties = [b * 1.3 for b in BASE[:8]] + BASE[8:]
    outcome, won, lost = judge(ties)
    assert (won, lost) == (8, 0)
    assert outcome == "no change"


def test_lower_is_better_metrics_flip_the_direction():
    assert judge([b * 0.7 for b in BASE], higher=False) == ("gain", 10, 0)
    assert judge([b * 1.3 for b in BASE], higher=False)[0] == "REGRESSION"


def test_regression_is_a_median_worse_by_more_than_the_bound():
    assert judge([b * 0.7 for b in BASE])[0] == "REGRESSION"
    assert judge([b * 0.8 for b in BASE])[0] == "no change"  # within 25 %
    assert judge([b * 0.8 for b in BASE], bound=0.1)[0] == "REGRESSION"


def test_worse_median_inside_a_base_spread_wider_than_the_bound_is_unresolved():
    noisy_base = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    slightly_worse = [b * 0.97 for b in noisy_base]
    assert judge(slightly_worse, base=noisy_base, bound=0.1)[0] == "unresolved"
    assert judge(slightly_worse, base=noisy_base, bound=0.5)[0] == "no change"


def test_quartiles_are_inclusive_and_handle_a_single_run():
    assert bench_pair.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert bench_pair.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_contract_command_is_the_untraced_contract_form():
    contract = {"command": ["python3", "-m", "bench", "run"]}
    assert bench_pair.contract_command(contract, "book_batch", 7) == [
        "python3", "-m", "bench", "run",
        "--workload", "book_batch", "--seed", "7", "--trace", "0",
    ]  # fmt: skip


CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "metric", CONTRACT["end_to_end"], ids=[m["name"] for m in CONTRACT["end_to_end"]]
)
def test_each_contract_metric_is_judged_in_its_own_direction(metric):
    higher = metric["better"] == "higher"
    worse = 1.0 - 2 * metric["bound"] if higher else 1.0 + 2 * metric["bound"]
    better = 1.0 + 2 * metric["bound"] if higher else 1.0 - 2 * metric["bound"]
    judged = functools.partial(judge, higher=higher, bound=metric["bound"])
    assert judged(BASE)[0] == "no change"
    assert judged([b * worse for b in BASE])[0] == "REGRESSION"
    assert judged([b * better for b in BASE]) == ("gain", 10, 0)


def result(value, *, correct=True, failed=0, exit_code=0):
    """One run's parsed output, every end-to-end metric at ``value``."""
    return {
        "correct": correct, "failed": failed, "attempted": 10,
        "exit_code": exit_code,
        "metrics": {m["name"]: {"value": value} for m in CONTRACT["end_to_end"]},
    }  # fmt: skip


@pytest.fixture
def fake_runs(monkeypatch):
    """Replace the contract runs: record them, answer from ``outcome``."""
    calls = []
    outcome = {"base": result(1.0), "change": result(1.0)}

    def run_once(checkout, command):
        side = "base" if checkout != REPO_ROOT else "change"
        calls.append((side, command[command.index("--seed") + 1]))
        return dict(outcome[side])

    monkeypatch.setattr(bench_pair, "run_once", run_once)
    return calls, outcome


def test_pairs_share_a_seed_and_alternate_which_side_runs_first(fake_runs, tmp_path):
    calls, _ = fake_runs
    argv = ["--base-dir", str(tmp_path), "--workload", "book_batch",
            "--pairs", "3", "--seed", "5"]  # fmt: skip
    assert bench_pair.main(argv) == 0
    assert calls == [
        ("base", "5"), ("change", "5"),
        ("change", "6"), ("base", "6"),
        ("base", "7"), ("change", "7"),
    ]  # fmt: skip


@pytest.mark.parametrize(
    "change",
    [result(1.0, correct=False), result(1.0, failed=1), result(1.0, exit_code=3)],
    ids=["incorrect", "failed operation", "exit code"],
)
def test_an_incorrect_run_fails_the_comparison(change, fake_runs, tmp_path, capsys):
    _, outcome = fake_runs
    outcome["change"] = change
    argv = ["--base-dir", str(tmp_path), "--workload", "book_batch", "--pairs", "2"]
    assert bench_pair.main(argv) == 1
    out = capsys.readouterr().out
    assert "INCORRECT RUN — change side of pair 1" in out
    assert "INCORRECT RUN — change side of pair 2" in out


def test_a_regressed_metric_fails_the_comparison(fake_runs, tmp_path, capsys):
    _, outcome = fake_runs
    outcome["change"] = result(10.0)  # every lower-is-better metric ten times worse
    argv = ["--base-dir", str(tmp_path), "--workload", "book_batch", "--pairs", "2"]
    assert bench_pair.main(argv) == 1
    assert "REGRESSION" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["--workload", "book_batch"],
        ["--base", "HEAD", "--base-dir", ".", "--workload", "book_batch"],
        ["--base", "HEAD", "--workload", "book_batch", "--pairs", "0"],
        ["--base", "HEAD", "--workload", "no_such_workload"],
    ],
    ids=["no base", "two bases", "no pairs", "unknown workload"],
)
def test_main_refuses_an_ill_formed_comparison(argv, capsys):
    with pytest.raises(SystemExit) as raised:
        bench_pair.main(argv)
    assert raised.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_run_once_parses_the_last_line_and_keeps_the_exit_code(tmp_path):
    script = "import sys; print('warming up'); print('{\"correct\": true}'); sys.exit(4)"
    parsed = bench_pair.run_once(tmp_path, [sys.executable, "-c", script])
    assert parsed == {"correct": True, "exit_code": 4}


def test_run_once_refuses_a_run_without_a_result(tmp_path):
    with pytest.raises(SystemExit, match="printed no result"):
        bench_pair.run_once(tmp_path, [sys.executable, "-c", "pass"])


def test_report_notes_lost_pairs_and_is_clean_only_without_a_regression(capsys):
    # Every metric 30 % lower in nine pairs of ten: a gain on the
    # lower-is-better metrics and a regression of ops_per_s.
    runs = [(result(b), result(b * 0.7)) for b in BASE[:9]]
    runs.append((result(BASE[9]), result(BASE[9] * 1.5)))
    assert bench_pair.report(CONTRACT, runs) is False
    lines = capsys.readouterr().out.splitlines()
    verdicts = {line.split()[0]: line for line in lines[2:] if not line.startswith(" ")}
    assert "REGRESSION" in verdicts["ops_per_s"]
    assert "gain" in verdicts["op_p50_ms"]
    assert lines.count(f"{'':14s} (base won 1 of 10)") == len(verdicts) - 1
