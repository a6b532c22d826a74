"""The verdict rule of ``scripts/bench_pair.py`` (choosing-metrics §8)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
