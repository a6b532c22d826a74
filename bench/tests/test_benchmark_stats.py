"""The percentile helper refuses tails the sample cannot back."""

import pytest

from bench.stats import percentile, percentile_over_rounds, quartile_spread


def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == 989


def test_p90_and_median_follow_the_same_rule():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile([5, 1, 3] * 10, 50) == 3


def test_percentile_rejects_the_ends():
    for pct in (0, 100):
        with pytest.raises(ValueError):
            percentile(list(range(5000)), pct)


def test_quartile_spread_is_relative_to_the_median():
    values = [100 + i for i in range(10)]
    assert quartile_spread(values) == pytest.approx(5.5 / 104.5)


def test_percentile_over_rounds_ignores_one_spoilt_round():
    clean = [float(i % 100) for i in range(1000)]
    spoilt = [value + 500 for value in clean]
    assert percentile_over_rounds([clean, spoilt, clean], 99) == 98
    assert percentile(clean + spoilt + clean, 99) > 500
    with pytest.raises(ValueError):
        percentile_over_rounds([clean[:300]] * 3, 99)
