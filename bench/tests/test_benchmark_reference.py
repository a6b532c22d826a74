"""The reference work is sampled when due and summarised robustly."""

import pytest

from bench import reference


def test_tick_samples_only_when_the_interval_has_passed():
    sampler = reference.Sampler()
    start = sampler._last
    sampler.tick(start + 0.5 * reference.INTERVAL_S)
    assert sampler.samples == []
    sampler.tick(start + 1.5 * reference.INTERVAL_S)
    assert len(sampler.samples) == 1
    assert sampler._last > start


def test_a_long_operation_is_followed_by_a_bounded_run_of_samples():
    sampler = reference.Sampler()
    sampler.tick(sampler._last + 100 * reference.INTERVAL_S)
    assert len(sampler.samples) == reference.MAX_IN_A_ROW
    sampler.burst()
    assert len(sampler.samples) == reference.MAX_IN_A_ROW + reference.BURST
    assert all(sample > 0 for sample in sampler.samples)


def test_slowdown_is_the_mean_sample_over_the_pinned_time():
    samples = [2 * reference.REFERENCE_S] * 50
    assert reference.slowdown(samples) == pytest.approx(2.0)


def test_one_preempted_sample_counts_as_three_medians_at_most():
    samples = [reference.REFERENCE_S] * 59 + [100 * reference.REFERENCE_S]
    assert reference.slowdown(samples) == pytest.approx((59 + 3) / 60)
