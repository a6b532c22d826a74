"""An 8-flight miniature of every workload passes its output checks."""

import pytest

from bench import harness, metrics, settings, spans
from bench.workloads import WORKLOADS, Round, Workload


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_miniature_round_is_correct_traced_and_leaves_no_wrapper(name):
    scratch = set(settings.OUT_DIR.glob("wal-*"))
    recorder = spans.SpanRecorder()
    with spans.install(recorder):
        rnd = WORKLOADS[name].run_round(11, settings.MINI_SIZES[name], recorder)
    assert spans.installed() == []
    assert rnd.violations == []
    assert rnd.failed == 0 and rnd.restarts_failed == 0
    assert rnd.attempted > 0 and rnd.measure_s > 0 and rnd.setup_s > 0
    assert len(rnd.recover_s) == settings.RECOVERIES_PER_ROUND
    assert rnd.samples(WORKLOADS[name].primary) != []
    # Every timed region sampled the reference work: its bursts at both
    # ends, and the measured region also between operations.
    assert set(rnd.slowdown) == {"setup", "measure", "recover"}
    assert all(0.3 < value < 30 for value in rnd.slowdown.values())
    assert set(settings.OUT_DIR.glob("wal-*")) <= scratch

    values = metrics.per_layer([rnd], recorder.spans, metrics.ops_per_s([rnd]))
    assert list(values) != [] and set(values) == {m.name for m in metrics.PER_LAYER}
    layers = {spans.LAYER_OF[span.name] for span in recorder.spans}
    quantum = name != "store_churn"
    assert ("core" in layers) == quantum
    assert ("storage" in layers) == (name in ("book_tcp", "store_churn"))
    assert ("net" in layers) == (name in ("book_tcp", "lookup_tcp"))
    if quantum:
        assert 0 < values["core.coordinated_pct"] <= 100
    if name == "book_tcp":
        joined = [s for s in recorder.spans if s.name == "Session.commit"]
        assert joined and values["service.commit_overhead_p50_ms"] > 0


@pytest.mark.parametrize("name", ["book_batch", "mixed_session"])
def test_quality_probe_coordinates_exactly_the_pinned_share(name):
    violations, coordinated = harness.first_round(WORKLOADS[name])
    assert violations == []
    assert coordinated == settings.PINNED_COORDINATED_PCT[name]


@pytest.mark.parametrize("lost, accepted", [(0.4, True), (0.6, False)])
def test_quality_probe_tolerates_half_a_point_and_no_more(lost, accepted):
    pinned = settings.PINNED_COORDINATED_PCT["book_tcp"]

    def run_round(seed, size):
        assert (seed, size) == (settings.QUALITY_SEED, {"flights": 40})
        return Round(facts={"coordinated_pct": pinned - lost})

    workload = Workload("book_tcp", run_round, ("book",), 95, "")
    violations, _ = harness.first_round(workload)
    assert (violations == []) == accepted


def synthetic_round(slow: float) -> Round:
    """A round as a machine ``slow`` times slower than the quiet box sees it."""
    return Round(
        setup_s=0.1 * slow, measure_s=2.0 * slow, cpu_s=1.5 * slow, attempted=1000,
        latencies={"book": [0.001 * slow * (1 + i % 7) for i in range(1000)]},
        recover_s=[0.2 * slow, 0.3 * slow],
        slowdown={"setup": slow, "measure": slow, "recover": slow},
    )


def test_end_to_end_emits_every_declared_metric():
    rounds = [synthetic_round(1.0) for _ in range(3)]
    values = metrics.end_to_end(WORKLOADS["book_tcp"], rounds)
    assert list(values) == [m.name for m in metrics.END_TO_END]
    assert values["ops_per_s"] == 500
    assert values["op_p50_ms"] == pytest.approx(4.0)
    assert all(value > 0 for value in values.values())


def test_end_to_end_times_are_scaled_by_each_rounds_own_slowdown():
    quiet = metrics.end_to_end(
        WORKLOADS["book_tcp"], [synthetic_round(1.0) for _ in range(3)]
    )
    noisy = metrics.end_to_end(
        WORKLOADS["book_tcp"], [synthetic_round(slow) for slow in (1.0, 1.7, 2.4)]
    )
    for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "recover_s"):
        assert noisy[name] == pytest.approx(quiet[name]), name
