"""Span recorder: self-time arithmetic and clean installation."""

import threading

from bench import spans
from bench.spans import Span


def span(sid, parent, name, start, end, thread=1, phase="measure", payload=None):
    return Span(sid, parent, name, thread, start, end, phase, payload)


def test_self_time_subtracts_direct_children_only():
    recorded = [
        span(0, -1, "outer", 0.0, 10.0),
        span(1, 0, "child", 1.0, 4.0),
        span(2, 1, "grandchild", 2.0, 3.0),
        span(3, 0, "child", 5.0, 7.0),
        # Another thread overlaps `outer` in time but is not its child.
        span(4, -1, "background", 0.0, 9.0, thread=2),
    ]
    own = spans.self_times(recorded)
    assert own == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 9.0}
    summary = spans.summarize(recorded, "measure")
    assert summary["child"].count == 2
    assert summary["child"].total == 5.0
    assert summary["child"].self_time == 4.0
    assert summary["child"].longest == 3.0
    assert summary["outer"].self_time == 5.0


def test_summarize_selects_by_phase_but_subtracts_every_child():
    recorded = [
        span(0, -1, "outer", 0.0, 4.0, phase="recover"),
        span(1, 0, "inner", 1.0, 2.0, phase="recover"),
        span(2, -1, "outer", 5.0, 6.0, phase="measure"),
    ]
    assert spans.summarize(recorded, "recover")["outer"].self_time == 3.0
    assert spans.summarize(recorded, "measure")["outer"].count == 1


class Subject:
    def outer(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2


TARGETS = (
    spans.Target("test", f"{__name__}:Subject", "outer"),
    spans.Target("test", f"{__name__}:Subject", "inner",
                 after=lambda _obj, result, _entered: result),
)


def test_wrappers_nest_per_thread_and_are_removed_again():
    originals = (Subject.__dict__["outer"], Subject.__dict__["inner"])
    recorder = spans.SpanRecorder()
    with spans.install(recorder, TARGETS):
        assert len(spans.installed(TARGETS)) == 2
        recorder.phase = "measure"
        assert Subject().outer(3) == 7
        worker = threading.Thread(target=Subject().inner, args=(5,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert (Subject.__dict__["outer"], Subject.__dict__["inner"]) == originals
    assert spans.installed(TARGETS) == []
    inner, outer, other = recorder.spans
    assert (inner.name, outer.name) == ("Subject.inner", "Subject.outer")
    assert inner.parent == outer.id and outer.parent == -1
    assert inner.payload == 6 and outer.payload is None
    assert other.parent == -1 and other.thread != outer.thread
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_a_span_keeps_the_phase_it_started_in():
    recorder = spans.SpanRecorder()
    started, release = threading.Event(), threading.Event()

    class Background:
        def compact(self):
            started.set()
            return release.wait(timeout=10)

    target = spans.Target("test", f"{__name__}:Subject", "inner")
    wrapped = recorder.wrap("Background.compact", Background.compact, target)
    recorder.phase = "measure"
    worker = threading.Thread(target=wrapped, args=(Background(),))
    worker.start()
    assert started.wait(timeout=10)
    recorder.phase = "after"
    release.set()
    worker.join(timeout=10)
    assert not worker.is_alive()
    (crossing,) = recorder.spans
    assert crossing.phase == "measure"
    assert spans.summarize(recorder.spans, "measure")["Background.compact"].count == 1
    assert "Background.compact" not in spans.summarize(recorder.spans, "after")


def test_wrappers_are_removed_when_the_body_raises():
    recorder = spans.SpanRecorder()
    try:
        with spans.install(recorder, TARGETS):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert spans.installed(TARGETS) == []
