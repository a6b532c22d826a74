"""A fixed piece of work, timed while a round runs, and the scaling by it.

The reference box is a shared VM.  What the host's other guests do
changes its speed from second to second, at times by a factor of two for
minutes (README, "Noise").  So the load generator runs ``work`` on its
own thread about every ``INTERVAL_S``, between two operations, and times
it.  The work never changes; what its time does is what the machine did
to the round.  ``slowdown`` is that time over ``REFERENCE_S``, and
every time-derived end-to-end metric is the measured time divided by the
slowdown of its own round (``bench/metrics.py``).
"""

from __future__ import annotations

import statistics
import time

#: What ``work`` takes on the reference box while its host is quiet.
#: Pinned, not measured by the run: a run's own best sample moves by 10 %
#: from run to run.  Scaled times read "as on the quiet reference box".
REFERENCE_S = 0.00045

#: Seconds between two samples of a measured region, and the most taken
#: in a row after an operation longer than that (a 64-commit batch).
INTERVAL_S = 0.02
MAX_IN_A_ROW = 4

#: Samples taken in a row where a timed region starts and where it ends.
BURST = 8

#: A sample counts as at most this many times the median of its region:
#: one pre-empted sample in sixty must not pass for a slow machine.
OUTLIER = 3.0


def work() -> None:
    """About half a millisecond of dictionary, tuple and string traffic."""
    table: dict[int, tuple[int, str]] = {}
    for i in range(2400):
        table[i % 128] = (i, str(i))
        if i % 7 == 0:
            table.pop((i * 3) % 128, None)


class Sampler:
    """The reference samples of one timed region."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def _sample(self, count: int) -> None:
        for _ in range(count):
            start = time.perf_counter()
            work()
            self.samples.append(time.perf_counter() - start)
        self._last = time.perf_counter()

    def burst(self) -> None:
        self._sample(BURST)

    def tick(self, now: float) -> None:
        """Sample if ``INTERVAL_S`` has passed; call between operations."""
        due = int((now - self._last) / INTERVAL_S)
        if due >= 1:
            self._sample(min(due, MAX_IN_A_ROW))


def slowdown(samples: list[float]) -> float:
    """Mean sample, outliers capped, as a multiple of ``REFERENCE_S``."""
    cap = OUTLIER * statistics.median(samples)
    return statistics.mean(min(sample, cap) for sample in samples) / REFERENCE_S
