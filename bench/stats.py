"""Sample statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Sequence

#: A percentile is only reported with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (``0 < pct < 100``).

    Raises ``ValueError`` when fewer than ``MIN_SAMPLES_BEYOND`` samples
    lie beyond the percentile: a p99 of 500 samples is set by five
    requests and repeats poorly.
    """
    _require_backing(len(samples), pct)
    return _nearest_rank(samples, pct)


def _require_backing(count: int, pct: float) -> None:
    if not 0 < pct < 100:
        raise ValueError("pct must lie strictly between 0 and 100")
    beyond = count * min(pct, 100 - pct) / 100
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{pct:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"{count} samples leave {beyond:.1f}"
        )


def _nearest_rank(samples: Sequence[float], pct: float) -> float:
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, -(-len(ordered) * pct // 100) - 1))
    return ordered[int(rank)]


def percentile_over_rounds(rounds: Sequence[Sequence[float]], pct: float) -> float:
    """The median over rounds of each round's percentile.

    A burst of noise (a stalled host, a garbage collection) in one round
    would own the top percent of the pooled samples; it cannot move the
    median of the rounds.  The samples of all rounds together must back
    the percentile.
    """
    _require_backing(sum(len(samples) for samples in rounds), pct)
    return statistics.median(_nearest_rank(samples, pct) for samples in rounds)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
