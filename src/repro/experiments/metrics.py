"""Timing and coordination metrics shared by the experiment harnesses."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class Timer:
    """A context manager measuring wall-clock time in seconds."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.elapsed = time.perf_counter() - self._start
        return False


def cumulative(series: Sequence[float]) -> list[float]:
    """Running sum of a series (the y-axis of Figure 5)."""
    total = 0.0
    result: list[float] = []
    for value in series:
        total += value
        result.append(total)
    return result


@dataclass
class RunResult:
    """Result of driving one workload against one system.

    Attributes:
        label: human-readable system/configuration name.
        op_times: per-operation wall-clock seconds, in execution order.
        coordination_percentage: percentage of the maximum possible
            coordination actually achieved (the paper's key benefit metric).
        coordinated_users: number of users seated adjacent to their partner.
        max_possible: the coordination denominator.
        max_pending: maximum number of simultaneously pending transactions
            observed (quantum runs only; 0 for baselines).
        admitted / rejected: transaction admission counters (quantum runs).
        extra: free-form additional measurements (e.g. read/update split).
    """

    label: str
    op_times: list[float] = field(default_factory=list)
    coordination_percentage: float = 0.0
    coordinated_users: int = 0
    max_possible: int = 0
    max_pending: int = 0
    admitted: int = 0
    rejected: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        """Total wall-clock time across all operations."""
        return sum(self.op_times)

    def cumulative_times(self) -> list[float]:
        """Cumulative per-operation times (Figure 5's series)."""
        return cumulative(self.op_times)

def coordination_percentage(coordinated_users: int, max_possible: int) -> float:
    """Coordination percentage with a safe zero denominator."""
    if max_possible <= 0:
        return 0.0
    return 100.0 * coordinated_users / max_possible


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty input)."""
    collected = list(values)
    return sum(collected) / len(collected) if collected else 0.0
