"""Grounding policies: when and which pending transactions to force-ground.

The semantics of quantum databases "allows the reduction of uncertainty
through grounding at any time; therefore, we keep the size of the composed
bodies small by forcibly grounding and executing some pending resource
transactions as needed.  Concretely, we ground transactions to keep the
maximum number of pending transactions in each partition below a parameter
k; when grounding, we start with the oldest transactions based on their
arrival time in the system" (Section 4).

:class:`GroundingPolicy` captures the ``k`` bound and the victim-selection
strategy.  The default matches the paper (oldest first); the newest-first
order is its ablation (``tests/experiments/test_paper_shapes.py`` measures
how much the choice matters).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import QuantumError
from repro.relational.planner import MYSQL_JOIN_LIMIT

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partition import Partition
    from repro.core.quantum_state import PendingTransaction


class GroundingStrategy(enum.Enum):
    """Victim-selection order for forced grounding, by arrival time.

    ``OLDEST_FIRST`` is the paper's order; ``NEWEST_FIRST`` is its
    ablation.
    """

    OLDEST_FIRST = "OLDEST_FIRST"
    NEWEST_FIRST = "NEWEST_FIRST"


@dataclass(frozen=True)
class GroundingPolicy:
    """Policy bounding the number of pending transactions per partition.

    Attributes:
        k: maximum number of pending transactions allowed per partition.
            The paper sweeps k over {20, 30, 40} and uses the maximum value
            61 (MySQL's join limit) for the arrival-order experiment.
        strategy: which pending transactions are grounded first when the
            bound is exceeded.
    """

    k: int = MYSQL_JOIN_LIMIT
    strategy: GroundingStrategy = GroundingStrategy.OLDEST_FIRST

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise QuantumError(
                f"the grounding bound k must be an int of at least 1, got {self.k!r}"
            )

    def victims(self, partition: "Partition") -> list["PendingTransaction"]:
        """Pending transactions that must be grounded to restore the bound.

        Returns the transactions to ground, in the order they should be
        grounded, so that at most ``k`` remain pending afterwards.  Empty
        when the partition is already within bounds.
        """
        excess = len(partition) - self.k
        if excess <= 0:
            return []
        ordered = sorted(partition.pending, key=lambda entry: entry.sequence)
        if self.strategy is GroundingStrategy.NEWEST_FIRST:
            return list(reversed(ordered[-excess:]))
        return ordered[:excess]

    def within_bound(self, partition: "Partition") -> bool:
        """True if the partition respects the ``k`` bound."""
        return len(partition) <= self.k
