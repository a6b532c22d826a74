"""Grounding policies: when and which pending transactions to force-ground.

The semantics of quantum databases "allows the reduction of uncertainty
through grounding at any time; therefore, we keep the size of the composed
bodies small by forcibly grounding and executing some pending resource
transactions as needed.  Concretely, we ground transactions to keep the
maximum number of pending transactions in each partition below a parameter
k; when grounding, we start with the oldest transactions based on their
arrival time in the system" (Section 4).

:class:`GroundingPolicy` captures the ``k`` bound and the victim-selection
strategy.  The default matches the paper (oldest first); a newest-first
strategy is provided for the ablation benchmark that quantifies how much the
choice matters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import QuantumError
from repro.logic.atoms import Atom, AtomKind
from repro.logic.unification import unifiable
from repro.relational.planner import MYSQL_JOIN_LIMIT

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partition import Partition
    from repro.core.quantum_state import PendingTransaction


class GroundingStrategy(enum.Enum):
    """Victim-selection order for forced grounding.

    ``OLDEST_FIRST`` / ``NEWEST_FIRST`` are the paper's arrival-time
    orders.  ``WITNESS_AWARE`` scores each candidate victim by how many
    rows of the partition's solution footprint its update portion could
    invalidate (a delete atom that unifies with a witnessed row is a
    potential invalidation) and
    grounds the cheapest victims first, ties broken oldest-first.  Broadly
    quantified updates — "any seat" — unify with many witnessed rows and
    therefore stay pending, which keeps the flexible transactions able to
    rebind around later constant-pinned arrivals instead of freezing their
    choices early; the witness-cache fast path stays hot for longer (see
    ``tests/core/test_witness_aware_policy.py``).
    """

    OLDEST_FIRST = "OLDEST_FIRST"
    NEWEST_FIRST = "NEWEST_FIRST"
    WITNESS_AWARE = "WITNESS_AWARE"


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
        if self.k < 1:
            raise QuantumError("the grounding bound k must be at least 1")

    def victims(self, partition: "Partition") -> list["PendingTransaction"]:
        """Pending transactions that must be grounded to restore the bound.

        Returns the transactions to ground, in the order they should be
        grounded, so that at most ``k`` remain pending afterwards.  Empty
        when the partition is already within bounds.  The ``WITNESS_AWARE``
        strategy scores victims by the rows of the partition's solution
        footprint their updates could invalidate; without a footprint
        (``witness_cache=False``) it degrades to oldest-first.
        """
        excess = len(partition) - self.k
        if excess <= 0:
            return []
        ordered = sorted(partition.pending, key=lambda entry: entry.sequence)
        if self.strategy is GroundingStrategy.NEWEST_FIRST:
            return list(reversed(ordered[-excess:]))
        if self.strategy is GroundingStrategy.WITNESS_AWARE:
            witness_rows = self._witnessed_rows(partition)
            ordered.sort(
                key=lambda entry: (
                    self._invalidation_cost(entry, witness_rows),
                    entry.sequence,
                )
            )
        return ordered[:excess]

    @staticmethod
    def _witnessed_rows(partition: "Partition") -> list[Atom]:
        """The rows the partition's own solution grounds on, as ground atoms.

        Only the victim partition's record can contribute: a row in
        *another* partition's footprint is a ground instance of that
        partition's atoms, so a victim's delete unifying with it would
        make the two partitions unifiable — contradicting the partition
        independence invariant.  Scoring therefore stays O(one footprint).
        """
        solution = partition.solution
        if solution is None or solution.footprint is None:
            return []
        return [Atom.body(table, values) for table, values in solution.footprint.rows]

    @staticmethod
    def _invalidation_cost(
        entry: "PendingTransaction", witness_rows: Sequence[Atom]
    ) -> int:
        """Cached witness rows the entry's delete atoms could touch.

        A delete atom that unifies with a witnessed row *could* remove it
        when the grounding is executed; the more rows a victim's updates
        reach, the more cached fast-path state its forced grounding puts at
        risk.  (Inserts never invalidate the monotone witnesses composed
        bodies produce, so only deletes are scored.)
        """
        cost = 0
        for update in entry.renamed.updates:
            if update.kind is not AtomKind.DELETE:
                continue
            probe = update.as_body()
            for row in witness_rows:
                if unifiable(probe, row):
                    cost += 1
        return cost

    def within_bound(self, partition: "Partition") -> bool:
        """True if the partition respects the ``k`` bound."""
        return len(partition) <= self.k
