"""Serializability modes for deferred grounding (Sections 2 and 3.2.3).

When a pending transaction ``Ti`` must be grounded (because of a read, a
check-in, or the arrival of its coordination partner), the system has two
options:

* **STRICT** (classical, arrival-order serializability): ground and execute
  every pending transaction that arrived before ``Ti`` in its partition,
  then ``Ti`` itself.  The transactions are serialized exactly in commit
  order, but values are fixed earlier than necessary, shrinking the space of
  future possible worlds.

* **SEMANTIC** (the paper's preferred mode): try to move ``Ti`` to the front
  of the partition's serialization order.  The paper's "practical strategy
  is to check only the ordering where the transaction under consideration is
  moved to the front of the current ordering"; if the reordered composed
  body is still satisfiable over the current database, only ``Ti`` is
  grounded now and everything else stays pending.  If the reorder check
  fails, the system falls back to the strict prefix.

:func:`grounding_plan` computes which pending transactions must be grounded
and in which order, given the mode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partition import Partition
    from repro.core.quantum_state import PendingTransaction


class SerializabilityMode(enum.Enum):
    """Serializability guarantee for deferred grounding."""

    STRICT = "STRICT"
    SEMANTIC = "SEMANTIC"


@dataclass(frozen=True)
class GroundingPlan:
    """The outcome of planning a grounding request.

    Attributes:
        to_ground: pending transactions to ground now, in execution order.
        remaining_order: the serialization order of the transactions that
            stay pending afterwards.
        reordered: True when the semantic mode successfully moved the target
            transactions ahead of earlier arrivals.
    """

    to_ground: tuple["PendingTransaction", ...]
    remaining_order: tuple["PendingTransaction", ...]
    reordered: bool = False


def strict_plan(
    partition: "Partition", targets: Sequence["PendingTransaction"]
) -> GroundingPlan:
    """Arrival-order plan: ground every transaction up to the latest target."""
    if not targets:
        return GroundingPlan((), tuple(partition.pending), False)
    ordered = list(partition.pending)
    last_index = max(ordered.index(t) for t in targets)
    prefix = tuple(ordered[: last_index + 1])
    rest = tuple(ordered[last_index + 1 :])
    return GroundingPlan(prefix, rest, False)


def semantic_plan(
    partition: "Partition",
    targets: Sequence["PendingTransaction"],
    accept_reorder: Callable[[Sequence["PendingTransaction"]], bool],
) -> GroundingPlan:
    """Front-of-order plan with a satisfiability check, else strict fallback.

    Args:
        partition: the partition being grounded.
        targets: the transactions that must be grounded now.
        accept_reorder: callback receiving a candidate serialization order
            (targets first, then the rest in arrival order) and returning
            whether its composed body is satisfiable over the current
            database.  Called at most once, and only when the targets are
            not already the head of the order; a caller that composes the
            candidate to check it keeps that composition for the grounding
            search when the plan comes back ``reordered``.
    """
    if not targets:
        return GroundingPlan((), tuple(partition.pending), False)
    ordered = list(partition.pending)
    target_set = {t.transaction_id for t in targets}
    fronted = [t for t in ordered if t.transaction_id in target_set]
    rest = [t for t in ordered if t.transaction_id not in target_set]
    if fronted == ordered[: len(fronted)]:
        # Targets already form the prefix: nothing to reorder.
        return GroundingPlan(tuple(fronted), tuple(rest), False)
    candidate = fronted + rest
    if accept_reorder(candidate):
        return GroundingPlan(tuple(fronted), tuple(rest), True)
    return strict_plan(partition, targets)


def grounding_plan(
    mode: SerializabilityMode,
    partition: "Partition",
    targets: Sequence["PendingTransaction"],
    accept_reorder: Callable[[Sequence["PendingTransaction"]], bool],
) -> GroundingPlan:
    """Dispatch to :func:`strict_plan` or :func:`semantic_plan` by ``mode``."""
    if mode is SerializabilityMode.STRICT:
        return strict_plan(partition, targets)
    return semantic_plan(partition, targets, accept_reorder)
