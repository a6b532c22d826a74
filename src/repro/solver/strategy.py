"""Admission-search configuration: the ``AdmissionSearchConfig`` API.

A frozen, validated config nested in ``QuantumConfig`` (following the
``DurabilityConfig`` precedent):

>>> AdmissionSearchConfig(node_budget=10_000).node_budget
10000

Admission runs one exact search, the paper's ``LIMIT 1`` probe: the
search kernel's (:mod:`repro.solver.kernel`) traversal, called from
``SolutionCache.ensure``.  The config only bounds it: ``node_budget``
caps the nodes of every admission search, and running out is a typed
rejection, never a wrong accept.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QuantumError


@dataclass(frozen=True)
class AdmissionSearchConfig:
    """How admission searches for groundings of composed bodies.

    Attributes:
        node_budget: optional cap on search nodes per find; exhausting it
            surfaces as a typed outcome (``AdmissionSearchExhausted``, a
            ``TransactionRejected`` subclass) instead of an unbounded
            stall.  ``None`` means unbounded.
    """

    node_budget: int | None = None

    def __post_init__(self) -> None:
        budget = self.node_budget
        # ``True`` is an int but not a count.
        if budget is not None and (
            not isinstance(budget, int) or isinstance(budget, bool) or budget < 1
        ):
            raise QuantumError(
                f"node_budget must be a positive int or None, got {budget!r}"
            )
