"""Admission-search configuration: the ``AdmissionSearchConfig`` API.

A frozen, validated config nested in ``QuantumConfig`` (following the
``DurabilityConfig`` precedent):

>>> config = AdmissionSearchConfig(node_budget=10_000)
>>> config.node_budget, config.sampling
(10000, None)

Admission runs one exact search, the paper's ``LIMIT 1`` probe: the
search kernel's (:mod:`repro.solver.kernel`) traversal, called from
``SolutionCache.ensure``.  The config only bounds it and opts out of it:

* ``node_budget`` caps the nodes of every admission search; running out
  is a typed rejection, never a wrong accept;
* the sampling estimator (:mod:`repro.solver.sampling`) replaces the
  full solve of an oversized partition only when an explicit
  :class:`SamplingConfig` is present — never silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QuantumError


def _is_int(value: object) -> bool:
    """An ``int`` that is not a ``bool`` (``True`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SamplingConfig:
    """Opt-in approximate admission for partitions too large to search.

    Attributes:
        threshold: minimum number of relational atoms in the solved
            formula (the composed body plus the new factor) before the
            estimator replaces the exact full solve.  Smaller partitions
            always search exactly.
        samples: number of seeded greedy descents per admission; the
            estimator accepts only when a descent reaches a *verified*
            complete grounding, so sampling can produce false negatives
            but never a false accept.
        seed: RNG seed; a fresh ``random.Random(seed)`` per admission
            keeps decisions deterministic across runs.
    """

    threshold: int = 12
    samples: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not _is_int(self.threshold) or self.threshold < 1:
            raise QuantumError(
                f"sampling threshold must be a positive int, got {self.threshold!r}"
            )
        if not _is_int(self.samples) or self.samples < 1:
            raise QuantumError(
                f"sampling samples must be a positive int, got {self.samples!r}"
            )
        if not _is_int(self.seed):
            raise QuantumError(f"sampling seed must be an int, got {self.seed!r}")


@dataclass(frozen=True)
class AdmissionSearchConfig:
    """How admission searches for groundings of composed bodies.

    Attributes:
        node_budget: optional cap on search nodes per find; exhausting it
            surfaces as a typed outcome (``AdmissionSearchExhausted``, a
            ``TransactionRejected`` subclass) instead of an unbounded
            stall.  ``None`` means unbounded.
        sampling: the approximate-admission estimator; ``None`` (default)
            disables it — sampling never engages without this explicit
            opt-in.
    """

    node_budget: int | None = None
    sampling: SamplingConfig | None = None

    def __post_init__(self) -> None:
        if self.node_budget is not None and (
            not _is_int(self.node_budget) or self.node_budget < 1
        ):
            raise QuantumError(
                f"node_budget must be a positive int or None, got {self.node_budget!r}"
            )
        if self.sampling is not None and not isinstance(self.sampling, SamplingConfig):
            raise QuantumError(
                f"sampling must be a SamplingConfig or None, got {self.sampling!r}"
            )
