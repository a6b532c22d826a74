"""Admission-search strategy selection: the ``AdmissionSearchConfig`` API.

This module is the configuration surface of the admission search — a
frozen, validated config nested in ``QuantumConfig`` (following the
``DurabilityConfig`` precedent):

>>> config = AdmissionSearchConfig(strategy="bnb", node_budget=10_000)
>>> config.strategy, config.fastpath_enabled
('bnb', True)

and the single dispatch point every execution mode funnels through:
:func:`dispatch_find_one` runs inside the pure ``compute_admission``, so
inline admission and thread lanes honor the same strategy
bit-identically.

Both strategies run the one search kernel (:mod:`repro.solver.kernel`),
so the first solution — and therefore every accept/reject decision — is
the same; they differ in what a node is and in pruning:

* ``"backtracking"`` — every interpreter step is a node, nothing is
  pruned; the default, byte-for-byte the seed behaviour.
* ``"bnb"`` — branch-and-bound accounting (only branch descents are
  nodes) plus two sound structural prunes at every choice point
  (:mod:`repro.solver.bnb`).

Per-shape fast paths (:mod:`repro.solver.fastpath`) dispatch before the
general search; they default on under ``"bnb"`` and off under
``"backtracking"`` (set ``fastpath=True``/``False`` to override).  The
opt-in sampling estimator (:mod:`repro.solver.sampling`) engages only
when an explicit :class:`SamplingConfig` is present — never silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QuantumError

#: Exact-search strategies selectable through ``AdmissionSearchConfig``.
STRATEGIES = ("backtracking", "bnb")


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
            keeps decisions deterministic across runs and across
            execution modes (inline, lanes).
    """

    threshold: int = 12
    samples: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.threshold, int) or self.threshold < 1:
            raise QuantumError(
                f"sampling threshold must be a positive int, got {self.threshold!r}"
            )
        if not isinstance(self.samples, int) or self.samples < 1:
            raise QuantumError(
                f"sampling samples must be a positive int, got {self.samples!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise QuantumError(f"sampling seed must be an int, got {self.seed!r}")


@dataclass(frozen=True)
class AdmissionSearchConfig:
    """How admission searches for groundings of composed bodies.

    Attributes:
        strategy: ``"backtracking"`` (the default; the seed accounting) or
            ``"bnb"`` (branch-and-bound accounting and prunes; identical
            decisions, fewer expanded nodes).
        node_budget: optional cap on search nodes per find; exhausting it
            surfaces as a typed outcome (``AdmissionSearchExhausted``, a
            ``TransactionRejected`` subclass) instead of an unbounded
            stall.  ``None`` means unbounded.
        fastpath: per-shape fast paths for conjunctive and existential
            bodies, tried before the general search.  ``None`` (default)
            enables them exactly when ``strategy="bnb"`` so the default
            config stays byte-identical to the seed behaviour.
        sampling: the approximate-admission estimator; ``None`` (default)
            disables it — sampling never engages without this explicit
            opt-in.
    """

    strategy: str = "backtracking"
    node_budget: int | None = None
    fastpath: bool | None = None
    sampling: SamplingConfig | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise QuantumError(
                f"unknown admission search strategy {self.strategy!r} "
                f"(expected one of {STRATEGIES})"
            )
        if self.node_budget is not None and (
            not isinstance(self.node_budget, int) or self.node_budget < 1
        ):
            raise QuantumError(
                f"node_budget must be a positive int or None, got {self.node_budget!r}"
            )
        if self.fastpath is not None and not isinstance(self.fastpath, bool):
            raise QuantumError(
                f"fastpath must be True, False or None, got {self.fastpath!r}"
            )
        if self.sampling is not None and not isinstance(self.sampling, SamplingConfig):
            raise QuantumError(
                f"sampling must be a SamplingConfig or None, got {self.sampling!r}"
            )

    @property
    def fastpath_enabled(self) -> bool:
        """Whether shape fast paths dispatch before the general search."""
        if self.fastpath is None:
            return self.strategy == "bnb"
        return self.fastpath


def dispatch_find_one(
    search,
    config: AdmissionSearchConfig | None,
    formula,
    *,
    required=None,
    initial=None,
):
    """Run one find-one under the configured strategy.

    Returns ``(GroundingResult, method)`` where ``method`` names the
    search that actually answered (``"fastpath"``, ``"bnb"`` or
    ``"backtracking"``) — the value admission surfaces on the probe and
    the wire-visible commit result.  ``config=None`` (and the default
    config) is byte-for-byte the legacy ``search.find_one`` call.

    This is deliberately the *only* place a strategy is picked: it runs
    inside the pure ``compute_admission``, so the inline writer and the
    thread lanes cannot diverge.
    """
    from repro.solver.fastpath import find_one_fastpath

    if config is None:
        return (
            search.find_one(formula, required=required, initial=initial),
            "backtracking",
        )
    # Compile once: the fast-path shape test and the general search it may
    # fall through to share the handle.
    program = search.compile(formula, required=required)
    if config.fastpath_enabled:
        result = find_one_fastpath(
            search, program, initial=initial, node_budget=config.node_budget
        )
        if result is not None:
            return result, "fastpath"
    return (
        search.find_one(
            program,
            initial=initial,
            node_budget=config.node_budget,
            strategy=config.strategy,
        ),
        config.strategy,
    )
