"""Every public configuration type, re-exported from one module.

The system is configured through a small family of frozen, validated
dataclasses that grew up in their home subpackages — the quantum database
core, the server, the network listener, the durability engine, and the
admission-search subsystem.  Applications that compose several of them
(which is the normal case: a served database wants at least a
:class:`QuantumConfig` and a :class:`ServerConfig`) previously had to
know the package layout; this module flattens it::

    from repro.configs import (
        AdmissionSearchConfig,
        QuantumConfig,
        ServerConfig,
    )

    qdb_config = QuantumConfig(
        k=8,
        search=AdmissionSearchConfig(node_budget=10_000),
    )

Every config validates eagerly in ``__post_init__`` — a typo fails at
construction time, not at first use:

>>> from repro.configs import AdmissionSearchConfig
>>> AdmissionSearchConfig(node_budget=True)
Traceback (most recent call last):
    ...
repro.errors.QuantumError: node_budget must be a positive int or None, got True

The full set, by origin:

* :class:`QuantumConfig` (:mod:`repro.core.quantum_database`) — the
  quantum database itself: ``k`` bound, serializability, the witness
  cache, and the admission search's bounds.
* :class:`AdmissionSearchConfig` / :class:`SamplingConfig`
  (:mod:`repro.solver.strategy`) — the node budget of the one exact
  admission search, and the sampling estimator, a strict opt-in.
* :class:`ServerConfig` / :class:`CheckpointPolicy`
  (:mod:`repro.server.service`) — the asyncio session layer: queue and
  quota bounds, background checkpoint cadence, durability.
* :class:`NetConfig` (:mod:`repro.server.net`) — the framed TCP listener:
  bind address, frame size bound, drain timeout.
* :class:`DurabilityConfig` (:mod:`repro.storage`) — the log-structured
  durability engine: segment size, delta-checkpoint cadence, compaction.
* :class:`PlannerConfig` (:mod:`repro.relational.planner`) — the
  extensional store's join planner (the MySQL-61-table-limit analogue).
"""

from __future__ import annotations

from repro.core.quantum_database import QuantumConfig
from repro.relational.planner import PlannerConfig
from repro.server.net import NetConfig
from repro.server.service import CheckpointPolicy, ServerConfig
from repro.solver.strategy import AdmissionSearchConfig, SamplingConfig
from repro.storage import DurabilityConfig

__all__ = [
    "AdmissionSearchConfig",
    "CheckpointPolicy",
    "DurabilityConfig",
    "NetConfig",
    "PlannerConfig",
    "QuantumConfig",
    "SamplingConfig",
    "ServerConfig",
]
