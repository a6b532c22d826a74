"""Reproduction of "Quantum Databases" (Roy, Kot, Koch — CIDR 2013).

A quantum database defers the choices made by transactions until an
application or user forces them by observation: resource transactions
commit without concrete value assignments, the system keeps the set of
possible worlds non-empty through unification-based composition and
satisfiability checks, and reads collapse exactly the uncertainty they
touch.

Admission runs on an *incremental fast path*: each partition's composed
body is maintained factor-by-factor, and a per-partition witness (the last
satisfying substitution together with the extensional rows it grounds on)
lets the system skip re-verifying the composed body entirely until a write
actually touches one of those rows.  ``QuantumDatabase.commit_batch``
submits a sequence of resource transactions with one composition pass per
partition and one durability write for the whole batch;
``QuantumDatabase.cache_statistics`` / ``statistics_report()`` expose the
witness-cache counters (hits, misses, invalidations, fallback searches)
that the benchmarks report.  Set ``QuantumConfig(witness_cache=False)`` to
measure the non-cached path — accept/reject decisions are identical either
way.

Concurrent clients are served by the asyncio session layer
(:mod:`repro.server`): a :class:`~repro.server.QuantumServer` funnels every
commit through a single-writer admission queue (group-committing
concurrent arrivals, so decisions are identical to the synchronous path in
the same arrival order) and answers every other operation at once, between
two writer steps; each client gets a :class:`~repro.server.Session`
with its own transaction stream, run one operation at a time (a session
commit returns the same :class:`CommitResult` as
:meth:`QuantumDatabase.execute`), and
grounding results are delivered as awaitable futures
(``session.on_grounding(...)``).  :class:`~repro.server.NetworkServer`
serves a database over framed TCP through that layer.  Graceful
shutdown drains the queue, flushes the WAL and folds it into a snapshot
checkpoint so crash recovery stays bounded.

The two synchronous entry points applications start from:

* :class:`QuantumConfig` — ``k`` (pending bound per partition),
  ``strategy`` (forced-grounding victim order), ``serializability``
  (STRICT/SEMANTIC), ``ground_on_partner_arrival``, ``witness_cache``
  (the fast-path toggle; decisions are identical either way) and
  ``search`` (the :class:`AdmissionSearchConfig`: a node budget for the
  one exact admission search).  Every config type is exported here; a
  read picks its semantics per call (``read(..., mode=ReadMode.PEEK)``,
  COLLAPSE by default)::

      qdb = QuantumDatabase(config=QuantumConfig(k=8, witness_cache=True))

* :meth:`QuantumDatabase.statistics_report` — every counter the system
  maintains, flattened to ``section.counter`` keys (``state.admitted``,
  ``cache.witness_hits``, ``search.nodes``, ...); the server variant
  :meth:`~repro.server.QuantumServer.statistics_report` adds a
  ``server.*`` section (queue depth, group-commit sizes, cancellations)::

      report = qdb.statistics_report()
      report["cache.witness_hits"]   # fast-path admissions

The top-level package re-exports the names most applications need; the
subpackages are:

* :mod:`repro.core` — the quantum database middle tier (the paper's
  contribution);
* :mod:`repro.server` — the asyncio session layer for concurrent clients;
* :mod:`repro.sharding` — names the repository benchmark still wraps
  (the partition manager and the admission entry point under their old
  sharded names); nothing is sharded any more;
* :mod:`repro.relational` — the extensional store substrate (replacing the
  paper's MySQL), including the WAL with group commit and checkpoints;
* :mod:`repro.logic` — terms, atoms, unification and composed-body
  formulas;
* :mod:`repro.solver` — the grounding search kernel and its node budget;
* :mod:`repro.baselines` — the paper's "intelligent social" baseline;
* :mod:`repro.workloads` — flight databases, arrival orders, and the
  entangled / mixed workloads of the evaluation section;
* :mod:`repro.experiments` — harnesses regenerating every table and figure.

See the repository ``README.md`` for a quickstart and
``docs/architecture.md`` for the admission flow and session model.
"""

from repro.core.entanglement import (
    EntangledResourceTransaction,
    make_adjacent_seat_request,
)
from repro.core.grounding_policy import GroundingPolicy, GroundingStrategy
from repro.core.parser import format_transaction, parse_transaction
from repro.core.quantum_database import CommitResult, QuantumConfig, QuantumDatabase
from repro.core.reads import ReadMode, ReadRequest
from repro.core.resource_transaction import ResourceTransaction
from repro.core.serializability import SerializabilityMode
from repro.core.solution_cache import SolutionCacheStatistics
from repro.errors import (
    ProtocolError,
    QuantumError,
    ReproError,
    TenantBackpressure,
    WriteRejected,
)
from repro.relational.database import Database
from repro.relational.wal import WriteAheadLog
from repro.server import (
    CheckpointPolicy,
    NetClient,
    NetConfig,
    NetworkServer,
    QuantumServer,
    ServerConfig,
    Session,
    serve,
)
from repro.solver.strategy import AdmissionSearchConfig
from repro.storage import DurabilityConfig, SegmentedWriteAheadLog

__all__ = [
    "AdmissionSearchConfig",
    "CheckpointPolicy",
    "CommitResult",
    "Database",
    "DurabilityConfig",
    "EntangledResourceTransaction",
    "GroundingPolicy",
    "GroundingStrategy",
    "NetClient",
    "NetConfig",
    "NetworkServer",
    "ProtocolError",
    "QuantumConfig",
    "QuantumDatabase",
    "QuantumError",
    "QuantumServer",
    "ReadMode",
    "ReadRequest",
    "ReproError",
    "ResourceTransaction",
    "SegmentedWriteAheadLog",
    "SerializabilityMode",
    "ServerConfig",
    "Session",
    "SolutionCacheStatistics",
    "TenantBackpressure",
    "WriteAheadLog",
    "WriteRejected",
    "format_transaction",
    "make_adjacent_seat_request",
    "parse_transaction",
    "serve",
]
