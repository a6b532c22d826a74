"""The QuantumDatabase facade: the library's main public API.

From the developer's perspective "the API is almost identical to the API
provided by any standard database ... the major new feature is support for
resource transactions" (Section 4).  :class:`QuantumDatabase` wraps an
extensional :class:`~repro.relational.database.Database` and adds:

* ``execute`` — submit a resource transaction (object or Datalog-like text);
  it commits without assigning values, or is rejected if no consistent
  grounding exists;
* ``read`` — ordinary reads; under the default collapse semantics a read
  forces the grounding of exactly the pending transactions it unifies with;
* ``insert`` / ``delete`` — ordinary blind writes, admission-checked against
  the pending transactions' composed bodies;
* ``ground`` / ``ground_all`` / ``check_in`` — explicit collapse, e.g. when
  the traveller shows up at the airport;
* crash recovery from the pending-transactions table (``recover``).

Typical usage::

    qdb = QuantumDatabase()
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table("Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"])
    ...
    result = qdb.execute(
        "-Available(?f, ?s), +Bookings('Mickey', ?f, ?s) :-1 Available(?f, ?s)"
    )
    assert result.committed          # Mickey has a guaranteed seat ...
    qdb.check_in(result.transaction_id)   # ... fixed only at check-in time.

Concurrent clients should go through the asyncio session layer
(:mod:`repro.server`), which serializes every mutation behind one writer
while preserving these exact semantics.  ``docs/architecture.md`` describes
the admission flow, the witness-cache fast path and the session model.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.sharding.admission_lane import AdmissionController

from repro.core.entanglement import EntanglementRegistry
from repro.core.grounding_policy import GroundingPolicy, GroundingStrategy
from repro.core.parser import parse_transaction
from repro.core.quantum_state import GroundedTransaction, QuantumState
from repro.core.reads import ReadMode, ReadRequest
from repro.core.recovery import PendingTransactionStore
from repro.core.resource_transaction import ResourceTransaction
from repro.core.serializability import SerializabilityMode
from repro.core.worlds import enumerate_possible_worlds
from repro.errors import QuantumError, TransactionRejected
from repro.relational.database import Database
from repro.relational.dml import Delete, Insert
from repro.relational.planner import MYSQL_JOIN_LIMIT, PlannerConfig
from repro.relational.schema import Column
from repro.solver.strategy import AdmissionSearchConfig


@dataclass(frozen=True)
class QuantumConfig:
    """Configuration of a quantum database.

    Attributes:
        k: maximum number of pending transactions per partition (the paper's
            ``k``; default 61, MySQL's join limit).
        strategy: forced-grounding victim order (paper default: oldest
            first).
        serializability: STRICT (arrival order) or SEMANTIC (the paper's
            preferred mode).
        read_mode: default read semantics (the paper's choice: COLLAPSE).
        ground_on_partner_arrival: ground an entangled pair as soon as both
            partners are in the system (Section 5.1's execution policy).
        witness_cache: let each partition's solution record carry the
            footprint of rows it grounds on, which powers the incremental
            admission fast path (a footprinted record is trusted until a
            delta touches it).  Disabling it reproduces the seed behaviour
            (the record is a bare substitution and every admission
            re-verifies the whole composed body); accept/reject decisions
            are identical either way, only the amount of re-search differs —
            the cache statistics (witness hits / misses / invalidations /
            fallback searches) report the difference.
        shards: number of partition shards (default 1: the plain
            exhaustive-scan partition manager).  With ``shards >= 2`` the
            database uses the :mod:`repro.sharding` subsystem: a
            signature-based routing index prefilters ``merged_for``
            candidates and partitions are owned by worker shards whose
            thread pools the grounding plan phase fans out on.  Accept/reject
            decisions are bit-identical to the unsharded path — only the
            scan work changes (the ``partitions.*`` counters report it).
        shard_workers: thread count of each shard's plan executor.  On a
            sharded database grounding plans always run on these (the
            session layer's shared ``executor_workers`` pool is bypassed).
        shard_backend: the shard executor; only ``"thread"`` is accepted
            (per-shard thread pools sharing the writer's heap).  The
            process backend was removed: it never beat threads on any
            measured workload.  Kept so configurations that name the
            backend explicitly still build.
        admission_lanes: enable the router-first concurrent admission
            pipeline (:mod:`repro.sharding.admission_lane`): batched
            admissions are classified at enqueue time and single-shard
            arrivals run on per-shard admission lanes — one writer per
            shard instead of one global writer — while cross-shard
            arrivals act as epoch barriers that drain every lane and run
            serialized.  Decisions, partition contents and grounding
            valuations are bit-identical to the serialized writer for
            every arrival sequence (the linearization harness in
            ``tests/sharding`` proves it over seeded streams); only the
            scheduling changes.  Requires ``shards >= 2`` to have any
            effect; the ``admission.*`` counters report lane traffic.
        lane_queue_depth: bound of each admission lane's queue; dispatches
            beyond it wait (backpressure) up to the dispatch timeout.
        lane_dispatch_timeout_s: how long a dispatch may wait on a full
            lane queue before the typed
            :class:`~repro.errors.AdmissionLaneSaturated` fires (the
            controller then escalates the arrival to an epoch barrier).
        search: the admission-search strategy
            (:class:`~repro.solver.strategy.AdmissionSearchConfig`).  The
            default reproduces the seed's plain backtracking search
            byte-for-byte; ``strategy="bnb"`` switches every admission to
            the trail-based branch-and-bound searcher with per-shape fast
            paths, and an explicit
            :class:`~repro.solver.strategy.SamplingConfig` opts huge
            partitions into the approximate estimator.  Dispatch lives
            inside the pure ``compute_admission``, so inline admission and
            thread lanes honor the strategy bit-identically.
        planner: join-planner settings for the underlying store.
    """

    k: int = MYSQL_JOIN_LIMIT
    strategy: GroundingStrategy = GroundingStrategy.OLDEST_FIRST
    serializability: SerializabilityMode = SerializabilityMode.SEMANTIC
    read_mode: ReadMode = ReadMode.COLLAPSE
    ground_on_partner_arrival: bool = True
    witness_cache: bool = True
    shards: int = 1
    shard_workers: int = 1
    shard_backend: str = "thread"
    admission_lanes: bool = False
    lane_queue_depth: int = 256
    lane_dispatch_timeout_s: float = 5.0
    search: AdmissionSearchConfig = field(default_factory=AdmissionSearchConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise QuantumError("QuantumConfig.shards must be at least 1")
        if self.shard_workers < 1:
            raise QuantumError("QuantumConfig.shard_workers must be at least 1")
        if self.lane_queue_depth < 1:
            raise QuantumError("QuantumConfig.lane_queue_depth must be at least 1")
        if self.lane_dispatch_timeout_s <= 0:
            raise QuantumError(
                "QuantumConfig.lane_dispatch_timeout_s must be positive"
            )
        if self.shard_backend != "thread":
            raise QuantumError(
                f"shard backend {self.shard_backend!r} was removed; threads "
                "are the only shard executor (shard_backend='thread')"
            )

    def policy(self) -> GroundingPolicy:
        """The grounding policy implied by this configuration."""
        return GroundingPolicy(k=self.k, strategy=self.strategy)

    def partition_manager(self):
        """The partition manager implied by this configuration.

        ``shards == 1`` keeps the plain exhaustive-scan manager;
        ``shards >= 2`` builds a
        :class:`~repro.sharding.ShardedPartitionManager` (signature-routed
        admission, per-shard grounding-plan thread pools).
        """
        if self.shards == 1:
            return None
        from repro.sharding import ShardedPartitionManager

        return ShardedPartitionManager(
            self.shards, workers_per_shard=self.shard_workers
        )


@dataclass
class CommitResult:
    """Outcome of submitting a resource transaction.

    The commit notification "represents a guarantee that the transaction
    will achieve its goal of booking a seat when value assignment actually
    happens" — so ``committed=True`` means the application never needs to
    check back.

    Attributes:
        transaction: the submitted transaction.
        committed: True if the transaction was admitted.
        pending: True if its values are still deferred (False when it was
            grounded immediately, e.g. by partner arrival or the k bound).
        grounded: transactions whose values were fixed as a side effect of
            this submission (partner pairs, forced groundings).
        rejection_reason: populated when ``committed`` is False.
        method: which admission search decided this submission —
            ``"witness"``, ``"fastpath"``, ``"backtracking"``, ``"bnb"``,
            or ``"sampled"`` (see
            :class:`~repro.core.solution_cache.AdmissionProbe`).
        exact: False only when the decision came from the opt-in sampling
            estimator; an approximate accept still carries a genuine
            witness, an approximate reject may be a false negative.
    """

    transaction: ResourceTransaction
    committed: bool
    pending: bool = False
    grounded: tuple[GroundedTransaction, ...] = ()
    rejection_reason: str | None = None
    method: str = "backtracking"
    exact: bool = True

    @property
    def transaction_id(self) -> int:
        """Id of the submitted transaction."""
        return self.transaction.transaction_id

    def __bool__(self) -> bool:
        return self.committed


class QuantumDatabase:
    """A quantum database: an extensional store plus a quantum state."""

    def __init__(
        self,
        database: Database | None = None,
        config: QuantumConfig | None = None,
    ) -> None:
        self.config = config or QuantumConfig()
        self.database = database or Database(self.config.planner)
        self.pending_store = PendingTransactionStore(self.database)
        self.entanglement = EntanglementRegistry()
        self.state = QuantumState(
            self.database,
            policy=self.config.policy(),
            serializability=self.config.serializability,
            on_grounded=self._handle_grounded,
            pending_store=self.pending_store,
            witness_cache=self.config.witness_cache,
            partitions=self.config.partition_manager(),
            search_config=self.config.search,
        )
        # The lane-parallel admission controller (lazily created; only with
        # admission_lanes=True on a sharded database).
        self._admission: "AdmissionController | None" = None
        self._admission_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Schema and extensional passthrough
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Column | str],
        key: Sequence[str] | None = None,
        *,
        indexes: Sequence[Sequence[str]] = (),
    ):
        """Create a table in the extensional store."""
        return self.database.create_table(name, columns, key, indexes=indexes)

    def table(self, name: str):
        """Access a table of the extensional store directly (read-only use)."""
        return self.database.table(name)

    # ------------------------------------------------------------------
    # Ordinary (non-resource) writes
    # ------------------------------------------------------------------

    def insert(self, table: str, values: Sequence[Any] | Mapping[str, Any]) -> None:
        """Blind insert, checked against the pending transactions.

        Raises:
            WriteRejected: if the insert would invalidate a pending
                transaction's guarantee.
        """
        self.state.validate_write([Insert(table, tuple(values) if not isinstance(values, Mapping) else values)])

    def delete(self, table: str, values: Sequence[Any] | Mapping[str, Any]) -> None:
        """Blind delete, checked against the pending transactions.

        Raises:
            WriteRejected: if the delete would invalidate a pending
                transaction's guarantee.
        """
        self.state.validate_write([Delete(table, tuple(values) if not isinstance(values, Mapping) else values)])

    def load_rows(self, table: str, rows: Iterable[Sequence[Any]]) -> None:
        """Bulk-load initial data without write checks (setup convenience)."""
        deltas = []
        with self.database.begin() as txn:
            for values in rows:
                row = txn.insert(table, values)
                deltas.append((table, row.values, False))
        # Inserts cannot invalidate a monotone witness, but keep the cache
        # informed so the invariant holds even for exotic formulas.
        self.state.cache.notify_deltas(deltas, self.state.partitions)

    # ------------------------------------------------------------------
    # Resource transactions
    # ------------------------------------------------------------------

    def execute(
        self, transaction: ResourceTransaction | str, **parse_kwargs: Any
    ) -> CommitResult:
        """Submit a resource transaction (object or Datalog-like text).

        The transaction commits *without* assigning values; the commit is a
        guarantee that a suitable assignment will exist whenever it is
        forced.  If no consistent grounding exists the transaction is
        rejected (``committed=False``) rather than raising, mirroring how an
        application would experience an abort.
        """
        if isinstance(transaction, str):
            transaction = parse_transaction(transaction, **parse_kwargs)
        with self.database.unit as unit:
            result, sequence = self._admit_for_batch(transaction)
            if result.pending:
                assert sequence is not None
                self.pending_store.persist_many(
                    ((transaction, sequence),), unit.transaction()
                )
        return result

    def commit_batch(
        self,
        transactions: Sequence[ResourceTransaction | str],
        **parse_kwargs: Any,
    ) -> list[CommitResult]:
        """Submit a sequence of resource transactions as one batch.

        Semantically equivalent to calling :meth:`execute` on each element in
        order (admission order matters; a rejected transaction is skipped and
        later ones still run), but cheaper:

        * admission rides the incremental fast path — each partition's
          composed body grows factor-by-factor, so the batch costs one
          composition pass per partition instead of one recomposition per
          transaction;
        * durability is batched — the batch is one store transaction: the
          updates of everything it grounded, the deletion of their
          pending-table rows and the rows of every transaction still pending
          at its end share one WAL commit record (and one fsync).

        With ``QuantumConfig(admission_lanes=True)`` on a sharded database
        the batch runs through the router-first concurrent admission
        pipeline instead of the serialized loop: arrivals are classified at
        enqueue time, single-shard ones run on per-shard admission lanes,
        cross-shard ones act as epoch barriers — with decisions, partition
        contents and grounding valuations bit-identical to the serialized
        loop for the same arrival order.  The lanes' groundings join the same
        store transaction (their writes are serialised by the store guard).

        Returns:
            One :class:`CommitResult` per submitted transaction, in order.
        """
        parsed: list[ResourceTransaction] = [
            parse_transaction(t, **parse_kwargs) if isinstance(t, str) else t
            for t in transactions
        ]
        results: list[CommitResult] = []
        admitted: list[tuple[ResourceTransaction, int]] = []
        controller = self.admission_controller() if len(parsed) > 1 else None
        with self.database.unit as unit:
            if controller is not None:
                results, sequences = controller.commit_many(parsed)
                admitted = [
                    (transaction, sequence)
                    for transaction, sequence, result in zip(
                        parsed, sequences, results
                    )
                    if result.committed
                ]
            else:
                for transaction in parsed:
                    result, sequence = self._admit_for_batch(transaction)
                    results.append(result)
                    if result.committed:
                        assert sequence is not None
                        admitted.append((transaction, sequence))
            still_pending = [
                (transaction, sequence)
                for transaction, sequence in admitted
                if self.state.is_pending(transaction.transaction_id)
            ]
            if still_pending:
                self.pending_store.persist_many(still_pending, unit.transaction())
        self.state.statistics.batches += 1
        self.state.statistics.batch_transactions += len(parsed)
        return results

    def _admit_for_batch(
        self,
        transaction: ResourceTransaction,
        *,
        sequence: int | None = None,
        renamed: ResourceTransaction | None = None,
    ) -> tuple[CommitResult, int | None]:
        """Admit one batch element (shared by :meth:`execute`, the serial
        loop, the admission lanes, and the epoch barriers).

        Returns ``(result, sequence)`` — the sequence is ``None`` for a
        rejected transaction.  The one place a ``CommitResult`` is stamped
        with its decision's provenance, read off what ``admit`` hands back.
        The caller owns the operation's store transaction (it has entered
        ``database.unit``): groundings triggered here — by the ``k`` bound or
        a partner's arrival — write through it, and the caller adds the rows
        of the admissions still pending at the end of its batch before the
        unit commits.
        """
        try:
            entry = self.state.admit(transaction, sequence=sequence, renamed=renamed)
        except TransactionRejected as exc:
            return (
                CommitResult(
                    transaction=transaction,
                    committed=False,
                    rejection_reason=str(exc),
                    method=exc.method,
                    exact=exc.exact,
                ),
                None,
            )
        grounded: list[GroundedTransaction] = []
        # Forced groundings triggered by the k bound have already fired via
        # the on_grounded callback; collect the one involving this call.
        if not self.state.is_pending(transaction.transaction_id):
            record = self.state.grounded_results.get(transaction.transaction_id)
            if record is not None:
                grounded.append(record)
        match = self.entanglement.register(transaction)
        if match is not None and self.config.ground_on_partner_arrival:
            grounded.extend(self.state.ground(match.transaction_ids()))
        return (
            CommitResult(
                transaction=transaction,
                committed=True,
                pending=self.state.is_pending(transaction.transaction_id),
                grounded=tuple(grounded),
                method=entry.method,
                exact=entry.exact,
            ),
            entry.sequence,
        )

    def admission_controller(self) -> "AdmissionController | None":
        """The lane-parallel admission controller (created on first use).

        ``None`` unless ``QuantumConfig(admission_lanes=True)`` *and* the
        database is sharded.  A controller closed by :meth:`close` is
        replaced lazily, mirroring the shard executors' restart-on-use
        behaviour.
        """
        if not (self.config.admission_lanes and self.sharded):
            return None
        with self._admission_lock:
            controller = self._admission
            if controller is None or controller.closed:
                from repro.sharding.admission_lane import AdmissionController

                controller = AdmissionController(
                    self,
                    self.state.partitions,
                    queue_depth=self.config.lane_queue_depth,
                    dispatch_timeout_s=self.config.lane_dispatch_timeout_s,
                )
                self._admission = controller
            return controller

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read(
        self,
        request: ReadRequest | str,
        terms: Sequence[Any] | None = None,
        *,
        mode: ReadMode | None = None,
        select: Sequence[str] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Answer a read query.

        Accepts either a :class:`ReadRequest` or a relation name plus terms
        (shorthand for a single-atom read).  The read mode defaults to the
        configured one (COLLAPSE): pending transactions whose updates unify
        with the read are grounded first, then the query is answered over
        the extensional store, giving ordinary read-repeatability.
        """
        if isinstance(request, str):
            if terms is None:
                raise QuantumError("read(relation, terms) requires the terms argument")
            request = ReadRequest.single(
                request, terms, select=select, limit=limit,
                mode=mode or self.config.read_mode,
            )
        effective_mode = mode or request.mode
        if effective_mode is ReadMode.COLLAPSE:
            affected = self.state.affected_by_read(request.atoms)
            if affected:
                with self.database.unit:
                    self.state.ground([entry.transaction_id for entry in affected])
            return self.database.execute(request.to_query()).bindings
        if effective_mode is ReadMode.PEEK:
            return self._peek(request)
        return self._expose_all(request)

    def _peek(self, request: ReadRequest) -> list[dict[str, Any]]:
        """Answer over one possible world without collapsing anything."""
        world = self.database.copy()
        for partition in self.state.partitions:
            solution = self.state.cache.ensure(partition).substitution
            if solution is None:
                continue
            for entry in partition:
                for statement in entry.renamed.ground_updates(solution):
                    world.apply(statement)
        return world.execute(request.to_query()).bindings

    def _expose_all(self, request: ReadRequest) -> list[dict[str, Any]]:
        """Answer across all possible worlds, annotating answers with support."""
        pending = [entry.original for entry in self.state.pending_transactions()]
        worlds = enumerate_possible_worlds(self.database, pending)
        counts: dict[tuple, dict[str, Any]] = {}
        support: dict[tuple, int] = {}
        for world in worlds:
            world_db = self.database.copy()
            world_db.restore(dict(world.snapshot))
            for binding in world_db.execute(request.to_query()).bindings:
                key = tuple(sorted(binding.items()))
                counts[key] = binding
                support[key] = support.get(key, 0) + 1
        results = []
        for key, binding in counts.items():
            annotated = dict(binding)
            annotated["_worlds"] = support[key]
            results.append(annotated)
        return results

    # ------------------------------------------------------------------
    # Explicit grounding
    # ------------------------------------------------------------------

    def ground(
        self,
        transaction_ids: Iterable[int],
        *,
        executor: Executor | None = None,
        timeout_s: float | None = None,
    ) -> list[GroundedTransaction]:
        """Fix the value assignments of specific pending transactions.

        When ``executor`` is given and the ids span several partitions, the
        read-only grounding searches run concurrently on it (partition
        independence makes the plans commute); the mutating apply phase
        stays serial.  The session layer passes its executor here.
        ``timeout_s`` bounds the wait on each fanned-out plan future (see
        :class:`~repro.errors.GroundingTimeout`); a hung worker then costs
        one exception instead of wedging the caller.
        """
        with self.database.unit:
            return self.state.ground(
                transaction_ids, executor=executor, timeout_s=timeout_s
            )

    def ground_all(
        self,
        *,
        executor: Executor | None = None,
        timeout_s: float | None = None,
    ) -> list[GroundedTransaction]:
        """Fix every pending transaction (e.g. at the end of a booking day)."""
        with self.database.unit:
            return self.state.ground_all(executor=executor, timeout_s=timeout_s)

    def check_in(self, transaction_id: int) -> GroundedTransaction | None:
        """Collapse one transaction and return its assignment.

        Named after the running example: Mickey checking in for his flight
        is the moment his seat must become concrete.  Returns the grounded
        record (possibly from an earlier grounding) or ``None`` for unknown
        ids.
        """
        if self.state.is_pending(transaction_id):
            with self.database.unit:
                self.state.ground([transaction_id])
        return self.state.grounded_results.get(transaction_id)

    def assignment_of(self, transaction_id: int) -> dict[str, Any] | None:
        """The fixed valuation of a grounded transaction, if it has one."""
        record = self.state.grounded_results.get(transaction_id)
        return dict(record.valuation) if record is not None else None

    # ------------------------------------------------------------------
    # Introspection and reporting
    # ------------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Number of committed transactions still awaiting grounding."""
        return self.state.pending_count()

    @property
    def sharded(self) -> bool:
        """True when partition execution is sharded (``shards >= 2``)."""
        return self.config.shards > 1

    def close(self) -> None:
        """Release executor resources (lanes and shard workers), if any.

        Idempotent and optional — the admission lanes and shard executors
        are created lazily and a database that never used them holds no
        threads — but benchmarks and servers that cycle through many
        databases should call it.  Closing lanes first lets them finish
        anything still queued (no admission is abandoned half-way), then
        the shard executors are joined.
        """
        with self._admission_lock:
            controller = self._admission
        if controller is not None:
            # Kept (closed) for statistics reporting; admission_controller()
            # replaces a closed controller lazily on the next batch.
            controller.close()
        close = getattr(self.state.partitions, "close", None)
        if close is not None:
            close()

    @property
    def statistics(self):
        """The quantum state's counters (admissions, groundings, ...)."""
        return self.state.statistics

    @property
    def cache_statistics(self):
        """The solution cache's counters (witness hits, fallbacks, ...).

        On the serial paths this is the live shared counter object (tests
        hold it across operations and watch it move).  Once admission
        lanes have recorded into per-lane slices, the live object alone
        would undercount nearly all witness traffic, so a reconciled
        snapshot (shared + every lane slice) is returned instead —
        matching ``statistics_report()``'s ``cache.*`` section.
        """
        cache = self.state.cache
        if cache.has_lane_statistics():
            return cache.merged_statistics()
        return cache.statistics

    def statistics_report(self) -> dict[str, Any]:
        """Every counter the system maintains, flattened for benchmarks.

        Combines the quantum-state, solution-cache, partition,
        grounding-search and store-transaction statistics into one
        ``section.counter`` → value mapping, so experiment harnesses can diff
        configurations (e.g. witness cache on vs. off) without reaching into
        internals.
        """
        report: dict[str, Any] = {}
        # The cache section reconciles the per-lane witness-statistics
        # slices with the shared counters (exact under concurrent lanes).
        cache_statistics = self.state.cache.merged_statistics()
        sections = {
            "state": self.state.statistics,
            "cache": cache_statistics,
            "partitions": self.state.partitions.statistics,
            "search": self.state.cache.search.totals,
            # Where the store transactions behind the operations end:
            # commits, aborts and the WAL records they appended.
            "store": self.database.statistics,
        }
        for section, stats in sections.items():
            for name, value in vars(stats).items():
                report[f"{section}.{name}"] = value
        report["cache.composed_body_passes"] = (
            cache_statistics.composed_body_passes()
        )
        report["search.searches"] = self.state.cache.search.searches
        index = getattr(self.state.partitions, "index", None)
        if index is not None:
            for name, value in vars(index.statistics).items():
                report[f"routing.{name}"] = value
            report["routing.shards"] = self.state.partitions.shard_count
        if self.config.admission_lanes and self.sharded:
            from repro.sharding.admission_lane import AdmissionStatistics

            controller = self._admission
            admission = (
                controller.statistics
                if controller is not None
                else AdmissionStatistics(lanes=self.config.shards)
            )
            for name, value in vars(admission).items():
                report[f"admission.{name}"] = value
        # Durability: segmented engines report their own counters
        # (segments sealed, compactions, bytes reclaimed, checkpoint
        # pauses, fsyncs); the legacy monolithic log reports its
        # checkpoint pause and — when a FileWalSink is attached — the
        # group-commit flush/fsync counts that used to be invisible.
        wal = self.database.wal
        durability = getattr(wal, "durability_statistics", None)
        if callable(durability):
            for name, value in durability().items():
                report[f"durability.{name}"] = value
        else:
            report["durability.mode"] = "legacy"
            report["durability.checkpoint_pause_ms"] = getattr(
                wal, "max_checkpoint_pause_ms", 0.0
            )
            sink = getattr(wal, "sink", None)
            if sink is not None and hasattr(sink, "flushes"):
                report["durability.flushes"] = sink.flushes
                report["durability.fsyncs"] = getattr(sink, "fsyncs", 0)
        return report

    def coordination_report(self) -> dict[str, float]:
        """Summary of coordination success among grounded entangled requests.

        Returns a dict with ``requests`` (grounded transactions that had
        optional coordination atoms), ``coordinated`` (those whose optional
        atoms were all satisfied) and ``percentage``.
        """
        grounded = [
            record
            for record in self.state.grounded_results.values()
            if record.transaction.optional_body
        ]
        coordinated = sum(1 for record in grounded if record.coordinated)
        total = len(grounded)
        return {
            "requests": float(total),
            "coordinated": float(coordinated),
            "percentage": (100.0 * coordinated / total) if total else 0.0,
        }

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Checkpoint the store's WAL: snapshot the state, drop the replay tail.

        After this call crash recovery restores the snapshot carried by the
        checkpoint record and replays only later records, so recovery work
        stays bounded no matter how long the server has been running.  The
        pending-transactions table is part of the snapshot, so pending
        resource transactions survive exactly as before.
        """
        self.database.checkpoint()

    @classmethod
    def recover(
        cls, database: Database, config: QuantumConfig | None = None
    ) -> "QuantumDatabase":
        """Rebuild the in-memory quantum state after a crash.

        ``database`` is the extensional store as restored by the relational
        recovery path (WAL replay); the pending-transactions table it
        contains drives the reconstruction: every persisted transaction is
        re-admitted in its original sequence order, rebuilding partitions,
        composed bodies and the solution cache.

        Raises:
            QuantumRecoveryError: if a persisted transaction cannot be
                restored or can no longer be satisfied (which would indicate
                the crash interrupted an atomicity guarantee).
        """
        quantum = cls(database, config)
        restored = quantum.pending_store.restore()
        # Re-admission under a smaller ``k`` than the crashed instance ran
        # with forces groundings; they are one store transaction too.
        with database.unit:
            for sequence, transaction in restored:
                try:
                    quantum.state.admit(transaction, sequence=sequence)
                except TransactionRejected as exc:
                    from repro.errors import QuantumRecoveryError

                    raise QuantumRecoveryError(
                        f"pending transaction #{transaction.transaction_id} is "
                        f"no longer satisfiable after recovery: {exc}"
                    ) from exc
                quantum.entanglement.register(transaction)
        return quantum

    # ------------------------------------------------------------------
    # Internal hooks
    # ------------------------------------------------------------------

    def _handle_grounded(self, record: GroundedTransaction) -> None:
        """Housekeeping when a pending transaction gets grounded.

        In-memory only: the grounding's store transaction already deleted
        the pending-table row.
        """
        self.entanglement.withdraw(record.transaction)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QuantumDatabase pending={self.pending_count} "
            f"tables={len(self.database.table_names())}>"
        )
