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

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.core.entanglement import EntanglementRegistry
from repro.core.grounding_policy import (
    MYSQL_JOIN_LIMIT,
    GroundingPolicy,
    GroundingStrategy,
)
from repro.core.parser import parse_transaction
from repro.core.quantum_state import GroundedTransaction, QuantumState
from repro.core.reads import (
    ReadMode,
    ReadRequest,
    StoreRead,
    read_request,
    store_read,
)
from repro.core.recovery import PendingTransactionStore
from repro.core.resource_transaction import (
    ResourceTransaction,
    reserve_transaction_ids,
)
from repro.core.serializability import SerializabilityMode
from repro.core.worlds import enumerate_world_states
from repro.errors import InvalidTransactionError, QuantumError, TransactionRejected
from repro.relational.database import Database
from repro.relational.dml import Delete, Insert
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
        shards: accepted and ignored (at least 1).  Every database has one
            partition manager, which routes admissions through the
            signature index and grounds on the writer
            (``docs/architecture.md``, "One partition manager, one
            writer").  Kept, like ``shard_backend`` and
            ``admission_lanes``, only because the repository benchmark's
            configuration (``bench/settings.py``) still passes it.
        shard_backend: accepted and ignored; only ``"thread"`` is valid.
        admission_lanes: accepted and ignored.  Admission is serial:
            ``commit_batch`` admits every batch in one loop on the writer
            (``docs/architecture.md``, "Why admission is serial").
        search: the admission search's bounds
            (:class:`~repro.solver.strategy.AdmissionSearchConfig`).
            Admission runs one exact search, the seed's backtracking
            search byte-for-byte; ``node_budget`` caps it (running out is
            a typed rejection), applied inside ``SolutionCache.ensure``.
    """

    k: int = MYSQL_JOIN_LIMIT
    strategy: GroundingStrategy = GroundingStrategy.OLDEST_FIRST
    serializability: SerializabilityMode = SerializabilityMode.SEMANTIC
    ground_on_partner_arrival: bool = True
    witness_cache: bool = True
    shards: int = 1
    shard_backend: str = "thread"
    admission_lanes: bool = False
    search: AdmissionSearchConfig = field(default_factory=AdmissionSearchConfig)

    def __post_init__(self) -> None:
        self.policy()  # validates k: a bad bound fails here, not mid-admission
        if self.shards < 1:
            raise QuantumError("QuantumConfig.shards must be at least 1")
        if self.shard_backend != "thread":
            raise QuantumError(
                f"shard backend {self.shard_backend!r} was removed; the only "
                "accepted value is shard_backend='thread', which is ignored"
            )

    def policy(self) -> GroundingPolicy:
        """The grounding policy implied by this configuration."""
        return GroundingPolicy(k=self.k, strategy=self.strategy)


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
            ``"witness"`` or ``"backtracking"`` (see
            :class:`~repro.core.solution_cache.AdmissionProbe`).
    """

    transaction: ResourceTransaction
    committed: bool
    pending: bool = False
    grounded: tuple[GroundedTransaction, ...] = ()
    rejection_reason: str | None = None
    method: str = "backtracking"

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
        self.database = database or Database()
        self.pending_store = PendingTransactionStore(self.database)
        self.entanglement = EntanglementRegistry()
        self.state = QuantumState(
            self.database,
            policy=self.config.policy(),
            serializability=self.config.serializability,
            pending_store=self.pending_store,
            witness_cache=self.config.witness_cache,
            search_config=self.config.search,
        )
        self.state.grounding_listeners.append(self._handle_grounded)

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
        self.state.cache.notify_deltas(deltas)

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
        application would experience an abort.  An update that could never
        apply raises (:meth:`check_updates`) before any state advances.

        It runs the admit-and-persist loop of :meth:`commit_batch` on a
        batch of one, without counting a batch.
        """
        if isinstance(transaction, str):
            transaction = parse_transaction(transaction, **parse_kwargs)
        (result,) = self._admit_and_persist((transaction,))
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

        Every batch is admitted in this one loop, in order, on the calling
        thread: admission is serial.  A batch one of whose updates could
        never apply (:meth:`check_updates`) raises before any is admitted.

        Returns:
            One :class:`CommitResult` per submitted transaction, in order.
        """
        parsed: list[ResourceTransaction] = [
            parse_transaction(t, **parse_kwargs) if isinstance(t, str) else t
            for t in transactions
        ]
        results = self._admit_and_persist(parsed)
        self.state.statistics.batches += 1
        self.state.statistics.batch_transactions += len(parsed)
        return results

    def check_updates(self, transaction: ResourceTransaction) -> None:
        """Refuse a transaction with an insert or delete that names no table
        or has the wrong number of terms (``InvalidTransactionError``).  Body
        atoms are not checked: an optional atom over a missing table is
        legal, and simply unsatisfied."""
        for atom in transaction.updates:
            if not self.database.has_table(atom.relation):
                raise InvalidTransactionError(f"update atom {atom!r} names no table")
            arity = self.database.table(atom.relation).schema.arity
            if len(atom.terms) != arity:
                raise InvalidTransactionError(
                    f"update atom {atom!r} has {len(atom.terms)} terms, "
                    f"table {atom.relation!r} {arity} columns"
                )

    def _admit_and_persist(
        self, transactions: Sequence[ResourceTransaction]
    ) -> list[CommitResult]:
        """Check, admit and persist ``transactions`` as one store transaction
        (the one commit path of :meth:`execute` and :meth:`commit_batch`).

        Every update is checked before anything is admitted.  Groundings
        triggered here — by the ``k`` bound or a partner's arrival — write
        through the operation's unit, and the rows of the admissions still
        pending at the end join them before the unit commits.  Each
        ``CommitResult`` is stamped with its decision's provenance, read off
        what ``admit`` hands back.
        """
        for transaction in transactions:
            self.check_updates(transaction)
        state = self.state
        results: list[CommitResult] = []
        admitted: list[tuple[ResourceTransaction, int]] = []
        with self.database.unit as unit:
            for transaction in transactions:
                try:
                    entry = state.admit(transaction)
                except TransactionRejected as exc:
                    results.append(
                        CommitResult(
                            transaction=transaction,
                            committed=False,
                            rejection_reason=str(exc),
                            method=exc.method,
                        )
                    )
                    continue
                admitted.append((transaction, entry.sequence))
                transaction_id = transaction.transaction_id
                grounded: list[GroundedTransaction] = []
                # Forced groundings triggered by the k bound have already
                # reached the grounding listeners; collect the one
                # involving this call.
                if not state.is_pending(transaction_id):
                    record = state.grounded_results.get(transaction_id)
                    if record is not None:
                        grounded.append(record)
                match = self.entanglement.register(transaction)
                if match is not None and self.config.ground_on_partner_arrival:
                    grounded.extend(state.ground(match.transaction_ids()))
                results.append(
                    CommitResult(
                        transaction=transaction,
                        committed=True,
                        pending=state.is_pending(transaction_id),
                        grounded=tuple(grounded),
                        method=entry.method,
                    )
                )
            still_pending = [
                (transaction, sequence)
                for transaction, sequence in admitted
                if state.is_pending(transaction.transaction_id)
            ]
            if still_pending:
                self.pending_store.persist_many(still_pending, unit.transaction())
        return results

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
        (shorthand for a single-atom read, see :func:`read_request`).  The
        read is checked against the store's schema first
        (:func:`~repro.core.reads.store_read`), so a refused read collapses
        nothing.  It then runs in the request's mode, COLLAPSE unless it
        says otherwise: pending transactions whose updates unify with the
        read are grounded first, then the probe is answered over the
        extensional store, giving ordinary read-repeatability.  PEEK and
        EXPOSE_ALL answer the same probe over possible worlds.
        """
        request = read_request(request, terms, mode=mode, select=select, limit=limit)
        probe = store_read(self.database, request)
        if request.mode is ReadMode.COLLAPSE:
            affected = self.state.affected_by_read([request.atom])
            if affected:
                with self.database.unit:
                    self.state.ground([entry.transaction_id for entry in affected])
            return probe.answer(self.database)
        if request.mode is ReadMode.PEEK:
            return probe.answer(self._peek_world())
        return self._expose_all(probe)

    def _peek_world(self) -> Database:
        """One possible world, built without collapsing anything."""
        world = self.database.copy()
        for partition in self.state.partitions:
            solution = self.state.cache.ensure(partition).substitution
            if solution is None:
                continue
            for entry in partition:
                for statement in entry.renamed.ground_updates(solution):
                    world.apply(statement)
        return world

    def _expose_all(self, probe: StoreRead) -> list[dict[str, Any]]:
        """Answer across all possible worlds, annotating answers with support.

        Each world is queried on the database the enumeration forked to
        reach it; nothing is rebuilt from the world's snapshot.
        """
        pending = [entry.original for entry in self.state.pending_transactions()]
        counts: dict[tuple, dict[str, Any]] = {}
        support: dict[tuple, int] = {}
        for _world, state in enumerate_world_states(self.database, pending):
            for binding in probe.answer(state):
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

    def ground(self, transaction_ids: Iterable[int]) -> list[GroundedTransaction]:
        """Fix the value assignments of specific pending transactions.

        All or nothing: every partition involved is planned before any
        plan is applied (:meth:`QuantumState.ground
        <repro.core.quantum_state.QuantumState.ground>`).
        """
        with self.database.unit:
            return self.state.ground(transaction_ids)

    def ground_all(self) -> list[GroundedTransaction]:
        """Fix every pending transaction (e.g. at the end of a booking day)."""
        with self.database.unit:
            return self.state.ground_all()

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

    # ------------------------------------------------------------------
    # Introspection and reporting
    # ------------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Number of committed transactions still awaiting grounding."""
        return self.state.pending_count()

    def close(self) -> None:
        """Do nothing: a quantum database holds no thread or pool to release.

        Kept because the repository benchmark (``bench/workloads.py``)
        calls it.  The store's log is closed through ``database.wal``.
        """

    @property
    def statistics(self):
        """The quantum state's counters (admissions, groundings, ...)."""
        return self.state.statistics

    @property
    def cache_statistics(self):
        """The solution cache's live counters (witness hits, fallbacks, ...)."""
        return self.state.cache.statistics

    def statistics_report(self) -> dict[str, Any]:
        """Every counter the system maintains, flattened for benchmarks.

        Combines the quantum-state, grounding-plan, solution-cache,
        partition, grounding-search and store-transaction statistics into one
        ``section.counter`` → value mapping, so experiment harnesses can diff
        configurations (e.g. witness cache on vs. off) without reaching into
        internals.
        """
        report: dict[str, Any] = {}
        cache_statistics = self.state.cache.statistics
        sections = {
            "state": self.state.statistics,
            # The grounding plan's work: reorder checks, preference
            # attempts and combined fallback searches.
            "plan": self.state.plan_statistics,
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
        for name, value in vars(self.state.partitions.index.statistics).items():
            report[f"routing.{name}"] = value
        # Durability: the log reports what it is — "memory" with its
        # checkpoint pause, or the segmented engine's counters (segments
        # sealed, compactions, bytes reclaimed, checkpoint pauses, fsyncs).
        for name, value in self.database.wal.durability_statistics().items():
            report[f"durability.{name}"] = value
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
        contains drives the reconstruction, and each step happens once:

        1. decode every persisted row (:meth:`PendingTransactionStore.restore`);
        2. rebuild the partitions by routing the transactions in their
           original sequence order, then solve each partition once
           (:meth:`QuantumState.rebuild`);
        3. register the entangled ones and enforce the ``k`` bound — a
           restart under a smaller ``k`` than the crashed instance ran with
           forces groundings, which are one store transaction too.

        Sequence numbering and transaction ids resume past the highest
        restored ones, so new arrivals never collide with recovered ones.

        Raises:
            QuantumRecoveryError: if a persisted row cannot be restored or a
                rebuilt partition has no grounding (which would indicate the
                crash interrupted an atomicity guarantee).
        """
        quantum = cls(database, config)
        restored = quantum.pending_store.restore()
        with database.unit:
            quantum.state.rebuild(restored)
            for _sequence, transaction in restored:
                quantum.entanglement.register(transaction)
            quantum.state.enforce_bounds()
        if restored:
            reserve_transaction_ids(
                max(transaction.transaction_id for _sequence, transaction in restored)
            )
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
