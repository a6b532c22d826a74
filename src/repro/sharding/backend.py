"""Shard execution backends: in-process threads or worker processes.

The thread backend (the default) runs each partition's read-only grounding
plan on a :class:`~concurrent.futures.ThreadPoolExecutor` owned by the
shard — cheap, shares the writer's heap, but the GIL serializes the actual
search work.  The process backend ships the plan to a
:class:`~concurrent.futures.ProcessPoolExecutor` worker instead, so
independent partitions' grounding searches run truly in parallel.

Nothing in the writer's heap is shared with a worker process, so the plan
phase must travel as data.  The lifecycle is:

1. **Payload** — the writer snapshots exactly what the pure plan function
   (:func:`repro.core.quantum_state.compute_grounding_plan`) reads: the
   partition's pending entries (whose renamed transactions *are* the
   composed body, factor by factor), its solution record, the target ids,
   the serializability mode, and the rows of every
   relation the partition touches (in insertion order, with the same
   secondary indexes — row enumeration order is what makes the worker's
   backtracking search bit-identical to the writer's).  All of it is a
   frozen, picklable :class:`PlanPayload`.
2. **Worker** — :func:`plan_in_worker` unpickles the payload, rebuilds a
   throwaway :class:`~repro.relational.database.Database` and
   :class:`~repro.core.partition.Partition` from it, and runs the same
   module-level plan computation the in-process path uses.  No locks, no
   callbacks, no writer state.
3. **Result** — the worker returns a picklable :class:`PlanResult` carrying
   transaction *ids* (not entry objects) plus the grounding substitution;
   the writer maps the ids back onto its own pending entries and applies
   the plan serially, exactly as it applies thread-backend plans.

Decisions are bit-identical across backends: the snapshot preserves row
insertion order and index structure, the plan function is deterministic,
and the mutating apply phase never leaves the single writer.

The same shape covers the *admission* hot path.  An admission is a
witness-extension search (:func:`repro.core.solution_cache.compute_admission`)
followed by a serial commit; the search is read-only and pure, so a lane
can ship it to its shard's process pool as an :class:`AdmissionPayload`
(the partition's pending entries, its solution record, the renamed arrival,
and the same order-preserving table snapshots) and apply the returned
:class:`AdmissionResult` exactly as if the search had run inline.  The
result echoes the shipped pending ids, so the writer can validate that
the snapshot it searched is still the partition it is about to commit to
before trusting the decision — any mismatch falls back to the inline
search, which by purity returns the same answer.
"""

from __future__ import annotations

import enum
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.partition import Partition
from repro.core.serializability import SerializabilityMode
from repro.core.solution_cache import AdmissionProbe, Solution, compute_admission
from repro.errors import QuantumError
from repro.logic.substitution import Substitution
from repro.relational.database import Database
from repro.relational.schema import Column
from repro.solver.grounding import GroundingSearch
from repro.solver.strategy import AdmissionSearchConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.quantum_state import PendingTransaction
    from repro.core.resource_transaction import ResourceTransaction


class ShardBackend(enum.Enum):
    """Executor strategy of a shard (``QuantumConfig(shard_backend=...)``)."""

    THREAD = "thread"
    PROCESS = "process"

    @classmethod
    def coerce(cls, value: "ShardBackend | str") -> "ShardBackend":
        """Accept the enum itself or its lowercase string name."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(repr(member.value) for member in cls)
            raise QuantumError(
                f"unknown shard backend {value!r}; expected one of {names}"
            ) from None


@dataclass(frozen=True)
class TableSnapshot:
    """One relation's rows and structure, as shipped to a worker process.

    Attributes:
        name: relation name.
        columns: column declarations (types preserved).
        key: primary-key column names.
        indexes: column tuples of the secondary indexes; recreated in the
            worker so index-driven row enumeration matches the writer's.
        rows: row value tuples in the writer's insertion order — the order
            every scan, bucket and therefore grounding-search choice point
            enumerates.
    """

    name: str
    columns: tuple[Column, ...]
    key: tuple[str, ...]
    indexes: tuple[tuple[str, ...], ...]
    rows: tuple[tuple[Any, ...], ...]


@dataclass(frozen=True)
class PlanPayload:
    """Everything a worker process needs to plan one partition's grounding.

    Attributes:
        partition_id: the writer-side partition id (round-trip bookkeeping
            and error messages only; the worker's rebuilt partition gets a
            fresh local id).
        entries: the partition's full pending sequence, in serialization
            order.  The renamed transactions carried by the entries are the
            composed body, factor by factor.
        target_ids: ids of the transactions to ground now.
        serializability: STRICT or SEMANTIC.
        forced: whether this grounding was forced by the ``k`` bound.
        solution: the partition's solution record.  Shipped so the
            worker's rebuilt partition is a complete snapshot of the
            writer's; note the deterministic plan search does **not**
            consume it today (a solution-seeded search would change which
            grounding is found and break backend bit-identity), so it
            exists for introspection and for a future plan path that can
            use it on both backends symmetrically.
        tables: snapshots of every relation the partition touches.
    """

    partition_id: int
    entries: tuple["PendingTransaction", ...]
    target_ids: tuple[int, ...]
    serializability: SerializabilityMode
    forced: bool
    solution: Solution | None
    tables: tuple[TableSnapshot, ...]


@dataclass(frozen=True)
class PlanResult:
    """A worker process's plan, expressed in picklable ids and values.

    Attributes:
        partition_id: echo of :attr:`PlanPayload.partition_id`.
        satisfiable: False when no grounding exists (the writer raises the
            same invariant error the in-process path would).
        to_ground_ids: transaction ids to ground now, in execution order.
        remaining_ids: serialization order of the transactions that stay
            pending afterwards.
        reordered: whether the semantic mode fronted the targets.
        substitution: the grounding found (``None`` iff unsatisfiable).
        satisfied_atoms: per-transaction satisfied-optional counts at
            search time.
        forced: echo of :attr:`PlanPayload.forced`.
        search_nodes: grounding-search nodes the worker expanded (the
            writer folds this into its own search totals so the counters
            stay comparable across backends).
    """

    partition_id: int
    satisfiable: bool
    to_ground_ids: tuple[int, ...]
    remaining_ids: tuple[int, ...]
    reordered: bool
    substitution: Substitution | None
    satisfied_atoms: dict[int, int]
    forced: bool
    search_nodes: int = 0


def snapshot_tables(
    database: Database,
    relations: Iterable[str],
    cache: dict[str, TableSnapshot] | None = None,
) -> tuple[TableSnapshot, ...]:
    """Snapshot the given relations for shipping to a worker process.

    Relations the store has no table for are skipped: the grounding search
    treats a missing table as an empty relation, and the worker's rebuilt
    database reproduces exactly that by not creating it either.

    Args:
        database: the writer's store.
        relations: relation names to snapshot.
        cache: optional relation → snapshot memo.  Partitions of the same
            fan-out typically touch the same relations (every flight
            partition reads ``Available``/``Bookings``); sharing one cache
            across a ``ground()`` call's payloads walks each table once
            instead of once per group.  Safe because no mutation happens
            between the payload builds of one call (single-writer rule).
    """
    snapshots = []
    for relation in sorted(set(relations)):
        if cache is not None and relation in cache:
            snapshots.append(cache[relation])
            continue
        if not database.has_table(relation):
            continue
        table = database.table(relation)
        snapshot = TableSnapshot(
            name=relation,
            columns=tuple(table.schema.columns),
            key=tuple(table.schema.key),
            indexes=tuple(index.columns for index in table.indexes()[1:]),
            rows=tuple(row.values for row in table.scan()),
        )
        if cache is not None:
            cache[relation] = snapshot
        snapshots.append(snapshot)
    return tuple(snapshots)


def restore_database(snapshots: Sequence[TableSnapshot]) -> Database:
    """Rebuild a throwaway store from table snapshots (worker side).

    Rows are inserted directly at the table layer in snapshot order, so
    scans, hash-index buckets and every search built on them enumerate in
    the writer's order.
    """
    database = Database()
    for snapshot in snapshots:
        table = database.create_table(
            snapshot.name,
            list(snapshot.columns),
            list(snapshot.key) or None,
            indexes=snapshot.indexes,
        )
        for values in snapshot.rows:
            table.insert(values)
    return database


def build_payload(
    partition: Partition,
    targets: Sequence["PendingTransaction"],
    *,
    database: Database,
    serializability: SerializabilityMode,
    forced: bool,
    snapshot_cache: dict[str, TableSnapshot] | None = None,
) -> PlanPayload:
    """Assemble the picklable plan payload for one partition (writer side)."""
    return PlanPayload(
        partition_id=partition.partition_id,
        entries=partition.pending,
        target_ids=tuple(entry.transaction_id for entry in targets),
        serializability=serializability,
        forced=forced,
        solution=partition.solution,
        tables=snapshot_tables(database, partition.relations(), cache=snapshot_cache),
    )


def execute_payload(payload: PlanPayload) -> PlanResult:
    """Run the read-only plan computation for a shipped payload.

    This is the worker-side half of the process backend, but it is an
    ordinary function: the equivalence tests call it in-process to pin
    down that a payload round-trip plans exactly what the writer would.
    """
    from repro.core.quantum_state import compute_grounding_plan

    database = restore_database(payload.tables)
    search = GroundingSearch(database)
    partition = Partition(payload.entries)
    partition.solution = payload.solution
    wanted = set(payload.target_ids)
    targets = [entry for entry in payload.entries if entry.transaction_id in wanted]
    plan, _composition, substitution, satisfied = compute_grounding_plan(
        search, payload.serializability, partition, targets
    )
    return PlanResult(
        partition_id=payload.partition_id,
        satisfiable=substitution is not None,
        to_ground_ids=tuple(e.transaction_id for e in plan.to_ground),
        remaining_ids=tuple(e.transaction_id for e in plan.remaining_order),
        reordered=plan.reordered,
        substitution=substitution,
        satisfied_atoms=dict(satisfied),
        forced=payload.forced,
        search_nodes=search.totals.nodes,
    )


def plan_in_worker(blob: bytes) -> PlanResult:
    """Process-pool entry point: unpickle, plan, return the picklable result.

    A module-level function (pickled by reference) taking the payload as an
    explicit byte string: the writer pickles once, records the shipped
    size, and the executor's own argument pickling stays O(bytes) with no
    second object walk.
    """
    return execute_payload(pickle.loads(blob))


def dump_payload(payload: "PlanPayload | AdmissionPayload") -> bytes:
    """Pickle a payload with the highest protocol (writer side)."""
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


@dataclass(frozen=True)
class AdmissionPayload:
    """Everything a worker needs to run one arrival's admission search.

    Attributes:
        partition_id: the writer-side partition id (bookkeeping only).
        entries: the partition's pending sequence *before* the arrival, in
            serialization order.  The worker's rebuilt composition rewrites
            the arrival against exactly these update portions, so the new
            factor it searches is the one the writer would have searched.
        renamed: the arriving transaction, variables already renamed with
            its sequence suffix — renaming must happen on the writer, where
            the sequence was allocated.
        transaction_id: the arrival's id (echoed back for validation).
        solution: the partition's solution record; the worker trusts,
            verifies or extends it exactly as the inline flow would.
        enable_witness: the cache's fast-path switch, shipped so the
            worker's miss/fallback counters match the inline path's.
        tables: snapshots of every relation the partition or the arrival
            touches (insertion order preserved — see :class:`PlanPayload`).
        search_config: the writer's admission-search strategy, shipped so
            the worker dispatches through the exact same
            ``compute_admission`` configuration — strategy selection must
            never depend on where the search runs.
    """

    partition_id: int
    entries: tuple["PendingTransaction", ...]
    renamed: "ResourceTransaction"
    transaction_id: int
    solution: Solution | None
    enable_witness: bool
    tables: tuple[TableSnapshot, ...]
    search_config: AdmissionSearchConfig | None = None


@dataclass(frozen=True)
class AdmissionResult:
    """A worker's admission decision, expressed in picklable values.

    Attributes:
        partition_id: echo of :attr:`AdmissionPayload.partition_id`.
        transaction_id: echo of :attr:`AdmissionPayload.transaction_id`.
        pending_ids: ids of the entries the worker searched against.  The
            writer compares them with the partition's current pending ids
            before committing: if a merge or grounding slipped in between
            snapshot and commit (it cannot on a lane — the lane owns the
            partition — but the check makes the invariant local), the
            result is discarded and the search reruns inline.
        probe: the pure search outcome — decision substitution, fast-path
            flag, and cache counters, applied by the writer via
            ``SolutionCache.absorb_probe``.
        search_nodes: grounding-search nodes the worker expanded (folded
            into the writer's totals, like :attr:`PlanResult.search_nodes`).
    """

    partition_id: int
    transaction_id: int
    pending_ids: tuple[int, ...]
    probe: AdmissionProbe
    search_nodes: int = 0


def build_admission_payload(
    partition: Partition,
    renamed: "ResourceTransaction",
    transaction_id: int,
    *,
    database: Database,
    enable_witness: bool,
    search_config: AdmissionSearchConfig | None = None,
    snapshot_cache: dict[str, TableSnapshot] | None = None,
) -> AdmissionPayload:
    """Assemble the picklable admission payload for one arrival (writer side).

    Must run under the store read guard: the snapshot has to be consistent
    with the solution record shipped alongside it.
    """
    relations = set(partition.relations()) | set(renamed.relations())
    return AdmissionPayload(
        partition_id=partition.partition_id,
        entries=partition.pending,
        renamed=renamed,
        transaction_id=transaction_id,
        solution=partition.solution,
        enable_witness=enable_witness,
        tables=snapshot_tables(database, relations, cache=snapshot_cache),
        search_config=search_config,
    )


def execute_admission(payload: AdmissionPayload) -> AdmissionResult:
    """Run the read-only admission search for a shipped payload.

    The worker-side half of shipped admission, but an ordinary function:
    the equivalence tests call it in-process to pin down that a payload
    round-trip decides exactly what the inline ``SolutionCache.ensure``
    would.
    """
    database = restore_database(payload.tables)
    search = GroundingSearch(database)
    composition = Partition(payload.entries).composition()
    probe = compute_admission(
        search,
        database,
        composition=composition,
        solution=payload.solution,
        new_factor=composition.preview_factor(payload.renamed),
        new_required=payload.renamed.hard_variables(),
        enable_witness=payload.enable_witness,
        config=payload.search_config,
    )
    return AdmissionResult(
        partition_id=payload.partition_id,
        transaction_id=payload.transaction_id,
        pending_ids=tuple(entry.transaction_id for entry in payload.entries),
        probe=probe,
        search_nodes=search.totals.nodes,
    )


def admit_in_worker(blob: bytes) -> AdmissionResult:
    """Process-pool entry point for a shipped admission search."""
    return execute_admission(pickle.loads(blob))


def worker_ready() -> bool:
    """Trivial round-trip used by ``Shard.warm`` to pre-spawn pool workers."""
    return True
