"""Partitioning of pending transactions into independent sets.

The prototype "partitions the resource transactions ... into independent
sets and maintains a separate composed transaction body for each set"
(Section 4, Quantum State).  Two transactions are independent when no atom
of one unifies with an atom of the other — e.g. bookings on different,
explicitly specified flights.  The partitioning is dynamic: a new
transaction that unifies with members of several partitions forces those
partitions to be merged (the window-or-aisle example of the paper).

This module defines :class:`Partition` — an ordered set of pending
transactions with its composed body and its one known solution — and
:class:`PartitionManager`, which owns all partitions, routes every overlap
query through the :class:`~repro.core.signature.SignatureIndex` and
implements the merge-on-overlap logic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.core.composition import OrderComposition
from repro.core.signature import SignatureIndex
from repro.logic.atoms import Atom
from repro.logic.formula import Formula
from repro.logic.terms import Variable
from repro.logic.unification import unifiable
from repro.solver.kernel import Program

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.quantum_state import PendingTransaction
    from repro.core.solution_cache import Delta, Solution

#: Monotone counter for partition identifiers.
_partition_counter = itertools.count(1)


class Partition:
    """An independent set of pending transactions.

    Attributes:
        partition_id: unique identifier (survives merges on the surviving
            partition).
        pending: pending transactions in serialization order.
        solution: the partition's one known grounding of its composed hard
            body (a :class:`~repro.core.solution_cache.Solution`), or
            ``None``.  Written by the solution cache; the partition itself
            only withdraws the record's footprint when its pending sequence
            changes shape (:meth:`ground_prefix`, assignment to
            :attr:`pending`) — the substitution then has to
            be re-verified before it is trusted again.  An :meth:`append`
            extends the composed body by a factor and leaves the record to
            the admission that caused it.
    """

    def __init__(self, pending: Iterable["PendingTransaction"] = ()) -> None:
        self.partition_id = next(_partition_counter)
        self._pending: list["PendingTransaction"] = list(pending)
        #: The owning manager's set of partitions whose record is *loose* —
        #: a footprint its signature index cannot route deltas to (see
        #: :attr:`solution`); ``None`` for a free-standing partition.
        self.loose: set[int] | None = None
        self._solution: "Solution | None" = None
        #: The resident composition of the pending sequence (hard atoms
        #: only, with the factors' compiled programs).  Extended by
        #: appends, replaced by its successor after a grounding, and
        #: rebuilt lazily after any other structural change (a merge).
        self._composition: OrderComposition | None = None
        #: The owning manager's counters, whose high-water marks
        #: :meth:`append` maintains (``None`` for a free-standing partition).
        self.statistics: PartitionStatistics | None = None
        #: Observer invoked after every structural change to the pending
        #: sequence, as ``(partition, appended, removed)``: the entry an
        #: append added, or the entries a grounding took out;
        #: both ``None`` for a whole-sequence assignment, which requires a
        #: full re-scan.  The partition manager uses this to keep its
        #: signature index and transaction map current even though
        #: admission and grounding mutate partitions directly.
        self.on_structural_change: (
            Callable[
                [
                    "Partition",
                    "PendingTransaction | None",
                    "Sequence[PendingTransaction] | None",
                ],
                None,
            ]
            | None
        ) = None

    @property
    def solution(self) -> "Solution | None":
        """The partition's one known grounding (see the class docstring).

        Writing it keeps the manager's :attr:`loose` set current: a
        footprint with non-ground ``relations`` or a non-monotone body
        cannot be found through the rows of a delta, so delta
        notification visits such records unconditionally.
        """
        return self._solution

    @solution.setter
    def solution(self, solution: "Solution | None") -> None:
        self._solution = solution
        loose = self.loose
        if loose is not None:
            footprint = solution.footprint if solution is not None else None
            if footprint is not None and footprint.loose:
                loose.add(self.partition_id)
            else:
                loose.discard(self.partition_id)

    @property
    def pending(self) -> tuple["PendingTransaction", ...]:
        """Pending transactions in serialization order.

        Returned as a tuple: the pending sequence may only change through
        :meth:`append`, :meth:`ground_prefix` or whole-sequence assignment,
        all of which keep the cached incremental composition in sync
        (in-place mutation of a shared list would silently bypass that).
        """
        return tuple(self._pending)

    @pending.setter
    def pending(self, entries: Iterable["PendingTransaction"]) -> None:
        self._pending = list(entries)
        self._composition = None
        self._restructured(None)

    def _restructured(self, removed: Sequence["PendingTransaction"] | None) -> None:
        """The pending sequence changed other than by an append."""
        if self.solution is not None:
            self.solution = self.solution.unverified()
        if self.on_structural_change is not None:
            self.on_structural_change(self, None, removed)

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pending)

    def __iter__(self) -> Iterator["PendingTransaction"]:
        return iter(self._pending)

    def transactions(self) -> tuple["PendingTransaction", ...]:
        """Pending transactions in serialization order."""
        return tuple(self._pending)

    def transaction_ids(self) -> tuple[int, ...]:
        """Ids of the pending transactions, in order."""
        return tuple(p.transaction_id for p in self._pending)

    def atoms(self) -> tuple[Atom, ...]:
        """Every atom (body and update) of every pending transaction."""
        collected: list[Atom] = []
        for entry in self._pending:
            collected.extend(entry.renamed.body)
            collected.extend(entry.renamed.updates)
        return tuple(collected)

    def relations(self) -> frozenset[str]:
        """Names of all relations touched by the partition."""
        names: set[str] = set()
        for entry in self._pending:
            names |= entry.renamed.relations()
        return frozenset(names)

    def composition(self) -> OrderComposition:
        """The resident composition of the pending sequence, in order.

        Kept up to date factor-by-factor by :meth:`append` and carried
        across groundings as the planned order's successor
        (:meth:`ground_prefix`), so neither admission nor grounding
        recomposes from scratch; built lazily (one pass over the pending
        list) only for a new partition or after a merge.
        It is the single source of the composed formula, its compiled
        program and — whenever a grounding keeps the order — of the plan's
        prefix, suffix and optional programs.
        """
        if self._composition is None:
            self._composition = OrderComposition(
                entry.renamed for entry in self._pending
            )
        return self._composition

    def composed_formula(self) -> Formula:
        """The composed body of the pending transactions (Theorem 3.5)."""
        return self.composition().formula()

    def overlaps_atoms(
        self,
        atoms: Iterable[Atom],
        statistics: "PartitionStatistics | None" = None,
    ) -> bool:
        """True if any given atom unifies with any atom of this partition.

        This is the conservative unification-based independence test of the
        paper: transactions that cannot unify anywhere can never interact.

        Args:
            atoms: the probe atoms (unification reads only relation and
                terms, so body and update atoms are compared as they are).
            statistics: when given, every pairwise unification attempt is
                counted into ``statistics.unification_checks`` — the scan
                work the signature index exists to avoid.
        """
        own = self.atoms()
        for atom in atoms:
            for other in own:
                if statistics is not None:
                    statistics.unification_checks += 1
                if unifiable(atom, other):
                    return True
        return False

    # -- mutation ------------------------------------------------------------

    def append(
        self,
        entry: "PendingTransaction",
        factor: Formula | None = None,
        program: Program | None = None,
    ) -> None:
        """Add a pending transaction at the end of the serialization order.

        Args:
            entry: the pending transaction to append.
            factor: its composed-body factor when admission already computed
                it (via ``composition().preview_factor``); passing it keeps
                the resident composition warm without recomputing the
                rewrite.
            program: ``factor`` compiled into the composition's scope, when
                admission already compiled it to search it.
        """
        self._pending.append(entry)
        if self._composition is not None:
            self._composition.append(entry.renamed, factor, program)
        if self.statistics is not None:
            self.statistics.record_size(
                len(self._pending), self.composition().atom_count()
            )
        if self.on_structural_change is not None:
            self.on_structural_change(self, entry, None)

    def ground_prefix(self, composition: OrderComposition, count: int) -> None:
        """The first ``count`` entries of ``composition`` were grounded.

        ``composition`` is the order the grounding was planned on: every
        pending entry, possibly reordered.  The rest stay pending in that
        order, and the successor of the composition (Theorem 3.5 on a
        prefix removal, :meth:`OrderComposition.successor`) becomes the
        resident one.  Only the grounded entries are withdrawn from the
        manager's index and map.
        """
        if len(composition) != len(self._pending):
            raise ValueError(
                f"a composition of {len(composition)} entries does not order "
                f"the {len(self._pending)} pending in partition #{self.partition_id}"
            )
        by_transaction = {id(entry.renamed): entry for entry in self._pending}
        ordered = [by_transaction[id(t)] for t in composition.transactions]
        self._pending = ordered[count:]
        self._composition = composition.successor(count)
        self._restructured(ordered[:count])

    def variables(self) -> frozenset[Variable]:
        """Every variable of every pending transaction."""
        return frozenset().union(
            *(entry.renamed.variables() for entry in self._pending)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Partition #{self.partition_id} pending={self.transaction_ids()}>"
        )


@dataclass
class PartitionStatistics:
    """Counters describing partition dynamics (reported by experiments).

    Attributes:
        merges: merge-on-overlap events (two or more partitions combined).
        max_partition_size: largest pending sequence ever observed.
        max_composed_atoms: widest composed body ever observed.
        unification_checks: pairwise ``unifiable`` probes spent confirming
            the signature index's candidates (``merged_for``, write
            validation, read routing).
        scanned_partitions: candidate partitions whose atoms were exactly
            scanned by an overlap query.
        index_filtered: partitions the signature index ruled out of an
            overlap query without a single unification probe.
    """

    merges: int = 0
    max_partition_size: int = 0
    max_composed_atoms: int = 0
    unification_checks: int = 0
    scanned_partitions: int = 0
    index_filtered: int = 0

    def record_size(self, size: int, atoms: int) -> None:
        """Raise the two high-water marks to a partition's new size."""
        if size > self.max_partition_size:
            self.max_partition_size = size
        if atoms > self.max_composed_atoms:
            self.max_composed_atoms = atoms


class PartitionManager:
    """Owns all partitions and implements merge-on-overlap admission.

    Every overlap query is routed through the :class:`SignatureIndex`, and
    each candidate it returns is confirmed by the exact pairwise-unification
    test, so the answer is the exhaustive scan's.  A transaction-id map
    answers :meth:`find` and :meth:`pending_count` in O(1).  The partitions'
    structural-change hook keeps both current, since admission and grounding
    mutate partitions directly.  Only the writer touches any of it.
    """

    def __init__(self) -> None:
        self.partitions: list[Partition] = []
        self.statistics = PartitionStatistics()
        self.index = SignatureIndex()
        #: partition id → partition (resolves the index's candidates).
        self._by_id: dict[int, Partition] = {}
        #: transaction id → the partition holding it and its pending entry.
        self._located: dict[int, tuple[Partition, "PendingTransaction"]] = {}
        #: partition id → the transaction ids mapped to it.
        self._members: dict[int, set[int]] = {}
        #: ids of partitions whose record is loose (see
        #: :attr:`Partition.solution`): delta notification visits them
        #: whatever rows the deltas name.
        self._loose: set[int] = set()

    # -- introspection -------------------------------------------------------

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.partitions)

    def __len__(self) -> int:
        return len(self.partitions)

    def pending_count(self) -> int:
        """Total number of pending transactions across partitions."""
        return len(self._located)

    def find(self, transaction_id: int) -> tuple[Partition, "PendingTransaction"] | None:
        """Locate a pending transaction by id."""
        return self._located.get(transaction_id)

    # -- admission -----------------------------------------------------------

    def overlapping_partitions(self, atoms: Sequence[Atom]) -> list[Partition]:
        """Partitions whose atoms unify with any of ``atoms``.

        Candidates come from the signature index and are visited in
        ascending partition-id order, which *is* partition-list order
        (partitions enter the list in id order and removals preserve it), so
        the result — including which partition survives a merge — is the
        exhaustive scan's, without walking the whole partition list.
        """
        candidates = self.index.candidates(atoms)
        self.statistics.index_filtered += len(self.partitions) - len(candidates)
        self.statistics.scanned_partitions += len(candidates)
        return [
            partition
            for pid in sorted(candidates)
            if (partition := self._by_id[pid]).overlaps_atoms(atoms, self.statistics)
        ]

    def merged_for(self, atoms: Sequence[Atom]) -> tuple[Partition, bool]:
        """Return the partition a transaction with ``atoms`` belongs to.

        Overlapping partitions are merged (their pending lists concatenated
        in global arrival order); a fresh empty partition is returned when
        nothing overlaps.  The second element reports whether a merge of two
        or more existing partitions happened.
        """
        overlapping = self.overlapping_partitions(atoms)
        if not overlapping:
            partition = Partition()
            partition.statistics = self.statistics
            partition.loose = self._loose
            partition.on_structural_change = self._track
            self.partitions.append(partition)
            self._by_id[partition.partition_id] = partition
            self._members[partition.partition_id] = set()
            return partition, False
        if len(overlapping) == 1:
            return overlapping[0], False
        merged = overlapping[0]
        absorbed = overlapping[1:]
        entries = [entry for partition in overlapping for entry in partition]
        entries.sort(key=lambda e: e.sequence)
        for other in absorbed:
            self.partitions.remove(other)
            self._forget(other)
        # The absorbed partitions take their solutions with them; nothing
        # is known about the merged sequence yet.  The assignment fires the
        # hook, which maps the absorbed transactions to ``merged``.
        merged.pending = entries
        merged.solution = None
        self.statistics.merges += 1
        return merged, True

    def drop_if_empty(self, partition: Partition) -> None:
        """Remove ``partition`` from the manager when it has no pending txns."""
        pid = partition.partition_id
        if not partition.pending and self._by_id.get(pid) is partition:
            self.partitions.remove(partition)
            self._forget(partition)

    def delta_candidates(self, deltas: Iterable["Delta"]) -> list[Partition]:
        """The partitions whose record a row-level delta could touch.

        A footprint row is a ground instance of one of its partition's
        atoms, so reading each delta row as a ground atom, the signature
        index returns every partition that can hold it; the loose records
        (non-ground footprint relations, non-monotone bodies) are added
        whatever the rows.  In partition-list (ascending id) order.
        """
        found = self.index.row_candidates(
            (table, values) for table, values, _is_delete in deltas
        )
        found |= self._loose
        return [self._by_id[pid] for pid in sorted(found)]

    @staticmethod
    def plan_on_shards(
        groups: Sequence[tuple[Partition, Sequence["PendingTransaction"]]],
        plan: Callable[[Partition, Sequence["PendingTransaction"]], Any],
    ) -> list[Any]:
        """``plan(partition, entries)`` for each group, in group order.

        Kept only because the repository benchmark's traced pass
        (``bench/spans.py``) wraps ``ShardedPartitionManager.plan_on_shards``
        by name and raises if it is missing.  Nothing in ``repro`` calls it:
        :meth:`QuantumState.ground <repro.core.quantum_state.QuantumState.ground>`
        plans its groups itself.
        """
        return [plan(partition, entries) for partition, entries in groups]

    # -- incremental maintenance (called by the partitions themselves) -------

    def _track(
        self,
        partition: Partition,
        appended: "PendingTransaction | None",
        removed: "Sequence[PendingTransaction] | None",
    ) -> None:
        """The structural-change hook: keep the index and the map current."""
        if appended is not None:
            # Append: signatures only grow, so post just the new entry.
            self.index.extend(partition, appended)
            self._locate(partition, appended)
            return
        if removed is not None:
            # A grounded prefix: retract just those entries.
            self.index.retract(partition, removed)
            members = self._members[partition.partition_id]
            for entry in removed:
                del self._located[entry.transaction_id]
                members.discard(entry.transaction_id)
            return
        # Whole-sequence assignment (a merge): re-derive both views.
        self.index.refresh(partition)
        self._unlocate(partition)
        for member in partition:
            self._locate(partition, member)

    def _locate(self, partition: Partition, entry: "PendingTransaction") -> None:
        self._located[entry.transaction_id] = (partition, entry)
        self._members[partition.partition_id].add(entry.transaction_id)

    def _unlocate(self, partition: Partition) -> None:
        for transaction_id in self._members[partition.partition_id]:
            del self._located[transaction_id]
        self._members[partition.partition_id] = set()

    def _forget(self, partition: Partition) -> None:
        """Release a partition that left the list (merged away or emptied)."""
        self._unlocate(partition)
        pid = partition.partition_id
        del self._members[pid]
        del self._by_id[pid]
        self.index.discard(pid)
        self._loose.discard(pid)
        partition.loose = None
        partition.on_structural_change = None
