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

from repro.core.composition import OrderComposition, compose_sequence
from repro.core.signature import SignatureIndex
from repro.logic.atoms import Atom
from repro.logic.formula import Formula
from repro.logic.terms import Variable
from repro.logic.unification import unifiable
from repro.solver.kernel import Program

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.quantum_state import PendingTransaction
    from repro.core.solution_cache import Solution

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
            changes shape (:meth:`remove`, assignment to :attr:`pending`) —
            the substitution then has to be re-verified before it is
            trusted again.  An :meth:`append` extends the composed body by
            a factor and leaves the record to the admission that caused it.
    """

    def __init__(self, pending: Iterable["PendingTransaction"] = ()) -> None:
        self.partition_id = next(_partition_counter)
        self._pending: list["PendingTransaction"] = list(pending)
        self.solution: "Solution | None" = None
        #: The resident composition of the arrival order (hard atoms only,
        #: with the factors' compiled programs); rebuilt lazily after
        #: structural changes (merges, groundings).
        self._composition: OrderComposition | None = None
        #: The owning manager's counters, whose high-water marks
        #: :meth:`append` maintains (``None`` for a free-standing partition).
        self.statistics: PartitionStatistics | None = None
        #: Observer invoked after every structural change to the pending
        #: sequence.  Receives the partition and, for an append, the entry
        #: just added (``None`` for removals and whole-sequence assignment,
        #: which require a full re-scan).  The partition manager uses this
        #: to keep its signature index and transaction map current even
        #: though admission and grounding mutate partitions directly.
        self.on_structural_change: (
            Callable[["Partition", "PendingTransaction | None"], None] | None
        ) = None

    @property
    def pending(self) -> tuple["PendingTransaction", ...]:
        """Pending transactions in serialization order.

        Returned as a tuple: the pending sequence may only change through
        :meth:`append`, :meth:`remove` or whole-sequence assignment, all of
        which keep the cached incremental composition in sync (in-place
        mutation of a shared list would silently bypass that).
        """
        return tuple(self._pending)

    @pending.setter
    def pending(self, entries: Iterable["PendingTransaction"]) -> None:
        self._pending = list(entries)
        self._restructured()

    def _restructured(self) -> None:
        """The pending sequence changed other than by an append."""
        self._composition = None
        if self.solution is not None:
            self.solution = self.solution.unverified()
        if self.on_structural_change is not None:
            self.on_structural_change(self, None)

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
        """The resident composition of the pending sequence, in arrival order.

        Built lazily (one pass over the pending list) after structural
        changes; kept up to date factor-by-factor by :meth:`append`, so the
        steady-state admission path never recomposes from scratch.  It is
        the single source of the composed formula, its compiled program
        and — whenever a grounding keeps the arrival order — of the plan's
        prefix, suffix and optional programs.
        """
        if self._composition is None:
            self._composition = OrderComposition(
                entry.renamed for entry in self._pending
            )
        return self._composition

    def composed_formula(self, *, include_optional: bool = False) -> Formula:
        """The composed body of the pending transactions (Theorem 3.5)."""
        if include_optional:
            return compose_sequence(
                [entry.renamed for entry in self._pending],
                include_optional=True,
            )
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
            atoms: the probe atoms (body view is taken of both sides).
            statistics: when given, every pairwise unification attempt is
                counted into ``statistics.unification_checks`` — the scan
                work the signature index exists to avoid.
        """
        own = self.atoms()
        for atom in atoms:
            probe = atom.as_body()
            for other in own:
                if statistics is not None:
                    statistics.unification_checks += 1
                if unifiable(probe, other.as_body()):
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
            self.on_structural_change(self, entry)

    def remove(self, entry: "PendingTransaction") -> None:
        """Remove a pending transaction (after it has been grounded)."""
        self._pending.remove(entry)
        self._restructured()

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

    def partition_of(self, transaction_id: int) -> Partition | None:
        """The partition containing ``transaction_id``, if any."""
        located = self.find(transaction_id)
        return located[0] if located else None

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

    def _track(self, partition: Partition, entry: "PendingTransaction | None") -> None:
        """The structural-change hook: keep the index and the map current."""
        if entry is not None:
            # Append: signatures only grow, so post just the new entry.
            self.index.extend(partition, entry)
            self._locate(partition, entry)
            return
        # Removal or whole-sequence assignment: re-derive both views.
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
        partition.on_structural_change = None
