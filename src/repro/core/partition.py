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
:class:`PartitionManager`, which owns all partitions and implements the
merge-on-overlap logic.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.core.composition import OrderComposition, compose_sequence
from repro.errors import QuantumStateError
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
#: Serializes high-water-mark updates of :class:`PartitionStatistics` (a
#: lock on the statistics object itself would leak into ``vars()``-based
#: reports).
_high_water_lock = threading.Lock()


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
        #: which require a full re-scan).  The sharded partition manager uses
        #: this to keep its signature index and pending table current even
        #: though admission and grounding mutate partitions directly.
        self.on_structural_change: (
            Callable[["Partition", "PendingTransaction | None"], None] | None
        ) = None
        #: Shard currently owning this partition (``None`` when unsharded or
        #: unowned).  Maintained by :meth:`repro.sharding.shard.Shard.own` /
        #: ``disown``; the lane-parallel admission pipeline asserts against
        #: it (:meth:`assert_owned_by`) so a routing bug that would let two
        #: lane writers mutate the same partition fails loudly instead of
        #: corrupting the pending sequence.
        self.owner_shard_id: int | None = None

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

    def assert_owned_by(self, shard_id: int) -> None:
        """Assert this partition may be mutated by ``shard_id``'s writer.

        The per-shard admission lanes call this before touching a
        partition: single-shard routing plus the epoch-barrier discipline
        must guarantee that every partition a lane mutates is owned by that
        lane's shard.  A violation is an internal invariant breach (it
        would mean two lane writers could race on one pending sequence),
        so it raises rather than returning a flag.

        Raises:
            QuantumStateError: the partition is owned by a different shard.
        """
        if self.owner_shard_id is not None and self.owner_shard_id != shard_id:
            raise QuantumStateError(
                f"partition #{self.partition_id} is owned by shard "
                f"#{self.owner_shard_id} but was routed to shard #{shard_id}; "
                "the per-shard writer invariant is broken"
            )

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
        unification_checks: pairwise ``unifiable`` probes spent in overlap
            scans (``merged_for``, write validation, read routing) — the
            admission-path cost the signature index prefilters away.
        scanned_partitions: partitions whose atoms were exactly scanned by
            an overlap query.
    """

    merges: int = 0
    max_partition_size: int = 0
    max_composed_atoms: int = 0
    unification_checks: int = 0
    scanned_partitions: int = 0

    def record_size(self, size: int, atoms: int) -> None:
        """Raise the two high-water marks to a partition's new size.

        Called on every append, from concurrent admission lanes too: the
        unlocked comparison only filters, a new maximum is stored under
        the lock.
        """
        if size > self.max_partition_size or atoms > self.max_composed_atoms:
            with _high_water_lock:
                self.max_partition_size = max(self.max_partition_size, size)
                self.max_composed_atoms = max(self.max_composed_atoms, atoms)


class PartitionManager:
    """Owns all partitions and implements merge-on-overlap admission."""

    def __init__(self) -> None:
        self.partitions: list[Partition] = []
        self.statistics = PartitionStatistics()

    # -- introspection -------------------------------------------------------

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.partitions)

    def __len__(self) -> int:
        return len(self.partitions)

    def pending_count(self) -> int:
        """Total number of pending transactions across partitions."""
        return sum(len(p) for p in self.partitions)

    def find(self, transaction_id: int) -> tuple[Partition, "PendingTransaction"] | None:
        """Locate a pending transaction by id."""
        for partition in self.partitions:
            for entry in partition:
                if entry.transaction_id == transaction_id:
                    return partition, entry
        return None

    def partition_of(self, transaction_id: int) -> Partition | None:
        """The partition containing ``transaction_id``, if any."""
        located = self.find(transaction_id)
        return located[0] if located else None

    # -- admission -----------------------------------------------------------

    def overlapping_partitions(self, atoms: Sequence[Atom]) -> list[Partition]:
        """Partitions whose atoms unify with any of ``atoms``.

        The base implementation is the exhaustive pairwise-unification scan
        of the paper; :class:`~repro.sharding.ShardedPartitionManager`
        overrides it with a signature-index prefilter that scans only the
        candidate partitions (bit-identical results — the index is
        conservative and every candidate is still exactly confirmed).
        """
        self.statistics.scanned_partitions += len(self.partitions)
        return [
            p for p in self.partitions if p.overlaps_atoms(atoms, self.statistics)
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
            self.partitions.append(partition)
            self._on_partition_created(partition)
            return partition, False
        if len(overlapping) == 1:
            return overlapping[0], False
        merged = overlapping[0]
        absorbed = overlapping[1:]
        entries = [entry for partition in overlapping for entry in partition]
        entries.sort(key=lambda e: e.sequence)
        for other in absorbed:
            self.partitions.remove(other)
        self._on_partitions_merging(merged, absorbed)
        # The absorbed partitions take their solutions with them; nothing
        # is known about the merged sequence yet.
        merged.pending = entries
        merged.solution = None
        self.statistics.merges += 1
        return merged, True

    def drop_if_empty(self, partition: Partition) -> None:
        """Remove ``partition`` from the manager when it has no pending txns."""
        if not partition.pending and partition in self.partitions:
            self.partitions.remove(partition)
            self._on_partition_dropped(partition)

    # -- subclass hooks ------------------------------------------------------

    def _on_partition_created(self, partition: Partition) -> None:
        """Called after a fresh partition joined the manager (no-op here)."""

    def _on_partitions_merging(
        self, merged: Partition, absorbed: Sequence[Partition]
    ) -> None:
        """Called while ``absorbed`` partitions fold into ``merged``.

        Runs after the absorbed partitions left the partition list but
        before the merged pending sequence is assigned (no-op here).
        """

    def _on_partition_dropped(self, partition: Partition) -> None:
        """Called after an emptied partition left the manager (no-op here)."""
