"""The signature-based routing index over partition atoms.

``PartitionManager.merged_for`` decides which partition an incoming
resource transaction belongs to by pairwise unification.  Against *every*
atom of *every* partition that scan measured ~36% of the admission path on
the Figure 7 workload, growing with the pending count — and almost all of
that work answers "no": on constant-pinned workloads (each booking names
its flight) a transaction can only ever unify with the one partition
holding the same constants.  The partition manager therefore routes every
overlap query through this index and scans only its candidates.

:class:`SignatureIndex` turns that observation into a conservative
prefilter.  For every partition it records, per ``(relation, arity)`` and
per argument position, which constants appear there and whether any atom
leaves the position variable (a *wildcard*).  Two atoms of the same
relation and arity unify exactly when every position is compatible —
equal constants, or a variable on either side — so a partition can only
contain a unifier for a probe atom if, at every constant position of the
probe, the partition shows either that constant or a wildcard.  The
per-position aggregation makes the test a superset of the truth
(compatibility is checked position-by-position rather than atom-by-atom),
which is precisely what a prefilter needs: **no false negatives, ever** —
every partition the exhaustive scan would find is a candidate, and the
exact scan then runs only on candidates, keeping decisions bit-identical.

The index is an inverted one: postings map ``(relation, arity)``,
``(relation, arity, position, constant)`` and ``(relation, arity,
position)``-wildcard keys to partition-id sets, so candidate lookup is a
handful of set intersections — near-O(1) on constant-pinned workloads,
independent of the number of partitions.

Postings are counted: per partition the index keeps, for every key, how
many of its atoms post it.  An append adds one entry's atoms
(:meth:`SignatureIndex.extend`), a grounding retracts only the grounded
entries' atoms (:meth:`SignatureIndex.retract`), and a key leaves the
partition's postings when its count reaches zero — the counting algorithm
of incremental view maintenance (Gupta, Mumick & Subrahmanian, SIGMOD
1993).  Only a merge, which reorders whole pending sequences, re-derives a
partition (:meth:`SignatureIndex.refresh`).

Imprecision fallback: constants are posted under their Python value, which
must be hashable.  An unhashable constant (exotic, but legal in an atom)
cannot be posted; its partition is marked *imprecise* (for as long as an
atom with one is pending there) and is returned as a candidate for every
probe, and an unhashable probe constant simply leaves its position
unconstrained.  Either way the exact scan still decides, so the fallback
degrades performance, never correctness.

The same postings route row-level deltas (:meth:`SignatureIndex.row_candidates`):
a committed row is a ground atom, and a partition can hold a footprint row
equal to it only if one of its atoms has that row as a ground instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Iterable, Sequence

from repro.logic.atoms import Atom
from repro.logic.terms import Constant

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partition import Partition
    from repro.core.quantum_state import PendingTransaction

#: Tagged posting keys: ("r", relation, arity) — partition has an atom of
#: this shape; ("c", relation, arity, position, value) — with this constant
#: at this position; ("w", relation, arity, position) — with a variable at
#: this position.
PostingKey = tuple

_EMPTY: frozenset[int] = frozenset()


@dataclass
class SignatureIndexStatistics:
    """Counters describing routing-index behaviour.

    Attributes:
        probes: candidate lookups served.
        imprecise_probes: lookups that had to include imprecise partitions
            (unhashable constants) — the fallback path.
        postings: live posting entries (gauge, kept current).
    """

    probes: int = 0
    imprecise_probes: int = 0
    postings: int = 0


class SignatureIndex:
    """Conservative constant-set/wildcard index over partition atoms.

    Maintained incrementally with counted postings: :meth:`extend` posts
    one new pending entry's atoms, :meth:`retract` withdraws grounded
    entries' atoms, :meth:`refresh` rebuilds one partition after a merge,
    and :meth:`discard` forgets a partition.  :meth:`candidates` answers the
    routing question, :meth:`row_candidates` the delta-routing one.
    """

    def __init__(self) -> None:
        #: posting key → partition ids.
        self._postings: dict[PostingKey, set[int]] = {}
        #: partition id → posting key → how many of its atoms post the key.
        self._keys: dict[int, dict[PostingKey, int]] = {}
        #: partition id → how many unhashable constants its atoms hold; such
        #: a partition is imprecise and always a candidate.
        self._imprecise: dict[int, int] = {}
        self.statistics = SignatureIndexStatistics()

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, partition_id: int) -> bool:
        return partition_id in self._keys

    # -- maintenance ---------------------------------------------------------

    def add(self, partition: "Partition") -> None:
        """Index a partition not indexed yet, from its current atoms."""
        pid = partition.partition_id
        self._keys.setdefault(pid, {})
        self._count_atoms(pid, partition.atoms(), 1)

    def extend(self, partition: "Partition", entry: "PendingTransaction") -> None:
        """Post one newly appended pending entry (incremental admission).

        Signatures only grow on appends, so no existing posting needs to be
        revisited — this is the steady-state maintenance cost: a few count
        increments per admitted transaction.
        """
        pid = partition.partition_id
        self._keys.setdefault(pid, {})
        self._count_atoms(pid, _entry_atoms(entry), 1)

    def retract(
        self, partition: "Partition", entries: Iterable["PendingTransaction"]
    ) -> None:
        """Withdraw entries that left the partition (a grounded prefix).

        Only their atoms are visited: a key stays posted while another
        pending atom of the partition still posts it.
        """
        pid = partition.partition_id
        for entry in entries:
            self._count_atoms(pid, _entry_atoms(entry), -1)

    def refresh(self, partition: "Partition") -> None:
        """Rebuild one partition's postings (after a merge)."""
        self.discard(partition.partition_id)
        self.add(partition)

    def discard(self, partition_id: int) -> None:
        """Forget a partition (merged away, emptied, or rejected empty)."""
        for key in self._keys.pop(partition_id, ()):
            posting = self._postings.get(key)
            if posting is not None:
                posting.discard(partition_id)
                if not posting:
                    del self._postings[key]
                self.statistics.postings -= 1
        self._imprecise.pop(partition_id, None)

    def _count_atoms(self, pid: int, atoms: Iterable[Atom], step: int) -> None:
        """Move the counts of every key ``atoms`` post for ``pid`` by
        ``step``; a key is posted when its count leaves zero and unposted
        when it returns there."""
        counts = self._keys[pid]
        postings = self._postings
        for atom in atoms:
            relation, arity = atom.relation, atom.arity
            keys: list[PostingKey] = [("r", relation, arity)]
            for position, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    value = term.value
                    try:
                        hash(value)
                    except TypeError:
                        # Unhashable constant: this partition cannot be
                        # routed precisely; fall back to always-candidate.
                        unhashable = self._imprecise.get(pid, 0) + step
                        if unhashable:
                            self._imprecise[pid] = unhashable
                        else:
                            del self._imprecise[pid]
                        continue
                    keys.append(("c", relation, arity, position, value))
                else:
                    keys.append(("w", relation, arity, position))
            for key in keys:
                count = counts.get(key, 0) + step
                if count:
                    counts[key] = count
                    if count == step:
                        postings.setdefault(key, set()).add(pid)
                        self.statistics.postings += 1
                    continue
                del counts[key]
                posting = postings[key]
                posting.discard(pid)
                if not posting:
                    del postings[key]
                self.statistics.postings -= 1

    # -- routing -------------------------------------------------------------

    def _matching(
        self, relation: str, arity: int, values: Iterable[tuple[int, object]]
    ) -> AbstractSet[int]:
        """Partitions with an atom of ``relation``/``arity`` compatible with
        the ``(position, value)`` constants given (read-only)."""
        base = self._postings.get(("r", relation, arity))
        if not base:
            return _EMPTY
        narrowed: set[int] | None = None
        for position, value in values:
            try:
                with_constant = self._postings.get(
                    ("c", relation, arity, position, value), _EMPTY
                )
            except TypeError:
                # Unhashable probe constant: leave the position
                # unconstrained (conservative).
                continue
            with_wildcard = self._postings.get(("w", relation, arity, position), _EMPTY)
            allowed = with_constant | with_wildcard
            narrowed = allowed if narrowed is None else (narrowed & allowed)
            if not narrowed:
                return _EMPTY
        return base if narrowed is None else narrowed

    def candidates(self, atoms: Sequence[Atom]) -> frozenset[int]:
        """Partition ids that could hold a unifier for any of ``atoms``.

        Conservative: a superset of the partitions the exhaustive
        pairwise-unification scan would report (imprecise partitions are
        always included).  The caller confirms each candidate with the
        exact scan, so routing decisions stay bit-identical to an
        exhaustive scan.
        """
        self.statistics.probes += 1
        found: set[int] = set()
        for atom in atoms:
            found |= self._matching(
                atom.relation,
                atom.arity,
                (
                    (position, term.value)
                    for position, term in enumerate(atom.terms)
                    if isinstance(term, Constant)
                ),
            )
        if self._imprecise:
            self.statistics.imprecise_probes += 1
            found.update(self._imprecise)
        return frozenset(found)

    def row_candidates(self, rows: Iterable[tuple[str, tuple]]) -> set[int]:
        """Partition ids with an atom that has one of ``rows`` as a ground
        instance (imprecise partitions always included).

        Each ``(table, values)`` row is routed as the ground atom
        ``table(values...)``.  Not counted as a probe: these are delta
        notifications, not overlap queries.
        """
        found: set[int] = set(self._imprecise)
        if not self._postings:
            return found
        for table, values in rows:
            found |= self._matching(table, len(values), enumerate(values))
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SignatureIndex partitions={len(self._keys)} "
            f"postings={self.statistics.postings}>"
        )


def _entry_atoms(entry: "PendingTransaction") -> tuple[Atom, ...]:
    """Every atom one pending entry posts: its body, then its updates."""
    return tuple(entry.renamed.body) + tuple(entry.renamed.updates)
