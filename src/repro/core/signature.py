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

Imprecision fallback: constants are posted under their Python value, which
must be hashable.  An unhashable constant (exotic, but legal in an atom)
cannot be posted; its partition is marked *imprecise* and is returned as a
candidate for every probe, and an unhashable probe constant simply leaves
its position unconstrained.  Either way the exact scan still decides, so
the fallback degrades performance, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

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

    Maintained incrementally: :meth:`extend` posts one new pending entry's
    atoms (signatures only grow on admission), :meth:`refresh` rebuilds one
    partition after a structural change (merge, grounding), and
    :meth:`discard` forgets a partition.  :meth:`candidates` answers the
    routing question.
    """

    def __init__(self) -> None:
        #: posting key → partition ids.
        self._postings: dict[PostingKey, set[int]] = {}
        #: partition id → posting keys it occupies (for cheap removal).
        self._keys: dict[int, set[PostingKey]] = {}
        #: partitions holding an unhashable constant; always candidates.
        self._imprecise: set[int] = set()
        self.statistics = SignatureIndexStatistics()

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, partition_id: int) -> bool:
        return partition_id in self._keys

    def is_imprecise(self, partition_id: int) -> bool:
        """True when the partition fell back to always-candidate routing."""
        return partition_id in self._imprecise

    # -- maintenance ---------------------------------------------------------

    def add(self, partition: "Partition") -> None:
        """Index a partition from scratch (its current atoms)."""
        pid = partition.partition_id
        self._keys.setdefault(pid, set())
        self._post_atoms(pid, partition.atoms())

    def extend(self, partition: "Partition", entry: "PendingTransaction") -> None:
        """Post one newly appended pending entry (incremental admission).

        Signatures only grow on appends, so no existing posting needs to be
        revisited — this is the steady-state maintenance cost: a few set
        insertions per admitted transaction.
        """
        pid = partition.partition_id
        self._keys.setdefault(pid, set())
        atoms = tuple(entry.renamed.body) + tuple(entry.renamed.updates)
        self._post_atoms(pid, atoms)

    def refresh(self, partition: "Partition") -> None:
        """Rebuild one partition's postings after a structural change."""
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
        self._imprecise.discard(partition_id)

    def _post(self, pid: int, key: PostingKey) -> None:
        if key not in self._keys[pid]:
            self._keys[pid].add(key)
            self._postings.setdefault(key, set()).add(pid)
            self.statistics.postings += 1

    def _post_atoms(self, pid: int, atoms: Iterable[Atom]) -> None:
        for atom in atoms:
            relation, arity = atom.relation, atom.arity
            self._post(pid, ("r", relation, arity))
            for position, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    try:
                        self._post(pid, ("c", relation, arity, position, term.value))
                    except TypeError:
                        # Unhashable constant: this partition cannot be
                        # routed precisely; fall back to always-candidate.
                        self._imprecise.add(pid)
                else:
                    self._post(pid, ("w", relation, arity, position))

    # -- routing -------------------------------------------------------------

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
            relation, arity = atom.relation, atom.arity
            base = self._postings.get(("r", relation, arity))
            if not base:
                continue
            narrowed: set[int] | None = None
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Constant):
                    continue
                try:
                    with_constant = self._postings.get(
                        ("c", relation, arity, position, term.value), _EMPTY
                    )
                except TypeError:
                    # Unhashable probe constant: leave the position
                    # unconstrained (conservative).
                    continue
                with_wildcard = self._postings.get(
                    ("w", relation, arity, position), _EMPTY
                )
                allowed = set(with_constant) | set(with_wildcard)
                narrowed = allowed if narrowed is None else (narrowed & allowed)
                if not narrowed:
                    break
            if narrowed is None:
                found |= base
            else:
                found |= narrowed
        if self._imprecise:
            self.statistics.imprecise_probes += 1
            found |= self._imprecise
        return frozenset(found)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SignatureIndex partitions={len(self._keys)} "
            f"postings={self.statistics.postings}>"
        )
