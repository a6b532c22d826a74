"""The solution cache: one known grounding per partition, and the one flow
that verifies, extends or re-solves it.

"The prototype maintains an in-memory cache of possible solutions (i.e.,
value assignments) to the composed transaction bodies.  When a new resource
transaction arrives in the system, we check whether an existing solution in
the cache can be extended to accommodate the new transaction.  If this is
not possible, then we generate a LIMIT 1 SQL query corresponding to the body
of the new composed transaction" (Section 4).

Exactly like the paper's prototype ("maintains a single solution in the
cache for every composed transaction") there is one solution per partition,
and it lives *on* the partition: :attr:`Partition.solution
<repro.core.partition.Partition.solution>` is a :class:`Solution` record —
a satisfying substitution of the composed hard body plus, optionally, the
:class:`Footprint` of extensional rows it grounds the body's atoms on.  The
cache moves a record between its states and writes it through
:meth:`PartitionManager.set_solution
<repro.core.partition.PartitionManager.set_solution>`, the one writer,
which also keeps the manager's set of loose records current.  The record
is in one of three states:

* **none** — nothing known (a fresh or freshly merged partition);
* **unverified** — a substitution without a footprint: it satisfied the body
  once, but must be re-verified against the composed body before it is
  trusted (after a delta touched its footprint, after a grounded prefix
  left the partition, and always with ``enable_witness=False`` — the seed
  behaviour);
* **footprinted** — trusted without re-verification until a row-level delta
  touches the footprint.

Because the record is a field of the partition its lifetime *is* the
partition's: a merged-away, emptied or rejected-empty partition takes its
solution with it, and there is no side table to keep in sync (a merge
leaves the surviving partition with none).

:meth:`SolutionCache.ensure` is the only verify → extend → solve flow.
Admission, blind-write validation and peek reads all run it:

* **admission** — a footprinted record is extended by searching only the
  newly arrived transaction's factor; the composed body is not re-walked;
* **precise invalidation** — blind writes and grounding executions report
  their row-level deltas through :meth:`SolutionCache.notify_deltas`; a
  record loses its footprint only when a delta actually touches one of the
  rows it grounds on (deletes) or could flip a non-monotone factor (inserts
  under negated relational atoms, which composed bodies do not produce —
  their negations come from unification predicates and never mention the
  store);
* **fallback** — without a trusted record the seed's verify → extend → solve
  flow runs (the ``LIMIT 1`` analogue), so accept/reject decisions are
  identical with the fast path on or off; only the amount of re-search
  differs.  The hit/miss/invalidation/fallback counters report exactly
  that difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.logic.formula import Conjunction, Disjunction, Formula, Negation
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.relational.database import Database
from repro.solver.grounding import GroundingSearch
from repro.solver.kernel import Program, conjoin
from repro.solver.strategy import AdmissionSearchConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partition import Partition, PartitionManager

#: A row-level delta: ``(table, positional row values, is_delete)``.
Delta = tuple[str, tuple[Any, ...], bool]

#: Identity of an extensional row: ``(table, positional values)``.
RowKey = tuple[str, tuple[Any, ...]]


def _has_negated_atoms(formula: Formula) -> bool:
    """True if any relational atom occurs under a negation.

    Composed bodies never have one (their negations wrap unification
    predicates, which are pure equality constraints), but the cache checks
    rather than assumes: a witness of a non-monotone formula must also be
    invalidated by inserts, not just deletes.
    """
    if isinstance(formula, Negation):
        return bool(formula.inner.atoms())
    if isinstance(formula, (Conjunction, Disjunction)):
        return any(_has_negated_atoms(part) for part in formula.parts)
    return False


@dataclass(frozen=True)
class Footprint:
    """The extensional rows a satisfying substitution grounds a body on.

    Attributes:
        rows: ground instantiations of the composed body's atoms under the
            substitution; the only extensional rows whose presence or
            absence the body's truth value (under this fixed substitution)
            can depend on.
        relations: relations of atoms whose instantiation stayed non-ground
            (auxiliary variables outside the required set); deltas on these
            relations invalidate conservatively.
        monotone: True when no relational atom occurs under a negation, in
            which case inserts can never invalidate the solution.
    """

    rows: frozenset[RowKey]
    relations: frozenset[str]
    monotone: bool

    @classmethod
    def of(
        cls,
        formula: Formula,
        substitution: Substitution,
        base: "Footprint | None" = None,
    ) -> "Footprint":
        """The footprint of ``substitution`` on ``formula``, added to ``base``.

        ``base`` carries the footprint of everything before ``formula`` when
        the substitution extends one that was already footprinted: the old
        factors keep their rows, since an extension never rebinds the old
        variables.
        """
        rows: set[RowKey] = set(base.rows) if base is not None else set()
        relations: set[str] = set(base.relations) if base is not None else set()
        monotone = not _has_negated_atoms(formula) and (
            base is None or base.monotone
        )
        # An atom's instance under the substitution, read off its terms: a
        # row when every term became a constant.
        apply_term = substitution.apply_term
        for atom in formula.atoms():
            terms = [apply_term(term) for term in atom.terms]
            if all(isinstance(term, Constant) for term in terms):
                rows.add((atom.relation, tuple(term.value for term in terms)))
            else:
                relations.add(atom.relation)
        return cls(frozenset(rows), frozenset(relations), monotone)

    @property
    def loose(self) -> bool:
        """True when a delta can touch the footprint without naming one of
        its rows: some atom stayed non-ground, or the body is non-monotone.
        Delta notification cannot route such a footprint by rows."""
        return bool(self.relations) or not self.monotone

    def touched_by(self, deltas: Iterable[Delta]) -> bool:
        """True if any delta could change the footprinted body's truth value."""
        for table, values, is_delete in deltas:
            if not is_delete and self.monotone:
                continue
            if (table, values) in self.rows or table in self.relations:
                return True
        return False


@dataclass(frozen=True)
class Solution:
    """A partition's one known grounding (see the module docstring).

    Attributes:
        substitution: ground substitution that satisfied the partition's
            composed hard body when the record was written.
        footprint: the rows it grounds on, or ``None`` when the
            substitution must be re-verified against the composed body
            before it is trusted.
    """

    substitution: Substitution
    footprint: Footprint | None = None

    def unverified(self) -> "Solution":
        """The same substitution, no longer trusted without verification."""
        return self if self.footprint is None else Solution(self.substitution)

    def touched_by(self, deltas: Iterable[Delta]) -> bool:
        """True if the record is footprinted and a delta touches the footprint."""
        return self.footprint is not None and self.footprint.touched_by(deltas)


@dataclass(frozen=True)
class AdmissionProbe:
    """The outcome of one :meth:`SolutionCache.ensure`.

    Attributes:
        substitution: ground substitution witnessing satisfiability of the
            composed body (plus the new factor when given), or ``None``
            when admission must reject.
        used_witness: True when the decision came from (extending) a
            footprinted record — the fast path.  :meth:`SolutionCache.record`
            then only adds the new factor's rows to the footprint instead
            of re-deriving all of it.
        method: which search decided the probe — ``"witness"`` (extension
            of a footprinted record) or ``"backtracking"`` (the exact
            search: verification, extension or full solve).  Surfaced
            end-to-end on the commit result.
        exhausted_budget: the configured ``node_budget`` ran out before
            the search decided; admission turns a rejection with this flag
            into the typed ``AdmissionSearchExhausted`` outcome.
    """

    substitution: Substitution | None
    used_witness: bool = False
    method: str = "backtracking"
    exhausted_budget: bool = False


@dataclass
class SolutionCacheStatistics:
    """Counters describing solution-cache behaviour."""

    verifications: int = 0
    extension_hits: int = 0
    extension_misses: int = 0
    full_solves: int = 0
    failures: int = 0
    #: Admissions / write checks answered from a footprinted record
    #: (composed-body re-verification skipped entirely).
    witness_hits: int = 0
    #: Admissions / write checks no footprinted record could serve (none,
    #: unverified, touched by the write, or its extension failed).
    witness_misses: int = 0
    #: Records that lost their footprint because a row-level delta touched it.
    witness_invalidations: int = 0
    #: Times the fast path fell back to work over the full composed body
    #: (a verification or a full grounding search).
    fallback_searches: int = 0
    #: Search nodes expanded deciding admissions (re-validations are not
    #: counted).  Unlike the global ``search.nodes`` this excludes grounding
    #: and serializability searches, so it is the number to compare across
    #: admission-search configurations.
    admission_nodes: int = 0

    def composed_body_passes(self) -> int:
        """Operations that walked the whole composed body (verify + solve).

        This is the cost metric the admission fast path exists to reduce;
        ``tests/core/test_work_bounds.py`` holds the witness cache to at
        least a 2x cut on the Figure 7 workload.
        """
        return self.verifications + self.full_solves


class SolutionCache:
    """Keeper of the partitions' :class:`Solution` records.

    It holds no solution itself — each record is a field of its partition,
    written through the partitions' manager — only the shared search, the
    counters, and the rules that move a record between its states.

    Args:
        database: the extensional store searches run against.
        partitions: the manager of the partitions whose records it keeps.
        enable_witness: when False no record is ever footprinted, so every
            admission re-verifies the composed body from scratch (the seed
            behaviour); accept/reject decisions are unaffected.  Used to
            measure the fast path.
        search_config: the node budget every :meth:`ensure` searches
            under; ``None`` is the default config (unbounded search).
    """

    def __init__(
        self,
        database: Database,
        partitions: PartitionManager,
        *,
        enable_witness: bool = True,
        search_config: AdmissionSearchConfig | None = None,
    ) -> None:
        self.database = database
        self.partitions = partitions
        self.search = GroundingSearch(database)
        self.statistics = SolutionCacheStatistics()
        self.enable_witness = enable_witness
        self.search_config = (
            search_config if search_config is not None else AdmissionSearchConfig()
        )

    # -- the record's transitions ---------------------------------------------

    def record(
        self,
        partition: Partition,
        substitution: Substitution,
        *,
        extends: Formula | None = None,
    ) -> None:
        """Make ``substitution`` the partition's solution, footprinted.

        Args:
            partition: the partition, already in the structure (pending
                sequence) the substitution satisfies.
            substitution: a satisfying substitution of its composed body
                over the current store.
            extends: when the substitution extends the partition's
                footprinted record by one new factor (the admission fast
                path), that factor: only its rows are added to the
                footprint.  Otherwise the whole composed body is walked.
        """
        if not self.enable_witness:
            self.partitions.set_solution(partition, Solution(substitution))
            return
        base = partition.solution.footprint if partition.solution else None
        if extends is not None and base is not None:
            footprint = Footprint.of(extends, substitution, base)
        else:
            footprint = Footprint.of(partition.composed_formula(), substitution)
        self.partitions.set_solution(partition, Solution(substitution, footprint))

    def withdraw(self, partition: Partition) -> None:
        """Keep the partition's substitution but stop trusting it.

        Called when a grounded prefix left the partition: the record has to
        be re-verified before it is trusted again.  Unlike
        :meth:`notify_deltas` this counts no invalidation.
        """
        solution = partition.solution
        if solution is not None:
            self.partitions.set_solution(partition, solution.unverified())

    def notify_deltas(self, deltas: Sequence[Delta]) -> None:
        """Un-trust the records whose footprint a committed delta touches.

        Called after blind writes commit, after grounded update portions
        execute and after a bulk load.  Deltas that miss a record's
        footprint leave it trusted — this is the precise invalidation that
        lets the admission fast path skip re-verification most of the time.
        Only the partitions the deltas' rows route to, plus the loose
        records, are examined (:meth:`PartitionManager.delta_candidates
        <repro.core.partition.PartitionManager.delta_candidates>`).
        """
        if not deltas:
            return
        for partition in self.partitions.delta_candidates(deltas):
            solution = partition.solution
            if solution is not None and solution.touched_by(deltas):
                self.partitions.set_solution(partition, solution.unverified())
                self.statistics.witness_invalidations += 1

    # -- the one flow -----------------------------------------------------------

    def ensure(
        self,
        partition: Partition,
        new_factor: Program | None = None,
        new_required: Iterable[Variable] = (),
        *,
        uncommitted: Sequence[Delta] | None = None,
    ) -> AdmissionProbe:
        """Ensure the partition (plus an optional new factor) is satisfiable.

        The fast path: while the partition's record is footprinted the
        composed body is *not* re-verified — only ``new_factor`` is
        searched, extending the record.  Otherwise the seed flow (verify the
        unverified record → extend → full solve) runs, so the fast path
        never changes which transactions are admitted.

        Args:
            partition: the partition whose invariant must hold.
            new_factor: factor contributed by a transaction being admitted
                (its body rewritten against the partition's accumulated
                updates), compiled into the partition composition's scope
                (it is searched up to twice and then conjoined with the
                composed body); ``None`` when only re-validating.
            new_required: variables of the new factor that must be ground.
            uncommitted: the row-level deltas of a blind write that is
                applied but not yet committed (the write check).  The
                record is trusted only if they miss its footprint, and the
                outcome is not recorded: the caller does that once the
                write commits.

        Returns:
            The probe: its ``substitution`` witnesses satisfiability of the
            composed body (including the new factor when given) or is
            ``None`` when the invariant cannot be maintained — in which
            case the caller must reject the transaction or write.
        """
        stats = self.statistics
        config = self.search_config
        composition = partition.composition()
        solution = partition.solution
        if solution is not None and uncommitted and solution.touched_by(uncommitted):
            solution = solution.unverified()
        required = frozenset(new_required)
        method = "backtracking"
        exhausted = False
        nodes = 0

        def run_find(program: Program, initial: Substitution | None = None):
            nonlocal exhausted, nodes
            result = self.search.find_one(
                program, initial=initial, node_budget=config.node_budget
            )
            nodes += result.statistics.nodes
            exhausted = exhausted or result.statistics.exhausted_budget
            return result

        def extend(base: Substitution) -> Substitution | None:
            if new_factor is None:
                return base
            result = run_find(new_factor, initial=base)
            if result.satisfiable:
                stats.extension_hits += 1
                return result.substitution
            stats.extension_misses += 1
            return None

        known = None if solution is None else solution.substitution
        trusted = solution is not None and solution.footprint is not None
        substitution = None
        if trusted:
            # The fast path: the composed body is not re-walked.  Only a
            # *successful* extension counts as a hit.
            substitution = extend(known)
        used_witness = substitution is not None
        if used_witness:
            stats.witness_hits += 1
            method = "witness"
        else:
            if self.enable_witness:
                stats.witness_misses += 1
                stats.fallback_searches += 1
            if not trusted and known is not None:
                stats.verifications += 1
                if composition.program().holds(self.database, known):
                    substitution = extend(known)
        if substitution is None:
            # Cache miss: solve the whole composed body including the new
            # factor (the ``LIMIT 1`` analogue).
            program = (
                composition.program(required=composition.required())
                if new_factor is None
                else conjoin(
                    [composition.program(), new_factor],
                    required=composition.required() | required,
                )
            )
            stats.full_solves += 1
            result = run_find(program)
            if result.satisfiable:
                substitution = result.substitution
            else:
                stats.failures += 1
        if new_factor is not None:
            # Only searches that decided an arrival count here, not
            # re-validations.
            stats.admission_nodes += nodes
        elif uncommitted is None and not used_witness and substitution is not None:
            # Re-validation re-verified or re-solved the whole composed
            # body over the committed store: the result is the record.
            self.record(partition, substitution)
        return AdmissionProbe(substitution, used_witness, method, exhausted)
