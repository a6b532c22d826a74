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
record is in one of three states:

* **none** — nothing known (a fresh or freshly merged partition);
* **unverified** — a substitution without a footprint: it satisfied the body
  once, but must be re-verified against the composed body before it is
  trusted (after a delta touched its footprint, after a structural change,
  and always with ``enable_witness=False`` — the seed behaviour);
* **footprinted** — trusted without re-verification until a row-level delta
  touches the footprint.

Because the record is a field of the partition its lifetime *is* the
partition's: a merged-away, emptied or rejected-empty partition takes its
solution with it, and there is no side table to keep in sync.

:func:`compute_admission` is the only verify → extend → solve flow.
Admission, blind-write validation and peek reads all reach it through
:meth:`SolutionCache.ensure`:

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
  differs.  The hit/miss/invalidation/fallback counters let the benchmarks
  report exactly that difference.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.core.composition import OrderComposition
from repro.logic.formula import (
    Conjunction,
    Disjunction,
    Formula,
    Negation,
    TRUE,
)
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable
from repro.relational.database import Database
from repro.solver.grounding import GroundingResult, GroundingSearch
from repro.solver.kernel import Program, conjoin
from repro.solver.sampling import relational_atom_count, sample_find_one
from repro.solver.strategy import AdmissionSearchConfig, dispatch_find_one

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.partition import Partition

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
        for atom in formula.atoms():
            instance = substitution.apply_atom(atom.as_body())
            if instance.is_ground():
                rows.add((instance.relation, instance.ground_values()))
            else:
                relations.add(instance.relation)
        return cls(frozenset(rows), frozenset(relations), monotone)

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
    """The outcome of one pure admission search, plus its cache counters.

    :func:`compute_admission` returns one of these instead of mutating a
    :class:`SolutionCache` directly: the search stays a pure function of
    its arguments, and the cache applies the counters afterwards with
    :meth:`SolutionCache.absorb_probe`, into the lane slice of whichever
    thread ran it.

    Attributes:
        substitution: ground substitution witnessing satisfiability of the
            composed body (plus the new factor when given), or ``None``
            when admission must reject.
        used_witness: True when the decision came from (extending) a
            footprinted record — the fast path.  :meth:`SolutionCache.record`
            then only adds the new factor's rows to the footprint instead
            of re-deriving all of it.
        verifications: composed-body verifications performed.
        extension_hits: successful extensions of the record by a new factor.
        extension_misses: failed extensions.
        full_solves: full grounding searches over the composed body.
        failures: unsatisfiable full solves.
        witness_hits: decisions answered from a footprinted record.
        witness_misses: decisions no footprinted record could serve.
        fallback_searches: times the fast path fell back to composed-body
            work.
        method: which search decided the probe — ``"witness"`` (extension
            of a footprinted record), ``"fastpath"`` (a per-shape fast
            path), ``"backtracking"`` / ``"bnb"`` (the general search
            under the configured strategy), or ``"sampled"`` (the opt-in
            approximate estimator).
        exact: False only when the decision came from the sampling
            estimator — a sampled accept carries a genuine witness but the
            search was not exhaustive, and a sampled reject may be a false
            negative.  Surfaced end-to-end on the commit result.
        exhausted_budget: the configured ``node_budget`` ran out before
            the search decided; admission turns a rejection with this flag
            into the typed ``AdmissionSearchExhausted`` outcome.
        nodes: search nodes expanded by the searches this probe ran — the
            cost of *deciding the admission*, isolated from the grounding
            and serializability searches that share the global
            ``search.nodes`` counter.  The strategy benchmark gates the
            bnb/backtracking ratio of this number.
    """

    substitution: Substitution | None
    used_witness: bool = False
    verifications: int = 0
    extension_hits: int = 0
    extension_misses: int = 0
    full_solves: int = 0
    failures: int = 0
    witness_hits: int = 0
    witness_misses: int = 0
    fallback_searches: int = 0
    method: str = "backtracking"
    exact: bool = True
    exhausted_budget: bool = False
    nodes: int = 0


def compute_admission(
    search: GroundingSearch,
    database: Database,
    *,
    composition: OrderComposition,
    solution: Solution | None,
    new_factor: Formula | Program | None = None,
    new_required: frozenset[Variable] = frozenset(),
    enable_witness: bool = True,
    config: AdmissionSearchConfig | None = None,
) -> AdmissionProbe:
    """The verify → extend → solve flow, as a pure function.

    The only implementation of it: :meth:`SolutionCache.ensure` runs it for
    admissions, blind-write checks and peek reads (mirroring how
    ``compute_grounding_plan`` was factored out of ``QuantumState``).  It
    reads only its arguments and the given store, mutates nothing, and
    reports every counter through the returned :class:`AdmissionProbe`, so
    an admission lane and the serialized writer decide bit-identically by
    construction.

    Args:
        search: the grounding search to run extensions/solves on (the
            cache's shared search).
        database: the store ``search`` runs against (verification oracle).
        composition: the partition's resident composition.  Its composed
            program is only asked for — and its factor programs only
            compiled, each at most once — when a miss makes the composed
            body itself be verified or searched.
        solution: the partition's record.  Footprinted, its substitution
            is trusted as is (the witness); unverified, it is verified
            against the composed body first; ``None``, the body is solved.
        new_factor: factor contributed by a transaction being admitted —
            a formula, or its handle already compiled into the
            composition's scope (requiring ``new_required``) when the
            caller will keep it resident; ``None`` (or ``TRUE``) when only
            re-validating.
        new_required: variables of the new factor that must be ground.
        enable_witness: mirrors ``SolutionCache.enable_witness`` so the
            miss/fallback counters stay comparable with the fast path off.
        config: admission-search strategy selection; ``None`` (and the
            default config) reproduce the seed's plain backtracking search
            byte-for-byte.  Dispatch happens *here*, inside the pure
            function, so inline admission and thread lanes honor the
            strategy bit-identically.
    """
    counters = {
        "verifications": 0,
        "extension_hits": 0,
        "extension_misses": 0,
        "full_solves": 0,
        "failures": 0,
        "witness_hits": 0,
        "witness_misses": 0,
        "fallback_searches": 0,
    }
    outcome = {
        "method": config.strategy if config is not None else "backtracking",
        "exact": True,
        "exhausted": False,
        "nodes": 0,
    }

    def verify(solution: Substitution | None) -> bool:
        if solution is None:
            return False
        counters["verifications"] += 1
        return composition.program().holds(database, solution)

    def run_find(
        program: Program, initial: Substitution | None = None
    ) -> GroundingResult:
        result, method = dispatch_find_one(search, config, program, initial=initial)
        outcome["method"] = method
        outcome["nodes"] += result.statistics.nodes
        if result.statistics.exhausted_budget:
            outcome["exhausted"] = True
        return result

    def extend(base: Substitution, factor: Program | None) -> Substitution | None:
        if factor is None:
            return base
        result = run_find(factor, initial=base)
        counters["extension_hits" if result.satisfiable else "extension_misses"] += 1
        return result.substitution if result.satisfiable else None

    def solve(program: Program) -> Substitution | None:
        counters["full_solves"] += 1
        if (
            config is not None
            and config.sampling is not None
            and relational_atom_count(program.formula) >= config.sampling.threshold
        ):
            # The partition is above the exact-search threshold and the
            # caller explicitly opted into estimation: bounded seeded
            # descents instead of an exhaustive walk.  An accept still
            # carries a genuine witness; the decision is just not exact.
            result = sample_find_one(search, program, sampling=config.sampling)
            outcome["method"] = "sampled"
            outcome["exact"] = False
            outcome["nodes"] += result.statistics.nodes
        else:
            result = run_find(program)
        if not result.satisfiable:
            counters["failures"] += 1
            return None
        return result.substitution

    def probe(
        substitution: Substitution | None, *, used_witness: bool = False
    ) -> AdmissionProbe:
        return AdmissionProbe(
            substitution=substitution,
            used_witness=used_witness,
            method="witness" if used_witness else outcome["method"],
            exact=outcome["exact"],
            exhausted_budget=outcome["exhausted"],
            nodes=outcome["nodes"],
            **counters,
        )

    known = None if solution is None else solution.substitution
    trusted = solution is not None and solution.footprint is not None
    required = frozenset(new_required)
    # The new factor is searched up to twice and then conjoined with the
    # composed body, so it lives in the composition's scope.
    factor = (
        None
        if new_factor is None or new_factor is TRUE
        else new_factor
        if isinstance(new_factor, Program)
        else search.compile(new_factor, required=required, scope=composition.scope)
    )
    if trusted:
        # The fast path: the composed body is not re-walked.  Only a
        # *successful* extension counts as a hit.
        extended = extend(known, factor)
        if extended is not None:
            counters["witness_hits"] += 1
            return probe(extended, used_witness=True)
    if enable_witness:
        counters["witness_misses"] += 1
        counters["fallback_searches"] += 1
    if not trusted and verify(known):
        extended = extend(known, factor)
        if extended is not None:
            return probe(extended)
    # Cache miss: solve the whole composed body including the new factor.
    return probe(
        solve(
            composition.program(required=composition.required())
            if factor is None
            else conjoin(
                [composition.program(), factor],
                required=composition.required() | required,
            )
        )
    )


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
    #: Admissions decided by the opt-in sampling estimator (``exact=False``
    #: probes) — the count of approximate decisions the cache has absorbed.
    sampled_admissions: int = 0
    #: Search nodes expanded deciding admissions (the sum of every absorbed
    #: admission probe's ``nodes``; re-validations are not counted).  Unlike
    #: the global ``search.nodes`` this excludes grounding and
    #: serializability searches, so it is the number the admission-strategy
    #: benchmark compares across strategies.
    admission_nodes: int = 0

    def composed_body_passes(self) -> int:
        """Operations that walked the whole composed body (verify + solve).

        This is the cost metric the admission fast path exists to reduce;
        the Figure 7 fast-path benchmark asserts the witness cache cuts it
        by at least 2x.
        """
        return self.verifications + self.full_solves


class SolutionCache:
    """Keeper of the partitions' :class:`Solution` records.

    It holds no solution itself — each record is a field of its partition —
    only the shared search, the counters, and the rules that move a record
    between its states.

    Args:
        database: the extensional store searches run against.
        enable_witness: when False no record is ever footprinted, so every
            admission re-verifies the composed body from scratch (the seed
            behaviour); accept/reject decisions are unaffected.  Used by
            benchmarks to measure the fast path.
        search_config: admission-search strategy passed to every
            :func:`compute_admission` this cache runs; ``None`` keeps the
            seed's plain backtracking search.
    """

    def __init__(
        self,
        database: Database,
        *,
        enable_witness: bool = True,
        search_config: AdmissionSearchConfig | None = None,
    ) -> None:
        self.database = database
        self.search = GroundingSearch(database)
        self.statistics = SolutionCacheStatistics()
        self.enable_witness = enable_witness
        self.search_config = search_config
        #: Per-lane statistics slices (lane id → counters).  While a thread
        #: runs inside :meth:`lane_scope` every counter lands in its lane's
        #: slice instead of the shared object, so concurrent admission lanes
        #: never lose increments to read-modify-write races;
        #: :meth:`merged_statistics` reconciles the slices for reporting.
        self._lane_statistics: dict[int, SolutionCacheStatistics] = {}
        #: Guards lane-slice creation against a concurrent merge snapshot
        #: (a report must never iterate the dict mid-resize).
        self._lane_statistics_lock = threading.Lock()
        self._local = threading.local()

    # -- per-lane accounting -------------------------------------------------

    @property
    def _stats(self) -> SolutionCacheStatistics:
        """The active statistics target: the lane slice, or the shared one."""
        return getattr(self._local, "stats", None) or self.statistics

    def lane_statistics(self, lane_id: int) -> SolutionCacheStatistics:
        """The (lazily created) statistics slice of one admission lane."""
        with self._lane_statistics_lock:
            slice_ = self._lane_statistics.get(lane_id)
            if slice_ is None:
                slice_ = self._lane_statistics[lane_id] = SolutionCacheStatistics()
            return slice_

    def has_lane_statistics(self) -> bool:
        """True once any admission lane recorded into a per-lane slice."""
        with self._lane_statistics_lock:
            return bool(self._lane_statistics)

    @contextmanager
    def lane_scope(self, lane_id: int) -> Iterator[SolutionCacheStatistics]:
        """Route this thread's cache counters into a lane's slice."""
        previous = getattr(self._local, "stats", None)
        slice_ = self.lane_statistics(lane_id)
        self._local.stats = slice_
        try:
            yield slice_
        finally:
            self._local.stats = previous

    def merged_statistics(self) -> SolutionCacheStatistics:
        """The shared counters plus every lane slice, reconciled.

        This is what reports should read: with admission lanes active the
        witness hits/misses of concurrent admissions accumulate in per-lane
        slices (exact, no lost updates) and only the sum describes the
        whole cache.
        """
        merged = SolutionCacheStatistics()
        with self._lane_statistics_lock:
            sources = [self.statistics, *self._lane_statistics.values()]
        for field in fields(SolutionCacheStatistics):
            total = sum(getattr(source, field.name) for source in sources)
            setattr(merged, field.name, total)
        return merged

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
            partition.solution = Solution(substitution)
            return
        base = partition.solution.footprint if partition.solution else None
        if extends is not None and base is not None:
            footprint = Footprint.of(extends, substitution, base)
        else:
            footprint = Footprint.of(partition.composed_formula(), substitution)
        partition.solution = Solution(substitution, footprint)

    def notify_deltas(
        self, deltas: Sequence[Delta], partitions: Iterable[Partition]
    ) -> None:
        """Un-trust the records whose footprint a committed delta touches.

        Called after blind writes commit and after grounded update portions
        execute.  Deltas that miss a record's footprint leave it trusted —
        this is the precise invalidation that lets the admission fast path
        skip re-verification most of the time.
        """
        if not deltas:
            return
        for partition in list(partitions):
            solution = partition.solution
            if solution is not None and solution.touched_by(deltas):
                partition.solution = solution.unverified()
                self._stats.witness_invalidations += 1

    # -- the one flow -----------------------------------------------------------

    def ensure(
        self,
        partition: Partition,
        new_factor: Formula | Program | None = None,
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
                updates), as a formula or compiled into the partition
                composition's scope; ``None`` when only re-validating.
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
        solution = partition.solution
        if solution is not None and uncommitted and solution.touched_by(uncommitted):
            solution = solution.unverified()
        admitting = new_factor is not None and new_factor is not TRUE
        probe = compute_admission(
            self.search,
            self.database,
            composition=partition.composition(),
            solution=solution,
            new_factor=new_factor,
            new_required=frozenset(new_required),
            enable_witness=self.enable_witness,
            config=self.search_config,
        )
        self.absorb_probe(probe, admitting=admitting)
        if (
            not admitting
            and uncommitted is None
            and not probe.used_witness
            and probe.substitution is not None
        ):
            # Re-validation re-verified or re-solved the whole composed
            # body over the committed store: the result is the record.
            self.record(partition, probe.substitution)
        return probe

    def absorb_probe(self, probe: AdmissionProbe, *, admitting: bool = True) -> None:
        """Apply a probe's counters to this cache.

        :meth:`ensure` funnels every search through here.  Lands in the
        active lane slice like any other counter update.
        ``admission_nodes`` and ``sampled_admissions`` only count searches
        that decided an arrival (``admitting``), not re-validations.
        """
        stats = self._stats
        stats.verifications += probe.verifications
        stats.extension_hits += probe.extension_hits
        stats.extension_misses += probe.extension_misses
        stats.full_solves += probe.full_solves
        stats.failures += probe.failures
        stats.witness_hits += probe.witness_hits
        stats.witness_misses += probe.witness_misses
        stats.fallback_searches += probe.fallback_searches
        if admitting:
            stats.admission_nodes += probe.nodes
            if probe.method == "sampled":
                stats.sampled_admissions += 1
