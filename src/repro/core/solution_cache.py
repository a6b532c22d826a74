"""The solution cache: cached groundings (witnesses) for composed bodies.

"The prototype maintains an in-memory cache of possible solutions (i.e.,
value assignments) to the composed transaction bodies.  When a new resource
transaction arrives in the system, we check whether an existing solution in
the cache can be extended to accommodate the new transaction.  If this is
not possible, then we generate a LIMIT 1 SQL query corresponding to the body
of the new composed transaction" (Section 4).

The cache stores one :class:`Witness` per partition: the last satisfying
substitution for the partition's composed hard body, together with the set
of extensional rows that substitution grounds the body's atoms on.  The
witness powers the *incremental admission fast path*:

* **admission** — while a partition's witness is known-valid, the expensive
  re-verification of the whole composed body is skipped entirely and only
  the newly arrived transaction's factor is searched (extending the
  witness);
* **precise invalidation** — blind writes and grounding executions report
  their row-level deltas through :meth:`SolutionCache.notify_deltas`; a
  witness is dropped only when a delta actually touches one of the rows it
  grounds on (deletes) or could flip a non-monotone factor (inserts under
  negated relational atoms, which composed bodies do not produce — their
  negations come from unification predicates and never mention the store);
* **fallback** — on a witness miss the seed's verify → extend → solve flow
  runs unchanged (the ``LIMIT 1`` analogue), so accept/reject decisions are
  identical with the fast path on or off; only the amount of re-search
  differs.  The hit/miss/invalidation/fallback counters let the benchmarks
  report exactly that difference.

The cache keeps one witness per partition, exactly like the paper's
prototype ("our current prototype ... maintains a single solution in the
cache for every composed transaction").
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Iterable, Iterator, Sequence

from repro.core.composition import OrderComposition
from repro.core.partition import Partition
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
from repro.solver.kernel import Program, compile_formula, conjoin
from repro.solver.sampling import relational_atom_count, sample_find_one
from repro.solver.strategy import AdmissionSearchConfig, dispatch_find_one

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
class AdmissionProbe:
    """The outcome of one pure admission search, plus its cache counters.

    :func:`compute_admission` returns one of these instead of mutating a
    :class:`SolutionCache` directly, which is what lets the identical
    search run on a process-pool worker against a snapshot store: the
    probe is picklable, carries no object references into the writer's
    heap, and the writer applies it with :meth:`SolutionCache.absorb_probe`
    exactly as if the search had run inline.

    Attributes:
        substitution: ground substitution witnessing satisfiability of the
            composed body (plus the new factor when given), or ``None``
            when admission must reject.
        used_witness: True when the decision came from extending a
            known-valid witness (the fast path) — the writer uses this to
            choose between an incremental and a full footprint for the
            successor witness, exactly like ``last_used_witness``.
        verifications: composed-body verifications performed.
        extension_hits: successful witness/cached-solution extensions.
        extension_misses: failed extensions.
        full_solves: full grounding searches over the composed body.
        failures: unsatisfiable full solves.
        witness_hits: admissions answered from a known-valid witness.
        witness_misses: admissions no witness could serve.
        fallback_searches: times the fast path fell back to composed-body
            work.
        method: which search decided the probe — ``"witness"`` (extension
            of a known-valid witness), ``"fastpath"`` (a per-shape fast
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


def verify_solution(
    database: Database, formula: Formula | Program, solution: Substitution | None
) -> bool:
    """True if ``solution`` still satisfies ``formula`` over ``database``.

    The pure core of :meth:`SolutionCache.verify`: no counters, no cache
    state — callable against a worker's snapshot store as well as the
    writer's live one.  ``solution`` must bind every free variable of the
    (simplified) body to a constant.
    """
    return compile_formula(formula).holds(database, solution)


def compute_admission(
    search: GroundingSearch,
    database: Database,
    *,
    composition: OrderComposition,
    cached_solution: Substitution | None,
    witness_substitution: Substitution | None,
    new_factor: Formula | Program | None = None,
    new_required: frozenset[Variable] = frozenset(),
    enable_witness: bool = True,
    config: AdmissionSearchConfig | None = None,
) -> AdmissionProbe:
    """The witness-extension admission search as a pure function.

    This is :meth:`SolutionCache.ensure`'s find-or-extend-or-solve flow
    factored out of the cache (mirroring how ``compute_grounding_plan``
    was factored out of ``QuantumState`` for the process backend): it
    reads only its arguments and the given store, mutates nothing, and
    reports every counter through the returned :class:`AdmissionProbe`.
    Running it inline over the live database and running it on a worker
    over an order-preserving snapshot therefore produce bit-identical
    decisions by construction — there is exactly one implementation.

    Args:
        search: the grounding search to run extensions/solves on (the
            cache's shared search inline; a throwaway one in a worker).
        database: the store ``search`` runs against (verification oracle).
        composition: the partition's resident composition.  Its composed
            program is only asked for — and its factor programs only
            compiled, each at most once — when a miss makes the composed
            body itself be verified or searched.
        cached_solution: the partition's last known satisfying
            substitution (pre-witness fallback state).
        witness_substitution: the substitution of a structurally current,
            delta-valid witness, or ``None`` when no witness can serve.
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
            function, so inline admission, thread lanes, and shipped
            process workers honor the strategy bit-identically.
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

    def extend(base: Substitution | None, factor: Program) -> GroundingResult:
        result = run_find(factor, initial=base or Substitution.empty())
        counters["extension_hits" if result.satisfiable else "extension_misses"] += 1
        return result

    def solve(program: Program) -> GroundingResult:
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
        return result

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

    if new_factor is None or new_factor is TRUE:
        if witness_substitution is not None:
            counters["witness_hits"] += 1
            return probe(witness_substitution, used_witness=True)
        if enable_witness:
            counters["witness_misses"] += 1
            counters["fallback_searches"] += 1
        if verify(cached_solution):
            return probe(cached_solution)
        result = solve(composition.program(required=composition.required()))
        return probe(result.substitution if result.satisfiable else None)

    # The new factor is searched up to twice and then conjoined with the
    # composed body, so it lives in the composition's scope.
    required = frozenset(new_required)
    factor = (
        new_factor
        if isinstance(new_factor, Program)
        else search.compile(new_factor, required=required, scope=composition.scope)
    )
    if witness_substitution is not None:
        extended = extend(witness_substitution, factor)
        if extended.satisfiable:
            # Only a *successful* extension counts as a hit: the composed
            # body was never re-walked.
            counters["witness_hits"] += 1
            return probe(extended.substitution, used_witness=True)
    if enable_witness:
        counters["witness_misses"] += 1
        counters["fallback_searches"] += 1
    if witness_substitution is None and cached_solution is not None:
        if verify(cached_solution):
            extended = extend(cached_solution, factor)
            if extended.satisfiable:
                return probe(extended.substitution)
    # Cache miss: solve the whole composed body including the new factor.
    result = solve(
        conjoin(
            [composition.program(), factor],
            required=composition.required() | required,
        )
    )
    return probe(result.substitution if result.satisfiable else None)


@dataclass(frozen=True)
class Witness:
    """A cached satisfying substitution plus its extensional footprint.

    Attributes:
        substitution: ground substitution satisfying the partition's
            composed hard body at the time the witness was stored.
        pending_ids: the partition's pending transaction ids when stored —
            a structural signature; the witness is only trusted while the
            partition still contains exactly this sequence (merges and
            groundings change it and thereby retire the witness).
        rows: ground instantiations of the composed body's atoms under the
            substitution; the only extensional rows whose presence or
            absence the body's truth value (under this fixed substitution)
            can depend on.
        relations: relations of atoms whose instantiation stayed non-ground
            (auxiliary variables outside the required set); deltas on these
            relations invalidate conservatively.
        monotone: True when no relational atom occurs under a negation, in
            which case inserts can never invalidate the witness.
    """

    substitution: Substitution
    pending_ids: tuple[int, ...]
    rows: frozenset[RowKey]
    relations: frozenset[str]
    monotone: bool

    def touched_by(self, deltas: Iterable[Delta]) -> bool:
        """True if any delta could change the witnessed body's truth value."""
        for table, values, is_delete in deltas:
            if not is_delete and self.monotone:
                continue
            if (table, values) in self.rows or table in self.relations:
                return True
        return False


@dataclass
class SolutionCacheStatistics:
    """Counters describing solution-cache behaviour."""

    verifications: int = 0
    extension_hits: int = 0
    extension_misses: int = 0
    full_solves: int = 0
    failures: int = 0
    #: Admissions / write checks answered from a known-valid witness
    #: (composed-body re-verification skipped entirely).
    witness_hits: int = 0
    #: Admissions / write checks no witness could serve (absent, stale, or
    #: present but its extension failed).
    witness_misses: int = 0
    #: Witnesses dropped because a row-level delta touched their footprint.
    witness_invalidations: int = 0
    #: Times the fast path fell back to work over the full composed body
    #: (a verification or a full grounding search).
    fallback_searches: int = 0
    #: Admissions decided by the opt-in sampling estimator (``exact=False``
    #: probes) — the count of approximate decisions the cache has absorbed.
    sampled_admissions: int = 0
    #: Search nodes expanded deciding admissions (the sum of every absorbed
    #: probe's ``nodes``).  Unlike the global ``search.nodes`` this excludes
    #: grounding and serializability searches, so it is the number the
    #: admission-strategy benchmark compares across strategies.
    admission_nodes: int = 0

    def composed_body_passes(self) -> int:
        """Operations that walked the whole composed body (verify + solve).

        This is the cost metric the admission fast path exists to reduce;
        the Figure 7 fast-path benchmark asserts the witness cache cuts it
        by at least 2x.
        """
        return self.verifications + self.full_solves


class SolutionCache:
    """Witness store plus find-or-extend-or-solve admission logic.

    Args:
        database: the extensional store searches run against.
        enable_witness: when False the per-partition witness store is
            disabled and every admission re-verifies the composed body from
            scratch (the seed behaviour); accept/reject decisions are
            unaffected.  Used by benchmarks to measure the fast path.
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
        self._witnesses: dict[int, Witness] = {}
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

    @property
    def last_used_witness(self) -> bool:
        """True when the last :meth:`ensure` on *this thread* extended a
        known-valid witness (the fast path).

        Thread-local on purpose: admission reads the flag right after
        ``ensure`` to decide between an incremental and a full footprint for
        the successor witness, and with per-shard admission lanes two
        concurrent admissions must never observe each other's flag (a
        cross-read would store a witness with the wrong footprint — a
        correctness bug, not a statistics blemish).
        """
        return getattr(self._local, "last_used_witness", False)

    @last_used_witness.setter
    def last_used_witness(self, value: bool) -> None:
        self._local.last_used_witness = value

    @property
    def last_method(self) -> str:
        """Which search decided the last :meth:`ensure` on *this thread*.

        Thread-local for the same reason as :attr:`last_used_witness`: the
        admission path reads it right after ``ensure`` to stamp the commit
        result, and concurrent lanes must never see each other's value.
        """
        return getattr(self._local, "last_method", "backtracking")

    @property
    def last_exact(self) -> bool:
        """False when the last decision on this thread came from sampling."""
        return getattr(self._local, "last_exact", True)

    @property
    def last_exhausted_budget(self) -> bool:
        """True when the last search on this thread ran out of node budget."""
        return getattr(self._local, "last_exhausted_budget", False)

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

    # -- witness store -------------------------------------------------------

    def witness_for(self, partition: Partition) -> Witness | None:
        """The partition's witness, if still structurally current."""
        if not self.enable_witness:
            return None
        witness = self._witnesses.get(partition.partition_id)
        if witness is None:
            return None
        if witness.pending_ids != partition.transaction_ids():
            # The partition was merged or partially grounded since the
            # witness was stored; retire it.
            del self._witnesses[partition.partition_id]
            return None
        return witness

    def store_witness(
        self,
        partition: Partition,
        formula: Formula,
        substitution: Substitution,
        *,
        base: Witness | None = None,
    ) -> Witness | None:
        """Record ``substitution`` as the partition's witness for ``formula``.

        Args:
            partition: the partition the witness belongs to (its *current*
                pending ids become the structural signature).
            formula: the part of the composed body whose footprint must be
                computed — the full composed body normally, or just the new
                factor when ``base`` carries the footprint of everything
                before it.
            substitution: the satisfying substitution to cache.
            base: witness whose footprint ``formula``'s extends (fast-path
                extension: old factors keep their rows, since the extension
                never rebinds the old variables).
        """
        if not self.enable_witness:
            return None
        rows: set[RowKey] = set()
        relations: set[str] = set()
        monotone = not _has_negated_atoms(formula)
        if base is not None:
            rows.update(base.rows)
            relations.update(base.relations)
            monotone = monotone and base.monotone
        for atom in formula.atoms():
            instance = substitution.apply_atom(atom.as_body())
            if instance.is_ground():
                rows.add((instance.relation, instance.ground_values()))
            else:
                relations.add(instance.relation)
        witness = Witness(
            substitution=substitution,
            pending_ids=partition.transaction_ids(),
            rows=frozenset(rows),
            relations=frozenset(relations),
            monotone=monotone,
        )
        self._witnesses[partition.partition_id] = witness
        return witness

    def drop_witness(self, partition_id: int) -> None:
        """Forget the witness of a partition (merge, emptying, rejection)."""
        self._witnesses.pop(partition_id, None)

    def witnesses(self) -> dict[int, Witness]:
        """Snapshot of the stored witnesses (partition id → witness).

        Introspection for tests and diagnostics; no staleness check is
        applied (use :meth:`witness_for` for a structurally current one).
        """
        return dict(self._witnesses)

    def retain(self, partition_ids: Iterable[int]) -> None:
        """Drop every witness whose partition no longer exists.

        Called after merges: the merged-away partitions disappear from the
        manager, and without this their witnesses would linger in the store
        (leaking memory and polluting the invalidation counter).
        """
        live = frozenset(partition_ids)
        for partition_id in list(self._witnesses):
            if partition_id not in live:
                del self._witnesses[partition_id]

    def notify_deltas(self, deltas: Sequence[Delta]) -> None:
        """Invalidate witnesses whose footprint a committed delta touches.

        Called after blind writes commit and after grounded update portions
        execute.  Deltas that miss every witness's footprint leave the
        witnesses valid — this is the precise invalidation that lets the
        admission fast path skip re-verification most of the time.
        """
        if not deltas or not self._witnesses:
            return
        for partition_id, witness in list(self._witnesses.items()):
            if witness.touched_by(deltas):
                del self._witnesses[partition_id]
                self._stats.witness_invalidations += 1

    # -- verification --------------------------------------------------------

    def verify(
        self, formula: Formula | Program, solution: Substitution | None
    ) -> bool:
        """True if ``solution`` still satisfies ``formula`` over the database.

        Used after blind writes: the write may have removed the row the
        cached solution grounded on.
        """
        if solution is None:
            return False
        self._stats.verifications += 1
        return verify_solution(self.database, formula, solution)

    # -- extension / solving --------------------------------------------------

    def extend(
        self,
        base: Substitution | None,
        new_factor: Formula | Program,
        required: Iterable[Variable] | None,
    ) -> GroundingResult:
        """Extend ``base`` so that ``new_factor`` is also satisfied."""
        initial = base or Substitution.empty()
        result = self.search.find_one(new_factor, required=required, initial=initial)
        if result.satisfiable:
            self._stats.extension_hits += 1
        else:
            self._stats.extension_misses += 1
        return result

    def solve(
        self, formula: Formula | Program, required: Iterable[Variable] | None = None
    ) -> GroundingResult:
        """Full grounding search over the composed body (cache miss path)."""
        self._stats.full_solves += 1
        result = self.search.find_one(formula, required=required)
        if not result.satisfiable:
            self._stats.failures += 1
        return result

    # -- admission flow --------------------------------------------------------

    def ensure(
        self,
        partition: Partition,
        new_factor: Formula | Program | None = None,
        new_required: Iterable[Variable] = (),
    ) -> Substitution | None:
        """Ensure the partition (plus an optional new factor) is satisfiable.

        The fast path: when the partition has a structurally current witness
        that no delta has touched, the composed body is *not* re-verified —
        only ``new_factor`` is searched, extending the witness.  On a miss
        the seed flow (verify cached solution → extend → full solve) runs,
        so the fast path never changes which transactions are admitted.

        Args:
            partition: the partition whose invariant must hold.
            new_factor: factor contributed by a transaction being admitted
                (its body rewritten against the partition's accumulated
                updates), as a formula or compiled into the partition
                composition's scope; ``None`` when only re-validating.
            new_required: variables of the new factor that must be ground.

        Returns:
            A ground substitution witnessing satisfiability of the composed
            body (including the new factor when given), or ``None`` when the
            invariant cannot be maintained — in which case the caller must
            reject the transaction or write.
        """
        witness = self.witness_for(partition)
        revalidating = new_factor is None or new_factor is TRUE
        probe = compute_admission(
            self.search,
            self.database,
            composition=partition.composition(),
            cached_solution=partition.cached_solution,
            witness_substitution=None if witness is None else witness.substitution,
            new_factor=new_factor,
            new_required=frozenset(new_required),
            enable_witness=self.enable_witness,
            config=self.search_config,
        )
        self.absorb_probe(probe)
        if (
            revalidating
            and not probe.used_witness
            and probe.substitution is not None
        ):
            # Re-validation refreshed or re-solved the whole composed body;
            # cache it as the partition's witness (full footprint).
            self.store_witness(
                partition, partition.composed_formula(), probe.substitution
            )
        return probe.substitution

    def absorb_probe(self, probe: AdmissionProbe) -> None:
        """Apply a probe's counters and witness flag to this cache.

        The writer-side half of a shipped admission search (and of the
        inline one — :meth:`ensure` funnels through here too, so counters
        are applied identically no matter where the search ran).  Lands in
        the active lane slice like any other counter update.
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
        stats.admission_nodes += probe.nodes
        if probe.method == "sampled":
            stats.sampled_admissions += 1
        self.last_used_witness = probe.used_witness
        self._local.last_method = probe.method
        self._local.last_exact = probe.exact
        self._local.last_exhausted_budget = probe.exhausted_budget
