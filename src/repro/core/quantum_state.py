"""The quantum state: pending transactions and invariant maintenance.

A quantum database ``D̂`` is "a completely extensional initial database"
plus "an ordered sequence of pending transactions — more precisely,
committed transactions whose value assignments are still pending"
(Definition 3.1).  :class:`QuantumState` is that object: it owns the
partitions of pending transactions, their composed bodies and cached
solutions, and implements the operations of Section 3.2:

* :meth:`QuantumState.admit` — composing a newly arrived resource
  transaction into its partition and checking that the set of possible
  worlds stays non-empty (else the transaction is rejected);
* :meth:`QuantumState.ground` — fixing value assignments for specific
  pending transactions (because of a read, a check-in, the arrival of a
  coordination partner, or the ``k`` bound), under either strict or
  semantic serializability, preferring groundings that satisfy optional
  atoms;
* :meth:`QuantumState.validate_write` — admission control for blind writes
  issued by ordinary (non-resource) transactions.

Grounding is split into a read-only *plan* phase (:meth:`QuantumState.plan_grounding`
— serializability planning plus the grounding search) and a mutating *apply*
phase (:meth:`QuantumState.apply_grounding` — executing the chosen update
portions and re-recording the solution).  Because partitions are independent by
construction — no atom of one unifies with any atom of another, hence their
ground-row footprints are disjoint — plans for *different* partitions
commute: :meth:`QuantumState.ground` plans every partition it touches before
it applies any plan, so a grounding is all-or-nothing.  Everything runs on
the writer; see ``docs/architecture.md`` ("One partition manager, one
writer").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.core.composition import OptionalFactor, OrderComposition
from repro.core.grounding_policy import GroundingPolicy
from repro.core.partition import Partition, PartitionManager
from repro.core.resource_transaction import ResourceTransaction
from repro.core.serializability import (
    GroundingPlan,
    SerializabilityMode,
    grounding_plan,
)
from repro.core.solution_cache import SolutionCache
from repro.errors import (
    AdmissionSearchExhausted,
    QuantumRecoveryError,
    QuantumStateError,
    TransactionRejected,
    WriteRejected,
)
from repro.logic.atoms import Atom
from repro.logic.formula import AtomFormula, Formula
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant
from repro.logic.unification import unifiable
from repro.relational.database import Database
from repro.relational.dml import Delete, Insert, Statement
from repro.solver.kernel import compile_formula, conjoin

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.recovery import PendingTransactionStore
    from repro.solver.grounding import GroundingSearch
    from repro.solver.strategy import AdmissionSearchConfig


@dataclass(frozen=True)
class PendingTransaction:
    """A committed resource transaction whose grounding is still deferred.

    Attributes:
        original: the transaction as submitted by the application.
        renamed: the same transaction with variables suffixed ``@<id>`` so
            that different pending transactions never share variables (the
            assumption behind composition).
        sequence: global arrival order (the serialization order within a
            partition follows this unless semantically reordered).
        method: which search decided the admission (see
            :class:`~repro.core.solution_cache.AdmissionProbe`).
        exact: False only when the sampling estimator decided it.
    """

    original: ResourceTransaction
    renamed: ResourceTransaction
    sequence: int
    method: str = "backtracking"
    exact: bool = True

    @property
    def transaction_id(self) -> int:
        """Id of the underlying resource transaction."""
        return self.original.transaction_id

    @property
    def suffix(self) -> str:
        """The variable-renaming suffix used for this transaction."""
        return f"@{self.original.transaction_id}"

    def original_valuation(self, substitution: Substitution) -> dict[str, Any]:
        """Map a grounding of the renamed variables back to original names."""
        valuation: dict[str, Any] = {}
        suffix = self.suffix
        for var in self.renamed.variables():
            term = substitution.apply_term(var)
            if hasattr(term, "value"):
                name = var.name
                if name.endswith(suffix):
                    name = name[: -len(suffix)]
                valuation[name] = term.value
        return valuation


@dataclass
class GroundedTransaction:
    """Record of a pending transaction whose values have been fixed.

    Attributes:
        transaction: the original resource transaction.
        valuation: variable-name → value mapping (original variable names).
        satisfied_optionals: how many of the transaction's optional atoms
            held under the chosen grounding (evaluated against the database
            state in which the grounding was applied).
        statements: the DML statements that were executed.
        forced: True when grounding was forced by the ``k`` bound rather
            than requested by a read / check-in / partner arrival.
    """

    transaction: ResourceTransaction
    valuation: dict[str, Any]
    satisfied_optionals: int
    statements: tuple[Statement, ...]
    forced: bool = False

    @property
    def transaction_id(self) -> int:
        """Id of the grounded transaction."""
        return self.transaction.transaction_id

    @property
    def coordinated(self) -> bool:
        """True if every optional atom of the transaction was satisfied.

        The evaluation section uses this as the per-transaction success
        criterion for coordination (adjacent seats obtained).
        """
        total = len(self.transaction.optional_body)
        return total > 0 and self.satisfied_optionals == total


@dataclass(frozen=True)
class PlannedGrounding:
    """The outcome of the read-only grounding plan phase.

    Produced by :meth:`QuantumState.plan_grounding`, consumed by
    :meth:`QuantumState.apply_grounding`.  Plans for different partitions
    commute (disjoint row footprints), so :meth:`QuantumState.ground`
    computes all of them before it applies the first.

    Attributes:
        partition: the partition being grounded.
        plan: the serialization order chosen for the partition.
        composition: that order, composed (the partition's resident
            composition unless the plan reordered).
        substitution: the grounding found for the order's prefix (plus a
            witness for its suffix).
        satisfied_atoms: per-transaction satisfied-optional counts at
            search time.
        forced: whether this grounding was forced by the ``k`` bound.
    """

    partition: Partition
    plan: GroundingPlan
    composition: OrderComposition
    substitution: Substitution
    satisfied_atoms: Mapping[int, int]
    forced: bool = False


#: How many candidate prefix groundings are tried before giving up on a
#: particular set of optional atoms (each candidate costs one suffix
#: satisfiability check).
PREFIX_CANDIDATES = 8
#: Node budget for the combined prefix-and-suffix fallback search when
#: optional factors are included (the hard-only fallback is unbounded —
#: it must be complete to uphold the invariant).
COMBINED_NODE_BUDGET = 20_000


def compute_grounding_plan(
    search: "GroundingSearch",
    serializability: SerializabilityMode,
    partition: Partition,
    targets: Sequence[PendingTransaction],
) -> tuple[GroundingPlan, OrderComposition, Substitution | None, dict[int, int]]:
    """The pure plan computation: serialization order plus a grounding.

    This is the whole read-only half of grounding as a module-level
    function of ``(search, serializability, partition, targets)`` — no
    closures, no reference to a :class:`QuantumState` — which is what lets
    the plan differential suite replay it against the frozen reference
    planner.

    The chosen order is composed once.  While it is the arrival order (a
    strict plan, targets already at the head, a refused reorder) that
    composition is the partition's resident one; a semantic reorder
    composes the fronted order once for its satisfiability check and the
    grounding search then reads the same object.

    Returns:
        ``(plan, composition, substitution, satisfied)``: ``composition``
        is the composed order ``plan.to_ground + plan.remaining_order``;
        ``substitution`` is ``None`` when no grounding exists (an invariant
        violation the caller turns into an error).
    """
    fronted: OrderComposition | None = None

    def accept_reorder(candidate: Sequence[PendingTransaction]) -> bool:
        nonlocal fronted
        fronted = OrderComposition(entry.renamed for entry in candidate)
        return search.exists(fronted.program())

    plan = grounding_plan(serializability, partition, targets, accept_reorder)
    # (A reordered plan is one whose candidate order was composed above.)
    composition = (
        fronted
        if plan.reordered and fronted is not None
        else partition.composition()
    )
    substitution, satisfied_atoms = choose_grounding(
        search, composition, len(plan.to_ground)
    )
    return plan, composition, substitution, satisfied_atoms


def provably_unsatisfiable(database: Database, factor: Formula) -> bool:
    """True when an index lookup proves ``factor`` has no grounding at all.

    Judged only where the proof is both sound and cheaper than the searches
    it saves:

    * the factor must be a plain relational atom.  A rewritten factor with
      an insert alternative (``atom ∨ (?s2 = ?s)``) is satisfiable through
      the equality however empty the relation is, and an excluded one is
      not the atom alone either;
    * an index must cover (a subset of) the atom's constant positions —
      with none, the only probe is a scan of the whole relation, which
      costs more than the doomed searches did (they fail on an index
      lookup under bindings the probe does not have).

    No stored row agreeing with the atom's constants means no candidate row
    under any bindings, so every body containing the factor is
    unsatisfiable.  Anything this function cannot judge it leaves to the
    search (including malformed atoms, whose errors stay the search's).
    """
    if not isinstance(factor, AtomFormula):
        return False
    atom = factor.atom
    if not database.has_table(atom.relation):
        return False
    table = database.table(atom.relation)
    if atom.arity != table.schema.arity:
        return False
    names = table.schema.column_names
    columns = []
    values = []
    for name, term in zip(names, atom.terms):
        if isinstance(term, Constant):
            columns.append(name)
            values.append(term.value)
    if table.best_index(columns) is None:
        return False
    for _row in table.lookup(columns, values):
        return False
    return True


def choose_grounding(
    search: "GroundingSearch", composition: OrderComposition, count: int
) -> tuple[Substitution | None, dict[int, int]]:
    """Find a grounding of the order, maximising the prefix's optionals.

    The transactions being grounded now are the first ``count`` entries of
    the composed order.  The search is decomposed exactly the way the
    paper's solution cache suggests:

    1. ground the prefix alone, preferring groundings that satisfy its
       optional atoms (all of them first, then a greedy maximal subset);
    2. for each candidate prefix grounding, check that the remaining
       pending transactions are still jointly satisfiable (extending the
       candidate), which is what guarantees the invariant survives;
    3. fall back to a grounding of the whole order without optional
       atoms if preferences cannot be accommodated.

    Every body searched is a slice of ``composition``: nothing is rewritten
    or compiled here that the composition already holds.

    Returns:
        ``(substitution, satisfied)`` where the substitution covers both
        the prefix and a witness for the suffix, and ``satisfied`` maps
        each grounded transaction id to its satisfied-optional count at
        search time.
    """
    satisfied: dict[int, int] = {
        transaction.transaction_id: 0
        for transaction in composition.transactions[:count]
    }
    has_suffix = len(composition) > count
    prefix_required = composition.required(0, count)
    suffix_required = composition.required(count)
    prefix_hard = composition.program(0, count, required=prefix_required)
    suffix_body = composition.program(count, required=suffix_required)
    optional_factors = [
        factor
        for index in range(count)
        for factor in composition.optional_factors(index)
    ]

    def attempt(selected: Sequence[OptionalFactor]) -> Substitution | None:
        """Try to ground the prefix with ``selected`` optional factors.

        Strategy: enumerate a handful of prefix groundings and extend
        each over the suffix (cheap in the common, under-constrained
        case).  If none of those candidates extends — e.g. every early
        candidate sits on a seat a later pinned transaction needs — fall
        back to one *combined* prefix-and-suffix search, which is
        complete; a node budget keeps the combined search from thrashing
        when optional factors are involved.
        """
        body = conjoin(
            [prefix_hard] + [factor.program for factor in selected],
            required=prefix_required,
        )
        for candidate in search.find(body, limit=PREFIX_CANDIDATES):
            if not has_suffix:
                return candidate.substitution
            extended = search.find_one(suffix_body, initial=candidate.substitution)
            if extended.satisfiable:
                return extended.substitution
        if not has_suffix:
            return None
        combined = search.find_one(
            conjoin([body, suffix_body], required=prefix_required | suffix_required),
            node_budget=COMBINED_NODE_BUDGET if selected else None,
        )
        return combined.substitution if combined.satisfiable else None

    def accept(
        solution: Substitution, accepted: Sequence[OptionalFactor]
    ) -> tuple[Substitution, dict[int, int]]:
        for factor in accepted:
            satisfied[factor.transaction_id] += 1
        return solution, satisfied

    # A factor that no stored row can satisfy fails every attempt it is
    # part of — typically the first partner's ``[Bookings(partner, f, ?s2)]``,
    # rewritten against no earlier update while the partner holds no seat.
    # Dropping it leaves the greedy loop below with exactly the factors it
    # would have accepted from, at one index probe instead of the two
    # exhaustive attempts (all factors; that factor alone) it used to fail.
    live = [
        factor
        for factor in optional_factors
        if not provably_unsatisfiable(search.database, factor.formula)
    ]
    if live:
        # All factors at once first — unless doomed ones were dropped and
        # there is a suffix.  With every factor live this is the first try
        # it always was.  Otherwise the whole list would have failed and
        # the answer is the greedy loop's: without a suffix ``attempt`` is
        # complete, so if ``live`` is jointly satisfiable so is every
        # subset the loop tries, it accepts them all and ends on this very
        # attempt; with a suffix a subset's budgeted combined search may
        # give up where the full set's candidates extended, so only the
        # loop itself knows what the loop accepts.
        whole_failed = False
        if len(live) == len(optional_factors) or not has_suffix:
            solution = attempt(live)
            if solution is not None:
                return accept(solution, live)
            whole_failed = True
        # Greedy maximal subset of optional atoms.
        accepted: list[OptionalFactor] = []
        best: Substitution | None = None
        for candidate_factor in live:
            selected = accepted + [candidate_factor]
            if whole_failed and len(selected) == len(live):
                break  # all of ``live`` again: the attempt that just failed
            solution = attempt(selected)
            if solution is not None:
                accepted = selected
                best = solution
        if best is not None:
            return accept(best, accepted)
    return attempt([]), satisfied


@dataclass
class QuantumStateStatistics:
    """Counters the experiments report."""

    admitted: int = 0
    rejected: int = 0
    grounded: int = 0
    forced_groundings: int = 0
    writes_checked: int = 0
    writes_rejected: int = 0
    max_pending: int = 0
    semantic_reorders: int = 0
    batches: int = 0
    batch_transactions: int = 0


class QuantumState:
    """Pending transactions, composed bodies, and invariant maintenance."""

    def __init__(
        self,
        database: Database,
        *,
        policy: GroundingPolicy | None = None,
        serializability: SerializabilityMode = SerializabilityMode.SEMANTIC,
        on_grounded: Callable[[GroundedTransaction], None] | None = None,
        pending_store: "PendingTransactionStore | None" = None,
        witness_cache: bool = True,
        search_config: "AdmissionSearchConfig | None" = None,
    ) -> None:
        self.database = database
        self.policy = policy or GroundingPolicy()
        self.serializability = serializability
        self.partitions = PartitionManager()
        self.cache = SolutionCache(
            database, enable_witness=witness_cache, search_config=search_config
        )
        self.statistics = QuantumStateStatistics()
        self.grounded_results: dict[int, GroundedTransaction] = {}
        self._next_sequence = 1
        #: Callback invoked for every grounded transaction (the quantum
        #: database withdraws its entanglement registration, the session
        #: layer notifies waiting clients).  It must not write to the store:
        #: the grounding's transaction is already complete when it fires.
        self.on_grounded = on_grounded
        #: The pending-transactions table, when the state backs a
        #: :class:`~repro.core.quantum_database.QuantumDatabase`: a grounding
        #: deletes the rows of what it fixes in its own store transaction.
        self.pending_store = pending_store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def pending_count(self) -> int:
        """Number of committed-but-not-grounded transactions."""
        return self.partitions.pending_count()

    def pending_transactions(self) -> list[PendingTransaction]:
        """All pending transactions across partitions, in arrival order."""
        entries = [entry for partition in self.partitions for entry in partition]
        entries.sort(key=lambda e: e.sequence)
        return entries

    def find_pending(self, transaction_id: int) -> PendingTransaction | None:
        """The pending entry for ``transaction_id``, if it is still pending."""
        located = self.partitions.find(transaction_id)
        return located[1] if located else None

    def is_pending(self, transaction_id: int) -> bool:
        """True if the transaction is still awaiting grounding."""
        return self.find_pending(transaction_id) is not None

    # ------------------------------------------------------------------
    # Admission (new resource transactions)
    # ------------------------------------------------------------------

    def admit(self, transaction: ResourceTransaction) -> PendingTransaction:
        """Admit a resource transaction, keeping the possible worlds non-empty.

        The incremental fast path: the transaction's body is rewritten
        against the partition's *incrementally maintained* accumulated
        updates (Theorem 3.5, one new factor — never a recomposition), and
        while the partition's solution record is footprinted only that new
        factor is searched, extending the record.  Otherwise the full
        composed body is verified or re-solved (the ``LIMIT 1`` analogue).
        If no grounding exists the transaction is rejected.

        Returns:
            The pending entry for the admitted transaction; its ``method``
            and ``exact`` say which search decided.

        Raises:
            TransactionRejected: if admitting the transaction would empty
                the set of possible worlds (``method`` / ``exact`` on the
                exception likewise).
        """
        sequence = self.allocate_sequence()
        renamed = transaction.rename_variables(f"@{transaction.transaction_id}")
        atoms = tuple(renamed.body) + tuple(renamed.updates)
        partition, _merged = self.partitions.merged_for(atoms)
        composition = partition.composition()
        new_factor = composition.preview_factor(renamed)
        # Compiled once, into the partition's scope: searched now, kept
        # resident by the append below, conjoined by every later plan.
        required = renamed.hard_variables()
        factor_program = compile_formula(
            new_factor, required=required, scope=composition.scope
        )
        probe = self.cache.ensure(partition, factor_program, required)
        if probe.substitution is None:
            # The rejected factor's variables must not stay numbered in the
            # partition's scope.
            composition.discard_programs()
            self.statistics.rejected += 1
            self.partitions.drop_if_empty(partition)
            if probe.exhausted_budget:
                # The bounded search gave up undecided; reject conservatively
                # but let the caller distinguish "budget ran out" from a
                # proven unsatisfiability (retry with a larger budget, or
                # force a grounding to shrink the partition).
                raise AdmissionSearchExhausted(
                    f"transaction #{transaction.transaction_id} rejected: the "
                    "admission search exhausted its node budget before "
                    "deciding satisfiability",
                    method=probe.method,
                    exact=probe.exact,
                )
            raise TransactionRejected(
                f"transaction #{transaction.transaction_id} cannot be admitted: "
                "no consistent grounding exists",
                method=probe.method,
                exact=probe.exact,
            )
        entry = PendingTransaction(
            original=transaction,
            renamed=renamed,
            sequence=sequence,
            method=probe.method,
            exact=probe.exact,
        )
        partition.append(entry, factor=new_factor, program=factor_program)
        # An extension of the footprinted record never rebinds the old
        # factors' variables: they keep their rows, the new factor adds its.
        self.cache.record(
            partition,
            probe.substitution,
            extends=new_factor if probe.used_witness else None,
        )
        self.statistics.admitted += 1
        pending = self.pending_count()
        if pending > self.statistics.max_pending:
            self.statistics.max_pending = pending
        self._enforce_bound(partition)
        return entry

    def allocate_sequence(self) -> int:
        """Reserve and return the next arrival sequence number."""
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        return sequence

    def rebuild(self, restored: Sequence[tuple[int, ResourceTransaction]]) -> None:
        """Restore the pending transactions of a crashed instance.

        Recovery's quantum half, on an empty state: each ``(sequence,
        transaction)`` pair, in sequence order, is routed into the partition
        its atoms overlap and appended — no factor is compiled and nothing
        is searched per transaction, since every one of them was admitted
        before the crash.  Then each rebuilt partition is solved once, which
        records its solution.  Sequence numbering resumes past the highest
        restored sequence.  The ``k`` bound is left to
        :meth:`enforce_bounds`.

        Raises:
            QuantumRecoveryError: if a rebuilt partition has no grounding
                (the crash interrupted an atomicity guarantee).
        """
        for sequence, transaction in restored:
            renamed = transaction.rename_variables(f"@{transaction.transaction_id}")
            partition, _merged = self.partitions.merged_for(
                renamed.body + renamed.updates
            )
            partition.append(PendingTransaction(transaction, renamed, sequence))
            self._next_sequence = max(self._next_sequence, sequence + 1)
        self.statistics.max_pending = max(
            self.statistics.max_pending, self.pending_count()
        )
        for partition in list(self.partitions):
            if self.cache.ensure(partition).substitution is None:
                raise QuantumRecoveryError(
                    f"pending transactions {list(partition.transaction_ids())} "
                    "have no consistent grounding after recovery"
                )

    def enforce_bounds(self) -> None:
        """Force-ground every partition down to the ``k`` bound."""
        for partition in list(self.partitions):
            self._enforce_bound(partition)

    def _enforce_bound(self, partition: Partition) -> None:
        """Force-ground transactions until the ``k`` bound is respected."""
        victims = self.policy.victims(partition)
        if not victims:
            return
        self.ground(
            [v.transaction_id for v in victims],
            forced=True,
        )
        # Counted once applied: a grounding whose store unit aborts raised.
        self.statistics.forced_groundings += len(victims)

    # ------------------------------------------------------------------
    # Grounding
    # ------------------------------------------------------------------

    def ground(
        self,
        transaction_ids: Iterable[int],
        *,
        forced: bool = False,
    ) -> list[GroundedTransaction]:
        """Fix value assignments for the given pending transactions.

        Transactions are grouped by partition; each group is grounded under
        the configured serializability mode.  Ids that are not pending
        (already grounded) are silently skipped, which makes the call
        idempotent.

        Every group is planned before the first plan is applied, and the
        plans are applied in group order.  Partitions are independent by
        construction — their atoms cannot unify, so the rows their plans
        ground on are disjoint — so a plan stays valid whatever the other
        groups apply before it, and a group that cannot be planned raises
        with no group grounded.

        Args:
            transaction_ids: the pending transactions to ground.
            forced: mark the resulting records as forced by the ``k`` bound.
        """
        grouped: dict[int, tuple[Partition, list[PendingTransaction]]] = {}
        for transaction_id in transaction_ids:
            located = self.partitions.find(transaction_id)
            if located is None:
                continue
            partition, entry = located
            grouped.setdefault(partition.partition_id, (partition, []))[1].append(entry)
        planned = [
            self.plan_grounding(partition, entries, forced=forced)
            for partition, entries in grouped.values()
        ]
        results: list[GroundedTransaction] = []
        for plan in planned:
            results.extend(self.apply_grounding(plan))
        return results

    def ground_all(self) -> list[GroundedTransaction]:
        """Ground every pending transaction (used at workload end)."""
        ids = [entry.transaction_id for entry in self.pending_transactions()]
        return self.ground(ids)

    def plan_grounding(
        self,
        partition: Partition,
        targets: Sequence[PendingTransaction],
        *,
        forced: bool = False,
    ) -> "PlannedGrounding":
        """The read-only half of grounding: pick an order and a substitution.

        Runs the serializability planner and the preference-maximising
        grounding search (:func:`compute_grounding_plan`), changing nothing
        but the search's work counters.

        Raises:
            QuantumStateError: if no grounding exists, i.e. the quantum
                database invariant was somehow violated.
        """
        plan, composition, substitution, satisfied_atoms = compute_grounding_plan(
            self.cache.search, self.serializability, partition, targets
        )
        if substitution is None:
            raise QuantumStateError(
                "quantum database invariant violated: no grounding exists for "
                f"partition #{partition.partition_id}"
            )
        return PlannedGrounding(
            partition=partition,
            plan=plan,
            composition=composition,
            substitution=substitution,
            satisfied_atoms=satisfied_atoms,
            forced=forced,
        )

    def apply_grounding(
        self, planned: "PlannedGrounding"
    ) -> list[GroundedTransaction]:
        """The mutating half of grounding: execute a plan's update portions."""
        partition, plan = planned.partition, planned.plan
        substitution = planned.substitution
        grounded_statements: list[tuple[PendingTransaction, list[Statement]]] = []
        deltas: list[tuple[str, tuple, bool]] = []
        # The grounded updates and the deletion of the grounded
        # transactions' pending rows are one store transaction: that of the
        # operation that caused the grounding, or this grounding's own when
        # the state is driven directly.  A failed store write aborts it
        # (whatever the operation wrote before goes with it, and the log
        # keeps nothing of the operation); anything else commits with it.
        unit = self.database.unit
        with unit:
            txn = unit.transaction()
            try:
                for entry in plan.to_ground:
                    statements = entry.renamed.ground_updates(substitution)
                    for statement in statements:
                        applied = txn.apply(statement)
                        is_delete = isinstance(statement, Delete)
                        deltas.extend(
                            (statement.table, row.values, is_delete)
                            for row in applied
                        )
                    grounded_statements.append((entry, statements))
                if self.pending_store is not None:
                    self.pending_store.discard(
                        [entry.transaction_id for entry in plan.to_ground], txn
                    )
            except BaseException:
                if txn.is_active:
                    txn.abort()
                raise
        if plan.reordered:
            self.statistics.semantic_reorders += 1
        # Optional-atom satisfaction is reported against the database state
        # that results from executing the grounded prefix: "sit next to
        # Goofy" is a property of the final seating, not of the intermediate
        # state in which one partner's booking does not exist yet.
        results: list[GroundedTransaction] = []
        for index, (entry, statements) in enumerate(grounded_statements):
            results.append(
                GroundedTransaction(
                    transaction=entry.original,
                    valuation=entry.original_valuation(substitution),
                    satisfied_optionals=self._count_satisfied_optionals(
                        entry, planned.composition.optional_factors(index), substitution
                    ),
                    statements=tuple(statements),
                    forced=planned.forced,
                )
            )
        # The plan's composition orders ``to_ground + remaining_order``; its
        # successor is the remaining order's, with nothing unified again.
        # The restructuring withdraws this partition's footprint, so the
        # deltas below only count as invalidations where they touch *other*
        # partitions' records (normally nowhere, by independence).
        partition.ground_prefix(planned.composition, len(plan.to_ground))
        self.cache.notify_deltas(deltas, self.partitions)
        if len(partition):
            # The restriction of a consistent grounding for the full order is
            # a consistent grounding of the remaining sequence over the
            # database produced by executing the prefix (Theorem 3.5), so the
            # successor record is footprinted without re-searching.
            self.cache.record(partition, substitution.restrict(partition.variables()))
        self.partitions.drop_if_empty(partition)
        for record in results:
            self.grounded_results[record.transaction_id] = record
            self.statistics.grounded += 1
            if self.on_grounded is not None:
                self.on_grounded(record)
        return results

    def _count_satisfied_optionals(
        self,
        entry: PendingTransaction,
        optionals: Sequence[OptionalFactor],
        substitution: Substitution,
    ) -> int:
        """How many optional atoms of ``entry`` hold in the current database.

        ``optionals`` are the entry's optional factors from the plan's
        composition; their ``plain`` programs are the atoms as written.

        Only the bindings of the transaction's *hard* variables (the ones
        that determine its actual effect — which seat was taken) are pinned;
        auxiliary variables that occur solely in optional atoms are checked
        existentially, so a preference counts as satisfied whenever the final
        state supports it, regardless of what the preference-maximisation
        search happened to bind those auxiliaries to.
        """
        pinned = substitution.restrict(entry.renamed.hard_variables())
        # Searching the atom from the pinned bindings is the search of its
        # pinned instance: same bound positions, same lookups.
        return sum(
            self.cache.search.exists(factor.plain, initial=pinned)
            for factor in optionals
        )

    # ------------------------------------------------------------------
    # Reads: which pending transactions does a read touch?
    # ------------------------------------------------------------------

    def affected_by_read(self, atoms: Sequence[Atom]) -> list[PendingTransaction]:
        """Pending transactions whose updates unify with any read atom.

        This is the paper's "simple practical solution ... a conservative
        criterion based on unifiability": if a relational atom of the read
        unifies with a pending update, that transaction's values must be
        fixed before the read can be answered.

        The scan is restricted to partitions whose atoms overlap the read
        (via the partition manager, so the signature index prefilters it):
        an update that unifies with a read atom makes its whole partition
        overlap, hence the restriction loses nothing.
        """
        candidates = self.partitions.overlapping_partitions(atoms)
        entries = [entry for partition in candidates for entry in partition]
        entries.sort(key=lambda e: e.sequence)
        affected: list[PendingTransaction] = []
        for entry in entries:
            for update in entry.renamed.updates:
                if any(unifiable(update, atom) for atom in atoms):
                    affected.append(entry)
                    break
        return affected

    # ------------------------------------------------------------------
    # Writes: blind-write admission control
    # ------------------------------------------------------------------

    def validate_write(self, statements: Sequence[Statement]) -> None:
        """Apply blind writes only if every partition invariant survives.

        "All writes to the database which unify with the bodies of the
        pending transactions need to pass through a check and are rejected
        if the check fails" (Section 3.2.2).  The check applies the write,
        re-validates (or re-solves) every affected partition's composed body
        over the modified database, and rolls the write back on failure.

        Raises:
            WriteRejected: if the write would empty the set of possible
                worlds.
        """
        self.statistics.writes_checked += 1
        write_atoms = [_statement_atom(s) for s in statements]
        affected = [
            partition
            for partition in self.partitions.overlapping_partitions(write_atoms)
            if partition.pending
        ]
        txn = self.database.begin()
        deltas: list[tuple[str, tuple, bool]] = []
        rechecked: list[tuple[Partition, Substitution]] = []
        try:
            # Only blind single-row inserts/deletes reach this point
            # (_statement_atom above rejects Update and conditional Delete),
            # so the applied rows describe the write's complete delta.
            for statement in statements:
                applied = txn.apply(statement)
                is_delete = isinstance(statement, Delete)
                deltas.extend(
                    (statement.table, row.values, is_delete) for row in applied
                )
            for partition in affected:
                # Trusted as is when the write's deltas miss the record's
                # footprint; otherwise verified, or re-solved, against the
                # store as the write leaves it.
                probe = self.cache.ensure(partition, uncommitted=deltas)
                if probe.substitution is None:
                    # An exhausted budget rejects conservatively, exactly
                    # as it does for an admission.
                    reason = (
                        "the search exhausted its node budget re-validating"
                        if probe.exhausted_budget
                        else "it would invalidate"
                    )
                    raise WriteRejected(
                        f"write rejected: {reason} pending transactions "
                        f"{partition.transaction_ids()}"
                    )
                if not probe.used_witness:
                    rechecked.append((partition, probe.substitution))
        except Exception:
            if txn.is_active:
                txn.abort()
            self.statistics.writes_rejected += 1
            raise
        txn.commit()
        self.cache.notify_deltas(deltas, self.partitions)
        for partition, substitution in rechecked:
            self.cache.record(partition, substitution)


def _statement_atom(statement: Statement) -> Atom:
    """Convert a blind write statement into a ground atom for unification."""
    if isinstance(statement, Insert):
        values = statement.values
    elif isinstance(statement, Delete) and statement.values is not None:
        values = statement.values
    else:
        raise WriteRejected(
            f"only blind single-row writes can be checked, got {statement!r}"
        )
    if isinstance(values, Mapping):
        ordered = tuple(values.values())
    else:
        ordered = tuple(values)
    return Atom.body(statement.table, ordered)
