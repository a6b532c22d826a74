"""Per-shard admission lanes: the router-first concurrent admission pipeline.

Until PR 5 every admission ran on one serialized writer.  The paper's
partition independence makes that needlessly conservative: partitions on
different shards share no unifiable atom, hence no extensional row, so two
arrivals routed to *different* shards can run their witness-extension
searches — the expensive part of admission — and commit concurrently
without ever observing each other.  This module turns that observation into
an executable pipeline:

* :class:`AdmissionLane` — one worker thread plus one bounded queue per
  shard: the shard's *admission writer*.  A lane processes its arrivals
  strictly in dispatch order, so per-shard admission stays serial while
  different shards proceed in parallel.

* :class:`AdmissionController` — the dispatcher.  It classifies every
  arrival **at enqueue time** (router-first: the
  :class:`~repro.sharding.signature.SignatureIndex` answers "which
  partitions could this touch?" before any search runs) and walks a
  deterministic **conflict ladder**:

  1. ``OWNED`` — every candidate partition lives on one shard: dispatch to
     that shard's lane.
  2. ``NEW`` — no candidate at all: the arrival will create a fresh
     partition; dispatch to the least-loaded lane, which creates the
     partition on its *own* shard (``ShardedPartitionManager.lane_scope``).
  3. ``FOLLOW`` — the arrival unifies with an *in-flight* arrival still
     queued on some lane (its partition does not exist yet, so the index
     cannot know): dispatch behind it on the same lane, preserving arrival
     order for the would-be partition.
  4. ``BARRIER`` — candidates or in-flight conflicts span several shards,
     the arrival is entangled with a partner living on a *different* shard
     (partner-pair grounding would reach across lanes), a lane queue
     stayed saturated, or a test injector asked for one: the arrival
     becomes an **epoch barrier** — every lane is drained to quiescence,
     then the arrival runs serialized on the dispatcher, exactly like the
     old single writer.

  Entangled arrivals deserve a note: the paper's workloads pin both
  partners to the same flight, so their atoms unify and the ladder already
  sends them to the same lane — where registration and the pair grounding
  run in arrival order, exactly as on the serialized writer.  The barrier
  only fires for the exotic cases (partner pending on another shard, or
  the reverse partner in flight on another lane) where the match could
  otherwise fire on a nondeterministic side.

  Each rung only ever *escalates* (same lane → one lane → all lanes
  drained), so scheduling changes but decisions cannot: a single-shard
  arrival's search reads only rows its own partition's atoms can ground
  on, which no other lane's partition can touch (independence), and
  cross-shard arrivals see a fully quiesced system.  Arrival sequences are
  allocated by the dispatcher *in arrival order* before any dispatch, so
  the serialization-order key — and therefore every accept/reject decision
  and grounding valuation — is bit-identical to the serialized writer's.
  The randomized linearization harness
  (``tests/sharding/test_concurrent_admission_harness.py``) checks exactly
  that, over hundreds of seeded streams and schedules.

The dispatcher never holds the manager's routing lock while waiting on a
full lane queue: classification (lock held, short) and dispatch (lock
released, possibly waiting) are strictly separate phases, and a saturated
queue raises the typed :class:`~repro.errors.AdmissionLaneSaturated` after
the bounded wait — which the controller absorbs by escalating to the
barrier rung.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import AdmissionLaneSaturated, QuantumError
from repro.logic.terms import Constant

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.quantum_database import CommitResult, QuantumDatabase
    from repro.core.resource_transaction import ResourceTransaction
    from repro.logic.atoms import Atom
    from repro.sharding.manager import ShardedPartitionManager


class ConflictRung(Enum):
    """The conflict ladder's rungs, in escalation order."""

    OWNED = "OWNED"
    NEW = "NEW"
    FOLLOW = "FOLLOW"
    BARRIER = "BARRIER"


@dataclass
class AdmissionStatistics:
    """Counters of the lane-parallel admission pipeline.

    Attributes:
        lanes: number of per-shard admission lanes.
        lane_dispatches: arrivals dispatched to a lane (rungs OWNED / NEW /
            FOLLOW).
        lane_admissions: arrivals a lane finished processing.
        barrier_arrivals: arrivals that ran serialized at an epoch barrier.
        barrier_drains: times every lane was drained to quiescence (one per
            barrier arrival, plus the final drain of each batch).
        lane_conflicts: classifications influenced by an in-flight arrival
            (the FOLLOW rung, or a barrier forced by in-flight conflicts
            spanning lanes).
        saturation_barriers: dispatches that timed out on a full lane queue
            and escalated to the barrier rung.
        injected_barriers: barriers forced by a test injector.
        batches: lane-parallel batches processed.
        max_lane_queue: deepest lane queue observed at dispatch time.
    """

    lanes: int = 0
    lane_dispatches: int = 0
    lane_admissions: int = 0
    barrier_arrivals: int = 0
    barrier_drains: int = 0
    lane_conflicts: int = 0
    saturation_barriers: int = 0
    injected_barriers: int = 0
    batches: int = 0
    max_lane_queue: int = 0


@dataclass
class _LaneWork:
    """One dispatched arrival: the slot it fills plus its fixed sequence."""

    slot: int
    transaction: "ResourceTransaction"
    sequence: int
    slots: list
    renamed: "ResourceTransaction | None" = None


#: Pattern placeholder for a variable (or unorderable) argument position.
_WILD = object()

#: A conflict pattern: relation → constant rows of that relation's atoms.
_ConflictPattern = dict[str, list[tuple]]


def conflict_pattern(atoms: Sequence["Atom"]) -> _ConflictPattern:
    """A cheap conservative unification pattern for an arrival's atoms.

    Each atom collapses to its tuple of argument constants (variables
    become wildcards).  Two atoms can only unify if they name the same
    relation and every argument position is compatible — equal constants,
    or a wildcard on either side — so comparing patterns over-approximates
    the exact pairwise ``unifiable`` probe ``merged_for`` uses.  That is
    the right direction for the dispatcher's in-flight conflict test: a
    false positive merely escalates a rung (same lane or a barrier — never
    a different decision), while the exact probe per in-flight arrival
    would re-create the O(pending × atoms²) scan cost the signature index
    was built to eliminate.
    """
    pattern: _ConflictPattern = {}
    for atom in atoms:
        row = tuple(
            term.value if isinstance(term, Constant) else _WILD
            for term in atom.terms
        )
        pattern.setdefault(atom.relation, []).append(row)
    return pattern


def patterns_may_unify(first: _ConflictPattern, second: _ConflictPattern) -> bool:
    """True when some atom pair of the two patterns could unify."""
    for relation in first.keys() & second.keys():
        for mine in first[relation]:
            for theirs in second[relation]:
                if len(mine) == len(theirs) and all(
                    a is _WILD or b is _WILD or a == b
                    for a, b in zip(mine, theirs)
                ):
                    return True
    return False


#: Sentinel telling a lane worker to exit.
_STOP = object()


class AdmissionLane:
    """One shard's admission writer: a worker thread over a bounded queue.

    The lane serializes every mutation of its shard's partitions: arrivals
    are processed strictly in dispatch order, inside the manager's
    ``lane_scope`` (fresh partitions join this shard; ownership is
    asserted) and the cache's ``lane_scope`` (witness counters land in this
    lane's slice).  The queue is bounded so a flooded shard applies
    backpressure at dispatch time instead of buffering without limit.
    """

    def __init__(
        self,
        controller: "AdmissionController",
        shard_id: int,
        *,
        queue_depth: int,
    ) -> None:
        self.shard_id = shard_id
        self._controller = controller
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_depth)
        self._thread = threading.Thread(
            target=self._worker,
            name=f"repro-admission-lane-{shard_id}",
            daemon=True,
        )
        self._thread.start()

    @property
    def depth(self) -> int:
        """Current queue depth (approximate, for statistics)."""
        return self._queue.qsize()

    def put(self, work: _LaneWork, timeout_s: float) -> None:
        """Enqueue one arrival, waiting at most ``timeout_s`` for a slot.

        Callers must *not* hold the routing lock: the whole point of the
        bounded wait is that a saturated lane slows only its own arrivals,
        never the router.  On timeout the typed
        :class:`~repro.errors.AdmissionLaneSaturated` is raised and the
        arrival was not enqueued.
        """
        try:
            self._queue.put(work, timeout=timeout_s)
        except queue.Full:
            raise AdmissionLaneSaturated(
                f"admission lane #{self.shard_id} stayed full for "
                f"{timeout_s}s (queue depth {self._queue.maxsize}); the "
                "arrival was not enqueued"
            ) from None

    def drain(self) -> None:
        """Block until every enqueued arrival has been fully processed."""
        self._queue.join()

    def close(self) -> None:
        """Stop the worker after it finishes everything already queued."""
        if not self._thread.is_alive():
            return
        self._queue.put(_STOP)
        self._thread.join()

    def _worker(self) -> None:
        while True:
            work = self._queue.get()
            try:
                if work is _STOP:
                    return
                self._controller._process_on_lane(self, work)
            finally:
                self._queue.task_done()


class AdmissionController:
    """Dispatcher of the lane-parallel admission pipeline.

    Owns one :class:`AdmissionLane` per shard and routes every arrival of a
    batch down the conflict ladder (see the module docstring).  Exactly one
    batch runs at a time (the session layer's single writer is the only
    caller; a lock enforces it for direct library use).

    Test instrumentation hooks:

    Attributes:
        before_admit: when set, called as ``before_admit(slot, shard_id)``
            on the lane thread right before an arrival is admitted — the
            linearization harness injects seeded jitter here to randomize
            lane interleavings.
        barrier_injector: when set, called as ``barrier_injector(slot,
            transaction)`` during classification; returning True forces the
            barrier rung (escalation never changes decisions, so injected
            barriers let the harness probe arbitrary epoch placements).
    """

    def __init__(
        self,
        qdb: "QuantumDatabase",
        manager: "ShardedPartitionManager",
        *,
        queue_depth: int = 256,
        dispatch_timeout_s: float = 5.0,
    ) -> None:
        if queue_depth < 1:
            raise QuantumError("admission lanes need a queue depth of at least 1")
        if dispatch_timeout_s <= 0:
            raise QuantumError("the lane dispatch timeout must be positive")
        self.qdb = qdb
        self.state = qdb.state
        self.manager = manager
        self.statistics = AdmissionStatistics(lanes=manager.shard_count)
        self._dispatch_timeout_s = dispatch_timeout_s
        self._lanes = tuple(
            AdmissionLane(self, shard.shard_id, queue_depth=queue_depth)
            for shard in manager.shards
        )
        #: slot → (conflict pattern, lane id) of arrivals dispatched but not
        #: finished; mutated only under the manager's routing lock.
        self._in_flight: dict[int, tuple[_ConflictPattern, int]] = {}
        #: (client, partner) → (lane id, slot) of the most recent partnered
        #: arrival in flight under that key; the partner-aware rung consults
        #: it so an entanglement match (and the registry's overwrite-on-
        #: duplicate behaviour) can only ever happen on one deterministic
        #: lane.  Same lock discipline as ``_in_flight``.
        self._in_flight_partners: dict[tuple[str, str], tuple[int, int]] = {}
        #: slot → in-flight partner key, for cleanup.
        self._partner_keys: dict[int, tuple[str, str]] = {}
        self._batch_lock = threading.Lock()
        self._closed = False
        self.before_admit: Callable[[int, int], None] | None = None
        self.barrier_injector: Callable[[int, "ResourceTransaction"], bool] | None = None

    @property
    def closed(self) -> bool:
        """True once the lanes were shut down."""
        return self._closed

    @property
    def lanes(self) -> tuple[AdmissionLane, ...]:
        """The per-shard admission lanes (index == shard id)."""
        return self._lanes

    # -- the batch entry point ----------------------------------------------

    def commit_many(
        self, transactions: Sequence["ResourceTransaction"]
    ) -> tuple[list["CommitResult"], list[int]]:
        """Admit a batch through the lanes; returns (results, sequences).

        Semantically equivalent to admitting the batch on the serialized
        writer in order: sequences are allocated up front in arrival order,
        single-shard arrivals run on their shard's lane, conflicts escalate
        down the ladder, and the final drain leaves the system quiescent
        before the caller adds the still-pending rows and commits the
        batch's one store transaction (which the lanes' groundings already
        wrote through, under the store guard's exclusive side).

        Raises:
            QuantumError: the controller was already closed.
            Exception: the first unexpected per-arrival error, re-raised
                after the lanes drained (rejections are results, never
                raises).
        """
        with self._batch_lock:
            # Checked under the batch lock: a concurrent close() waits for
            # the lock, so once we are past this line the lanes stay alive
            # for the whole batch.
            if self._closed:
                raise QuantumError("the admission controller is closed")
            slots: list[Any] = [None] * len(transactions)
            sequences: list[int] = [0] * len(transactions)
            self.statistics.batches += 1
            for slot, transaction in enumerate(transactions):
                sequence = self.state.allocate_sequence()
                sequences[slot] = sequence
                rung, lane_id, renamed = self._classify(slot, transaction)
                if rung is ConflictRung.BARRIER:
                    self._run_barrier(slot, transaction, sequence, slots, renamed)
                    continue
                lane = self._lanes[lane_id]
                depth = lane.depth
                if depth > self.statistics.max_lane_queue:
                    self.statistics.max_lane_queue = depth
                try:
                    lane.put(
                        _LaneWork(slot, transaction, sequence, slots, renamed),
                        self._dispatch_timeout_s,
                    )
                except AdmissionLaneSaturated:
                    # Escalate: forget the tentative dispatch and run the
                    # arrival as a barrier — slower, never different.
                    with self.manager.routing_lock:
                        self._forget_in_flight(slot)
                    self.statistics.saturation_barriers += 1
                    self._run_barrier(slot, transaction, sequence, slots, renamed)
                else:
                    self.statistics.lane_dispatches += 1
            self._drain_lanes()
            for outcome in slots:
                if isinstance(outcome, BaseException):
                    raise outcome
            return slots, sequences

    # -- the conflict ladder --------------------------------------------------

    def _classify(
        self, slot: int, transaction: "ResourceTransaction"
    ) -> tuple[ConflictRung, int | None, "ResourceTransaction"]:
        """Walk the conflict ladder for one arrival (routing lock held).

        Returns the rung, the target lane id for lane rungs, and the
        renamed transaction (computed for routing, reused by admission).
        Lane rungs also register the arrival in the in-flight table
        *before* the routing lock is released, so every later
        classification sees it.
        """
        renamed = transaction.rename_variables(f"@{transaction.transaction_id}")
        if self.barrier_injector is not None and self.barrier_injector(
            slot, transaction
        ):
            self.statistics.injected_barriers += 1
            return ConflictRung.BARRIER, None, renamed
        atoms = tuple(renamed.body) + tuple(renamed.updates)
        pattern = conflict_pattern(atoms)
        with self.manager.routing_lock:
            shard, candidates = self.manager.route(atoms)
            conflict_lanes = self._conflicting_lanes(pattern)
            if conflict_lanes:
                self.statistics.lane_conflicts += 1
            if shard is None:
                # Candidates span shards: rung 4 regardless of in-flight.
                return ConflictRung.BARRIER, None, renamed
            lanes = set(conflict_lanes)
            if candidates:
                lanes.add(shard.shard_id)
            if len(lanes) > 1:
                return ConflictRung.BARRIER, None, renamed
            if lanes:
                lane_id = lanes.pop()
                rung = (
                    ConflictRung.FOLLOW if conflict_lanes else ConflictRung.OWNED
                )
            else:
                # Fresh partition: pick the least-loaded lane, counting the
                # in-flight dispatches the router's shard sizes cannot see
                # yet (otherwise a burst of fresh arrivals — dispatched far
                # faster than lanes admit — all piles onto one lane).
                lane_id = self._least_loaded_lane()
                rung = ConflictRung.NEW
            partner_key: tuple[str, str] | None = None
            if transaction.client and transaction.partner:
                if not self._partner_match_stays_on_lane(transaction, lane_id):
                    return ConflictRung.BARRIER, None, renamed
                partner_key = (transaction.client, transaction.partner)
                self._in_flight_partners[partner_key] = (lane_id, slot)
                self._partner_keys[slot] = partner_key
            self._in_flight[slot] = (pattern, lane_id)
            return rung, lane_id, renamed

    def _partner_match_stays_on_lane(
        self, transaction: "ResourceTransaction", lane_id: int
    ) -> bool:
        """True when an entanglement match can only fire on ``lane_id``.

        Called under the routing lock for a partnered arrival.  The match
        completing this arrival's pair fires at whichever partner registers
        *second*; it triggers a pair grounding that mutates the partners'
        partitions.  That is lane-safe exactly when everything stays on one
        deterministic lane:

        * the reverse partner is already **waiting**: the match fires at
          *this* arrival — safe iff the waiting partner is pending in a
          partition owned by this lane's shard (the paper's same-flight
          pairs always are);
        * the reverse partner is **in flight** on some lane: registration
          order is only deterministic if it is this same lane (then the
          queue orders the pair);
        * the reverse partner is **absent**: this arrival only registers;
          the match will fire at the partner's own (later) admission, whose
          classification re-runs this check against *this* arrival's state.

        A *same-direction* duplicate (another in-flight arrival with this
        exact (client, partner) key) must also stay on this lane: the
        registry overwrites waiting entries per key, so which duplicate a
        later reverse partner matches depends on registration order —
        deterministic only when one lane serializes the duplicates.
        """
        key = (transaction.client, transaction.partner)
        duplicate = self._in_flight_partners.get(key)
        if duplicate is not None and duplicate[0] != lane_id:
            return False
        reverse = (transaction.partner, transaction.client)
        in_flight = self._in_flight_partners.get(reverse)
        if in_flight is not None:
            return in_flight[0] == lane_id
        waiting_id = self.qdb.entanglement.waiting.get(reverse)
        if waiting_id is None:
            return True
        located = self.manager.find(waiting_id)
        if located is None:
            # Waiting but no longer pending (should not happen; withdraw
            # runs on grounding) — escalate rather than guess.
            return False
        partition, _entry = located
        owner = self.manager.shard_for(partition.partition_id)
        return owner is not None and owner.shard_id == lane_id

    def _least_loaded_lane(self) -> int:
        """The lane a fresh partition should join (routing lock held).

        Owned-partition counts plus this batch's still-in-flight
        dispatches, tie-broken by lane id — deterministic given the same
        dispatch history, and only a scheduling choice either way (which
        shard owns a fresh partition never affects decisions).
        """
        in_flight_load: dict[int, int] = {}
        for _pattern, lane_id in self._in_flight.values():
            in_flight_load[lane_id] = in_flight_load.get(lane_id, 0) + 1
        return min(
            range(len(self._lanes)),
            key=lambda lane_id: (
                len(self.manager.shards[lane_id]) + in_flight_load.get(lane_id, 0),
                lane_id,
            ),
        )

    def _conflicting_lanes(self, pattern: _ConflictPattern) -> set[int]:
        """Lanes holding an in-flight arrival this one could unify with.

        Conservative (see :func:`conflict_pattern`): it may name a lane the
        exact scan would not, which only escalates a rung, never changes a
        decision — and it must never *miss* a real unification, which would
        let two lanes race on one would-be partition.
        """
        lanes: set[int] = set()
        for other_pattern, lane_id in self._in_flight.values():
            if lane_id in lanes:
                continue
            if patterns_may_unify(pattern, other_pattern):
                lanes.add(lane_id)
        return lanes

    # -- execution -------------------------------------------------------------

    def _process_on_lane(self, lane: AdmissionLane, work: _LaneWork) -> None:
        """Admit one arrival on its lane's thread (called by the worker)."""
        if self.before_admit is not None:
            self.before_admit(work.slot, lane.shard_id)
        try:
            with self.manager.lane_scope(lane.shard_id):
                with self.state.cache.lane_scope(lane.shard_id):
                    result, _sequence = self.qdb._admit_for_batch(
                        work.transaction,
                        sequence=work.sequence,
                        renamed=work.renamed,
                    )
        except BaseException as exc:  # noqa: BLE001 - marshalled to dispatcher
            work.slots[work.slot] = exc
        else:
            work.slots[work.slot] = result
        finally:
            with self.manager.routing_lock:
                self._forget_in_flight(work.slot)
                self.statistics.lane_admissions += 1

    def _forget_in_flight(self, slot: int) -> None:
        """Drop a slot's in-flight records (routing lock held)."""
        self._in_flight.pop(slot, None)
        partner_key = self._partner_keys.pop(slot, None)
        if partner_key is not None:
            # Only the entry this slot wrote: a later same-key duplicate
            # overwrites the map, and an earlier slot's cleanup must not
            # erase the duplicate's still-live record.
            current = self._in_flight_partners.get(partner_key)
            if current is not None and current[1] == slot:
                del self._in_flight_partners[partner_key]

    def _run_barrier(
        self,
        slot: int,
        transaction: "ResourceTransaction",
        sequence: int,
        slots: list,
        renamed: "ResourceTransaction | None" = None,
    ) -> None:
        """Rung 4: drain every lane, then admit serialized on the dispatcher."""
        self.statistics.barrier_arrivals += 1
        self._drain_lanes()
        result, _sequence = self.qdb._admit_for_batch(
            transaction, sequence=sequence, renamed=renamed
        )
        slots[slot] = result

    def _drain_lanes(self) -> None:
        """Wait for every lane to reach quiescence (queues empty, work done)."""
        self.statistics.barrier_drains += 1
        for lane in self._lanes:
            lane.drain()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut every lane down after it finishes its queued work.

        Waits for any in-flight batch first (the batch lock): stopping a
        lane mid-batch would strand work items behind the stop sentinel
        and hang the batch's final drain.  Closing is therefore always a
        clean cut between batches — no admission is abandoned half-way.
        """
        with self._batch_lock:
            if self._closed:
                return
            self._closed = True
        for lane in self._lanes:
            lane.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"<AdmissionController {state} lanes={len(self._lanes)} "
            f"dispatched={self.statistics.lane_dispatches}>"
        )
