"""The background compactor: reclaims sealed segments, never blocks writes.

One daemon worker thread, started eagerly, stopped by an explicit
``close()`` that joins the thread.  The worker sleeps on an event that the engine sets whenever
a segment is sealed or a checkpoint lands (plus a periodic wake-up as a
backstop), then runs :meth:`SegmentedWriteAheadLog.compact_once` until no
sealed segment is eligible.  A pass decides from the segments' in-memory
summaries: it unlinks fully superseded segments unread, leaves the ones
it keeps whole alone, and reads and rewrites only the mixed ones.  All
file work happens off the writer's lock, the pass's one atomic manifest
swap included — the single point of contact is the lock acquisition that
installs the pass's decisions.

The same passes build every base checkpoint after the first: when the
delta chain reaches ``base_interval`` the engine arms a fold and the next
compaction pass merges the previous base with the sealed deltas into a
synthesized ``CHECKPOINT_BASE``, so the writer never builds another full
snapshot.  It is the durability engine's only thread.

A mixed segment whose compaction keeps failing (a corrupt sealed file,
say) is quarantined by the engine after a bounded number of attempts
(``compaction_errors`` / ``last_compaction_error`` in
``durability_statistics()``) — the worker records the error and moves on
rather than re-reading the same damaged file in a hot loop.
"""

from __future__ import annotations

import threading

#: Idle wake-up period of the worker, in seconds; seals and checkpoints
#: wake it at once.
IDLE_WAKE_S = 0.05


class Compactor:
    """Worker thread driving an engine's sealed-segment compaction.

    Args:
        engine: the :class:`~repro.storage.engine.SegmentedWriteAheadLog`
            to compact (the compactor registers itself as the engine's
            trigger target).
    """

    def __init__(self, engine) -> None:
        self._engine = engine
        self._wake = threading.Event()
        self._stop = threading.Event()
        #: Last unexpected exception from a compaction pass (the thread
        #: survives it; surfaced for tests and debugging).
        self.last_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run,
            name="repro-wal-compactor",
            daemon=True,
        )
        self._thread.start()

    def trigger(self) -> None:
        """Wake the worker now (called at seals and checkpoints)."""
        self._wake.set()

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(IDLE_WAKE_S)
            self._wake.clear()
            if self._stop.is_set():
                return
            try:
                while self._engine.compact_once():
                    pass
            except Exception as exc:  # noqa: BLE001 - must not kill the thread
                # Compaction is an optimization: a failed pass leaves the
                # (larger but consistent) log in place, so record and retry
                # at the next wake-up rather than crash the server.  The
                # engine bounds the retries per segment — a persistently
                # failing segment is quarantined out of the candidate set,
                # so this never becomes a hot loop on the same file.
                self.last_error = exc

    def close(self) -> None:
        """Stop the worker after its current pass (idempotent)."""
        if not self._thread.is_alive():
            return
        self._stop.set()
        self._wake.set()
        self._thread.join()
