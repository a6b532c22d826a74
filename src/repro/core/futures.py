"""Shared concurrency utilities for the grounding-plan fan-out.

Two pieces live here:

* :func:`collect_plan_futures` — both grounding-plan fan-out paths (the
  sharded manager's ``plan_on_shards`` and
  :meth:`repro.core.quantum_state.QuantumState.ground`'s plain-executor
  path) collect their futures the same way: sequential
  ``result(timeout)`` per future, cancel everything on expiry, and raise
  :class:`~repro.errors.GroundingTimeout` before the caller applied
  anything.  Keeping the loop in one place keeps the two paths' timeout
  semantics (and their error message) from drifting apart.

* :class:`ReadWriteGuard` — the readers-writer lock over the extensional
  store: fanned-out grounding *plans* take the shared (read) side while
  they search, the writer's store *mutations* (grounding applies,
  blind-write validation) the exclusive (write) side.  Partition
  independence already makes the searched row sets disjoint; the guard
  exists because CPython dict and list internals still must not be
  structurally mutated mid-iteration by another thread — above all by the
  writer moving on while a plan whose future timed out is still running.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from repro.errors import GroundingTimeout


class ReadWriteGuard:
    """A reentrancy-aware readers-writer lock for the extensional store.

    Semantics:

    * any number of threads may hold the *read* side concurrently;
    * the *write* side is exclusive against readers and other writers;
    * the write side is reentrant for its owning thread, and a thread
      holding the write side may freely enter ``read()`` (a writer is
      trivially allowed to read its own exclusive state) — so e.g. the
      optional-atom satisfaction probes inside a grounding apply never
      self-deadlock.

    The guard is intentionally simple (no writer preference): there is one
    writer, and the readers are the plans of one fan-out.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: int | None = None
        self._writer_depth = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        """Hold the shared side for the duration of the block."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # The writing thread may read its own exclusive state.
                counted = False
            else:
                while self._writer is not None:
                    self._cond.wait()
                self._readers += 1
                counted = True
        try:
            yield
        finally:
            if counted:
                with self._cond:
                    self._readers -= 1
                    if self._readers == 0:
                        self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Hold the exclusive side for the duration of the block."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
            else:
                while self._writer is not None or self._readers:
                    self._cond.wait()
                self._writer = me
                self._writer_depth = 1
        try:
            yield
        finally:
            with self._cond:
                self._writer_depth -= 1
                if self._writer_depth == 0:
                    self._writer = None
                    self._cond.notify_all()


def collect_plan_futures(
    futures: Sequence[Future], timeout_s: float | None, *, what: str
) -> list[Any]:
    """Resolve plan futures in submission order under a per-future bound.

    Args:
        futures: the fanned-out plan futures, in group order (results come
            back in the same order, keeping the serial apply phase
            deterministic).
        timeout_s: per-future bound; ``None`` waits indefinitely.
        what: label naming the fan-out path in the timeout message
            (e.g. ``"shard plan"``).

    Raises:
        GroundingTimeout: a future missed the bound.  Every remaining
            future is cancelled (already-running workers finish and are
            discarded), and because the plan phase is read-only no plan was
            applied — the targeted transactions simply stay pending.
    """
    results: list[Any] = []
    try:
        for future in futures:
            results.append(future.result(timeout=timeout_s))
    except FutureTimeoutError as exc:
        for future in futures:
            future.cancel()
        raise GroundingTimeout(
            f"{what} future exceeded {timeout_s}s; no plan was applied and "
            "the targeted transactions stay pending"
        ) from exc
    return results
