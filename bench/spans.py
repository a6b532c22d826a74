"""The benchmark's own span recorder, installed only in the traced pass.

``install(recorder)`` wraps the public callables listed in ``TARGETS``
(the boundaries between this repository's layers) with timing wrappers
and restores every one of them on exit, so the program's files stay
untouched and the untraced pass runs the program exactly as shipped.

A span has an id, the id of the enclosing span in the same thread or
asyncio task (its cause, ``-1`` at the top), a name, the thread, start,
end, the benchmark phase it started in and an optional payload: commit
spans carry their transaction ids, so a ``Session.commit`` span can be
joined to the ``core`` span that admitted it.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    thread: int
    start: float
    end: float
    phase: str
    payload: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; written out when the benchmark ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Set by the harness around each region of a round.
        self.phase = "setup"
        self._ids = itertools.count()
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "bench_span", default=-1
        )

    def wrap(self, name: str, function: Callable, target: "Target") -> Callable:
        """A wrapper recording one span per call of ``function``."""
        ids, current, spans = self._ids, self._current, self.spans
        before, after = target.before, target.after
        clock, thread_id = time.perf_counter, threading.get_ident

        # ``phase`` is read when a span starts: background work that
        # outlasts the measured region still counts into it.
        def finish(sid, parent, token, start, phase, payload):
            end = clock()
            current.reset(token)
            spans.append(
                Span(sid, parent, name, thread_id(), start, end, phase, payload)
            )

        if target.kind == "async":

            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                entered = before(args[0]) if before else None
                sid, parent = next(ids), current.get()
                token = current.set(sid)
                phase = self.phase
                start = clock()
                payload = None
                try:
                    result = await function(*args, **kwargs)
                    if after:
                        payload = after(args[0], result, entered)
                    return result
                finally:
                    finish(sid, parent, token, start, phase, payload)

        else:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                entered = before(args[0]) if before else None
                sid, parent = next(ids), current.get()
                token = current.set(sid)
                phase = self.phase
                start = clock()
                payload = None
                try:
                    result = function(*args, **kwargs)
                    if after:
                        payload = after(args[0], result, entered)
                    return result
                finally:
                    finish(sid, parent, token, start, phase, payload)

        return wrapper


# -- payload probes -------------------------------------------------------


def _transaction_id(_obj, result, _entered):
    return (result.transaction_id,)


def _transaction_ids(_obj, results, _entered):
    return tuple(result.transaction_id for result in results)


def _pending(qdb):
    return qdb.pending_count


def _grounded(qdb, _result, pending_before):
    """Transactions the call collapsed (it admits none, so the drop in
    the pending count is exactly what it grounded)."""
    return pending_before - qdb.pending_count


class Target(NamedTuple):
    """One public callable the traced pass wraps."""

    layer: str
    owner: str  # "module" or "module:Class"
    attr: str
    kind: str = "sync"  # "sync", "async" or "classmethod"
    before: Callable | None = None
    after: Callable | None = None
    name: str | None = None

    @property
    def span_name(self) -> str:
        if self.name:
            return self.name
        module, _, cls = self.owner.partition(":")
        return f"{cls or module.rsplit('.', 1)[-1]}.{self.attr}"


_QDB = "repro.core.quantum_database:QuantumDatabase"
_SESSION = "repro.server.session:Session"
_CLIENT = "repro.server.client:NetClient"
_ENGINE = "repro.storage.engine:SegmentedWriteAheadLog"
_MANAGER = "repro.sharding.manager:ShardedPartitionManager"
_LANES = "repro.sharding.admission_lane:AdmissionController"
_ENCODE = "protocol.encode_frame"

TARGETS: tuple[Target, ...] = (
    # encode_frame is imported by name into net and client, so the name
    # is wrapped in each module that calls it.
    Target("protocol", "repro.server.protocol", "encode_frame"),
    Target("protocol", "repro.server.net", "encode_frame", name=_ENCODE),
    Target("protocol", "repro.server.client", "encode_frame", name=_ENCODE),
    Target("protocol", "repro.server.protocol:FrameDecoder", "feed"),
    Target("net", _CLIENT, "commit", "async", after=_transaction_id),
    Target("net", _CLIENT, "read", "async"),
    Target("net", _CLIENT, "check_in", "async"),
    Target("net", _CLIENT, "ping", "async"),
    Target("service", _SESSION, "commit", "async", after=_transaction_id),
    Target("service", _SESSION, "read", "async"),
    Target("service", _SESSION, "insert", "async"),
    Target("service", _SESSION, "delete", "async"),
    Target("service", _SESSION, "check_in", "async"),
    Target("service", "repro.server.service:QuantumServer", "ground_all", "async"),
    Target("service", "repro.server.service:QuantumServer", "checkpoint", "async"),
    Target("core", _QDB, "execute", after=_transaction_id),
    Target("core", _QDB, "commit_batch", after=_transaction_ids),
    Target("core", _QDB, "read", before=_pending, after=_grounded),
    Target("core", _QDB, "insert"),
    Target("core", _QDB, "delete"),
    Target("core", _QDB, "ground", before=_pending, after=_grounded),
    Target("core", _QDB, "ground_all"),
    Target("core", _QDB, "check_in", before=_pending, after=_grounded),
    Target("core", _QDB, "recover", "classmethod"),
    Target("core", "repro.core.solution_cache:SolutionCache", "ensure"),
    Target("sharding", _MANAGER, "merged_for"),
    Target("sharding", _MANAGER, "plan_on_shards"),
    Target("sharding", _LANES, "commit_many"),
    Target("solver", "repro.solver.grounding:GroundingSearch", "find_one"),
    Target("relational", "repro.relational.database:Database", "execute"),
    Target("relational", "repro.relational.database:Database", "checkpoint"),
    Target("relational", "repro.relational.transaction:Transaction", "commit"),
    Target("relational", "repro.relational.wal:WriteAheadLog", "append"),
    Target("storage", _ENGINE, "append"),
    Target("storage", _ENGINE, "flush"),
    Target("storage", _ENGINE, "checkpoint"),
    Target("storage", _ENGINE, "checkpoint_delta"),
    Target("storage", _ENGINE, "compact_once"),
    Target("storage", "repro.storage", "recover"),
)

#: Span name -> layer.
LAYER_OF = {target.span_name: target.layer for target in TARGETS}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    resolved = importlib.import_module(module)
    return getattr(resolved, cls) if cls else resolved


@contextlib.contextmanager
def install(
    recorder: SpanRecorder, targets: Iterable[Target] = TARGETS
) -> Iterator[None]:
    """Wrap every target; restore each original on exit, whatever happens."""
    undo: list[tuple[Any, str, Any, bool]] = []
    try:
        for target in targets:
            owner = _resolve(target.owner)
            own = target.attr in vars(owner)
            original = vars(owner)[target.attr] if own else getattr(owner, target.attr)
            if target.kind == "classmethod":
                wrapped = classmethod(
                    recorder.wrap(target.span_name, original.__func__, target)
                )
            else:
                wrapped = recorder.wrap(target.span_name, original, target)
            setattr(owner, target.attr, wrapped)
            undo.append((owner, target.attr, original, own))
        yield
    finally:
        for owner, attr, original, own in reversed(undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def installed(targets: Iterable[Target] = TARGETS) -> list[str]:
    """Targets whose current attribute is one of this module's wrappers."""
    found = []
    for target in targets:
        current = getattr(_resolve(target.owner), target.attr)
        function = getattr(current, "__func__", current)
        if getattr(function, "__wrapped__", None) is not None and (
            function.__code__.co_filename == __file__
        ):
            found.append(f"{target.owner}.{target.attr}")
    return found


# -- aggregation ----------------------------------------------------------


@dataclass
class Aggregate:
    """Totals of one span name over the selected phases (seconds)."""

    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    longest: float = 0.0
    durations: list[float] = field(default_factory=list)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    children: dict[int, float] = {}
    for span in spans:
        if span.parent >= 0:
            children[span.parent] = children.get(span.parent, 0.0) + span.duration
    return {
        span.id: max(0.0, span.duration - children.get(span.id, 0.0))
        for span in spans
    }


def summarize(spans: Iterable[Span], phase: str) -> dict[str, Aggregate]:
    """Per span name, the totals of the spans that started in ``phase``.

    Self times subtract every child, whatever phase the child started in.
    """
    spans = list(spans)
    own = self_times(spans)
    summary: dict[str, Aggregate] = {}
    for span in spans:
        if span.phase != phase:
            continue
        aggregate = summary.setdefault(span.name, Aggregate())
        aggregate.count += 1
        aggregate.total += span.duration
        aggregate.self_time += own[span.id]
        aggregate.longest = max(aggregate.longest, span.duration)
        aggregate.durations.append(span.duration)
    return summary
