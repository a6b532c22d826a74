"""Metric definitions and their derivation from rounds and spans.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names,
units and directions; ``BENCHMARK.json`` repeats them and a test keeps
the two in step.  Every time-derived end-to-end metric is scaled: a
round's times are divided by the slowdown its reference samples showed
(``bench/reference.py``), so they read as on the quiet reference box;
the per-layer numbers are as measured, with ``host.slowdown`` beside
them.  Every workload emits every metric: a per-layer metric whose layer
a workload bypasses reads 0 there, which is the prediction ("no change")
a later optimisation of that layer is checked against.
"""

from __future__ import annotations

import resource
import statistics
from typing import Iterable, NamedTuple, Sequence

from bench import stats
from bench.spans import Aggregate, Span, summarize
from bench.workloads import Round, Workload


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    how: str
    #: ``metric @ workload`` pairs this number should move.
    moves: tuple[str, ...] = ()


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "build tables, load rows, start server/engine, connect; scaled, "
             "median over the run's rounds"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "successfully completed operations per measured second; scaled, "
             "median over rounds"),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25,
             "median latency of the workload's primary operation, request "
             "sent to reply received; scaled, median over rounds of each "
             "round's p50"),
    EndToEnd("op_tail_ms", "ms", "lower", 0.25,
             "the workload's tail percentile of the same latencies (p95 or "
             "p99, see README), scaled, median over rounds (on book_batch the "
             "p90 of the run's 64-commit batches together)"),
    EndToEnd("recover_s", "s", "lower", 0.25,
             "cold restart from a copy of the log until the first commit is "
             "accepted; scaled, median over restarts"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the benchmark process at exit"),
)

_T = "ops_per_s"
_P50 = "op_p50_ms"
_TAIL = "op_tail_ms"

PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("protocol.codec_ms_per_req", "ms", "lower",
             "encode_frame + FrameDecoder.feed self time / net.requests",
             (f"{_P50}@lookup_tcp", f"{_T}@lookup_tcp")),
    PerLayer("protocol.bytes_per_req", "B", "lower",
             "(net.bytes_in + net.bytes_out) / net.requests",
             (f"{_T}@lookup_tcp",)),
    PerLayer("net.read_overhead_p50_ms", "ms", "lower",
             "p50(NetClient.read) - p50(Session.read)",
             (f"{_P50}@lookup_tcp",)),
    PerLayer("net.commit_overhead_p50_ms", "ms", "lower",
             "p50(NetClient.commit) - p50(Session.commit)",
             (f"{_P50}@book_tcp",)),
    PerLayer("net.errors", "count", "lower",
             "net.errors_sent + protocol_errors + slow_client_disconnects"),
    PerLayer("service.commit_overhead_p50_ms", "ms", "lower",
             "p50(Session.commit - the core span that admitted it)",
             (f"{_P50}@book_tcp", f"{_P50}@mixed_session")),
    PerLayer("service.read_wait_p50_ms", "ms", "lower",
             "p50(Session.read) - p50(QuantumDatabase.read)",
             (f"{_TAIL}@lookup_tcp",)),
    PerLayer("service.mean_commit_run", "txns", "higher",
             "(server.commits + server.batch_commits) / server.commit_runs",
             (f"{_T}@book_tcp",)),
    PerLayer("service.queue_high_water", "items", "lower",
             "server.queue_high_water", (f"{_TAIL}@lookup_tcp",)),
    PerLayer("core.admit_self_ms_per_txn", "ms", "lower",
             "self time of execute/commit_batch / state.admitted",
             (f"{_T}@book_batch", f"{_P50}@book_tcp")),
    PerLayer("core.ground_self_ms_per_txn", "ms", "lower",
             "self time of read/check_in/ground / transactions they grounded",
             (f"{_T}@mixed_session",)),
    PerLayer("core.write_validate_ms_per_write", "ms", "lower",
             "QuantumDatabase.insert/delete time / state.writes_checked",
             (f"{_T}@mixed_session",)),
    PerLayer("core.witness_hit_rate", "ratio", "higher",
             "cache.witness_hits / (hits + misses)",
             (f"{_T}@book_batch", f"{_T}@book_tcp")),
    PerLayer("core.fallback_searches_per_txn", "ratio", "lower",
             "cache.fallback_searches / admitted", (f"{_TAIL}@book_tcp",)),
    PerLayer("core.witness_invalidations_per_write", "ratio", "lower",
             "cache.witness_invalidations / writes",
             (f"{_P50}@mixed_session",)),
    PerLayer("core.forced_groundings_per_txn", "ratio", "lower",
             "state.forced_groundings / admitted", (f"{_TAIL}@book_tcp",)),
    PerLayer("core.max_pending", "txns", "lower", "state.max_pending",
             ("peak_rss_mb@book_tcp", "recover_s@book_tcp")),
    PerLayer("core.recover_readmit_ms", "ms", "lower",
             "QuantumDatabase.recover span, mean per restart",
             ("recover_s@book_tcp",)),
    PerLayer("core.coordinated_pct", "%", "higher",
             "coordination_report() after the final ground_all (the paper's "
             "utility measure; gated by the quality probe, see README)"),
    PerLayer("sharding.route_ms_per_txn", "ms", "lower",
             "merged_for self time / transactions",
             (f"{_T}@book_batch", f"{_T}@book_tcp")),
    PerLayer("sharding.unification_checks_per_txn", "count", "lower",
             "partitions.unification_checks / transactions",
             (f"{_T}@book_batch", f"{_T}@book_tcp")),
    PerLayer("sharding.index_filter_rate", "ratio", "higher",
             "index_filtered / (index_filtered + scanned_partitions)",
             (f"{_T}@book_batch", f"{_T}@book_tcp")),
    PerLayer("sharding.lane_dispatch_share", "ratio", "higher",
             "admission.lane_dispatches / (dispatches + barrier_arrivals)",
             (f"{_T}@book_batch",)),
    PerLayer("sharding.barrier_drains", "count", "lower",
             "admission.barrier_drains", (f"{_T}@book_batch",)),
    PerLayer("solver.search_ms_per_txn", "ms", "lower",
             "GroundingSearch.find_one time / transactions",
             (f"{_T}@book_batch", f"{_TAIL}@book_tcp")),
    PerLayer("solver.nodes_per_search", "count", "lower",
             "search.nodes / search.searches",
             (f"{_T}@book_batch", f"{_TAIL}@book_tcp")),
    PerLayer("solver.searches_per_txn", "count", "lower",
             "search.searches / transactions",
             (f"{_T}@book_batch", f"{_TAIL}@book_tcp")),
    PerLayer("relational.query_ms_per_read", "ms", "lower",
             "Database.execute time / reads", (f"{_P50}@lookup_tcp",)),
    PerLayer("relational.txn_ms_per_commit", "ms", "lower",
             "Transaction.commit self time / store commits",
             (f"{_P50}@store_churn",)),
    PerLayer("relational.wal_records_per_commit", "count", "lower",
             "log records appended / store commits"),
    PerLayer("storage.append_ms_per_commit", "ms", "lower",
             "engine append + flush time / store commits",
             (f"{_P50}@store_churn", f"{_P50}@book_tcp")),
    PerLayer("storage.fsyncs_per_commit", "ratio", "lower",
             "durability.fsyncs / store commits",
             (f"{_T}@book_tcp", f"{_T}@store_churn")),
    PerLayer("storage.bytes_appended_per_commit", "B", "lower",
             "(final disk bytes + bytes_reclaimed - bytes after set-up) / "
             "store commits"),
    PerLayer("storage.disk_bytes_per_live_byte", "ratio", "lower",
             "bytes on disk after the compactor is quiesced / JSON bytes of "
             "live user rows"),
    PerLayer("storage.checkpoint_pause_max_ms", "ms", "lower",
             "longest Database.checkpoint span",
             (f"{_TAIL}@store_churn", f"{_TAIL}@book_tcp")),
    PerLayer("storage.checkpoint_ms_per_s", "ms/s", "lower",
             "Database.checkpoint time per measured second",
             (f"{_T}@store_churn",)),
    PerLayer("storage.compaction_ms_per_s", "ms/s", "lower",
             "compact_once time (background thread) per measured second",
             (f"{_TAIL}@store_churn",)),
    PerLayer("storage.recover_replay_ms", "ms", "lower",
             "repro.storage.recover span, mean per restart",
             ("recover_s@store_churn", "recover_s@book_tcp")),
    PerLayer("ops.commit_p50_ms", "ms", "lower",
             "median latency of one booking commit (traced pass)"),
    PerLayer("ops.commit_p99_ms", "ms", "lower",
             "p99 of the same; 0 below 1000 samples"),
    PerLayer("ops.read_p50_ms", "ms", "lower",
             "median latency of collapse reads and check-ins (mixed_session) "
             "or point lookups (lookup_tcp)"),
    PerLayer("ops.read_p99_ms", "ms", "lower",
             "p99 of the same; 0 below 1000 samples"),
    PerLayer("ops.write_p50_ms", "ms", "lower",
             "median latency of a blind insert+delete (mixed_session) or a "
             "10-row store transaction (store_churn)"),
    PerLayer("ops.write_p99_ms", "ms", "lower",
             "p99 of the same; 0 below 1000 samples"),
    PerLayer("ops.failed", "count", "lower",
             "errors + refusals + wrong answers in the traced pass"),
    PerLayer("process.cpu_ms_per_op", "ms", "lower",
             "process CPU time (all threads, user + system) per completed "
             "operation of the measured region: throughput bought by burning "
             "the second core shows here", (f"{_T}@book_batch",)),
    PerLayer("host.slowdown", "ratio", "lower",
             "time of the reference work in the measured regions over its "
             "time on the quiet reference box (median over rounds): divide a "
             "per-layer time by it to compare with a scaled end-to-end one"),
    PerLayer("trace.overhead_frac", "ratio", "lower",
             "1 - traced ops_per_s / untraced ops_per_s of the same run"),
)

#: Operation kinds (as the workloads record them) behind each ``ops.*`` class.
OP_CLASSES = {
    "commit": ("book",),
    "read": ("read", "check_in", "lookup"),
    "write": ("write", "txn"),
}


def _div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p50(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def _pooled(rounds: Iterable[Round], kinds: Sequence[str]) -> list[float]:
    return [sample for rnd in rounds for sample in rnd.samples(kinds)]


def ops_per_s(rounds: Sequence[Round]) -> float:
    """Scaled throughput: what each round would have done on the quiet box."""
    return statistics.median(
        [
            (rnd.attempted - rnd.failed) / rnd.measure_s * rnd.slowdown["measure"]
            for rnd in rounds
        ]
    )


def end_to_end(workload: Workload, rounds: Sequence[Round]) -> dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    primary = [
        [sample / rnd.slowdown["measure"] for sample in rnd.samples(workload.primary)]
        for rnd in rounds
    ]
    if workload.pooled_tail:
        tail = stats.percentile(
            [sample for samples in primary for sample in samples],
            workload.tail_percentile,
        )
    else:
        tail = stats.percentile_over_rounds(primary, workload.tail_percentile)
    return {
        "setup_s": statistics.median(
            [rnd.setup_s / rnd.slowdown["setup"] for rnd in rounds]
        ),
        "ops_per_s": ops_per_s(rounds),
        "op_p50_ms": 1e3 * stats.percentile_over_rounds(primary, 50),
        "op_tail_ms": 1e3 * tail,
        "recover_s": statistics.median(
            [s / rnd.slowdown["recover"] for rnd in rounds for s in rnd.recover_s]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(
    rounds: Sequence[Round], spans: Sequence[Span], reference_ops_per_s: float
) -> dict[str, float]:
    """The per-layer metrics of a traced run (``rounds`` are the traced ones)."""
    measure = summarize(spans, "measure")
    recover = summarize(spans, "recover")
    none = Aggregate()

    def agg(name: str, summary=measure) -> Aggregate:
        return summary.get(name, none)

    def delta(key: str) -> float:
        return sum(rnd.delta.get(key, 0) for rnd in rounds)

    def peak(key: str) -> float:
        return max((rnd.final.get(key, 0) for rnd in rounds), default=0)

    def fact(key: str) -> float:
        return sum(rnd.facts.get(key, 0) for rnd in rounds)

    def ms(seconds: float) -> float:
        return 1e3 * seconds

    requests = delta("net.requests")
    txns = delta("state.admitted")
    writes = delta("state.writes_checked")
    store_commits = agg("Transaction.commit").count
    measured_s = sum(rnd.measure_s for rnd in rounds)
    hits, misses = delta("cache.witness_hits"), delta("cache.witness_misses")
    filtered = delta("partitions.index_filtered")
    dispatches = delta("admission.lane_dispatches")

    admit = {
        txid: span
        for span in spans
        if span.name in ("QuantumDatabase.execute", "QuantumDatabase.commit_batch")
        for txid in span.payload or ()
    }
    commit_overheads = [
        span.duration - admit[span.payload[0]].duration
        for span in spans
        if span.name == "Session.commit"
        and span.phase == "measure"
        and span.payload
        and span.payload[0] in admit
    ]
    collapsing = tuple(
        f"QuantumDatabase.{method}" for method in ("read", "check_in", "ground")
    )
    grounded = sum(
        span.payload or 0
        for span in spans
        if span.name in collapsing and span.phase == "measure"
    )
    appends = (
        agg("WriteAheadLog.append").count
        + agg("SegmentedWriteAheadLog.append").count
    )

    values = {
        "protocol.codec_ms_per_req": ms(_div(
            agg("protocol.encode_frame").self_time + agg("FrameDecoder.feed").self_time,
            requests)),
        "protocol.bytes_per_req": _div(
            delta("net.bytes_in") + delta("net.bytes_out"), requests),
        "net.read_overhead_p50_ms": ms(
            _p50(agg("NetClient.read").durations) - _p50(agg("Session.read").durations)
        ) if agg("NetClient.read").count else 0.0,
        "net.commit_overhead_p50_ms": ms(
            _p50(agg("NetClient.commit").durations)
            - _p50(agg("Session.commit").durations)
        ) if agg("NetClient.commit").count else 0.0,
        "net.errors": delta("net.errors_sent") + delta("net.protocol_errors")
        + delta("net.slow_client_disconnects"),
        "service.commit_overhead_p50_ms": ms(_p50(commit_overheads)),
        "service.read_wait_p50_ms": ms(
            _p50(agg("Session.read").durations)
            - _p50(agg("QuantumDatabase.read").durations)
        ) if agg("Session.read").count else 0.0,
        "service.mean_commit_run": _div(
            delta("server.commits") + delta("server.batch_commits"),
            delta("server.commit_runs")),
        "service.queue_high_water": peak("server.queue_high_water"),
        "core.admit_self_ms_per_txn": ms(_div(
            agg("QuantumDatabase.execute").self_time
            + agg("QuantumDatabase.commit_batch").self_time, txns)),
        "core.ground_self_ms_per_txn": ms(_div(
            sum(agg(name).self_time for name in collapsing), grounded)),
        "core.write_validate_ms_per_write": ms(_div(
            agg("QuantumDatabase.insert").total + agg("QuantumDatabase.delete").total,
            writes)),
        "core.witness_hit_rate": _div(hits, hits + misses),
        "core.fallback_searches_per_txn": _div(delta("cache.fallback_searches"), txns),
        "core.witness_invalidations_per_write": _div(
            delta("cache.witness_invalidations"), writes),
        "core.forced_groundings_per_txn": _div(delta("state.forced_groundings"), txns),
        "core.max_pending": peak("state.max_pending"),
        "core.recover_readmit_ms": ms(_div(
            agg("QuantumDatabase.recover", recover).total,
            agg("QuantumDatabase.recover", recover).count)),
        "core.coordinated_pct": _div(
            fact("coordinated_pct"),
            sum("coordinated_pct" in rnd.facts for rnd in rounds)),
        "sharding.route_ms_per_txn": ms(_div(
            agg("ShardedPartitionManager.merged_for").self_time, txns)),
        "sharding.unification_checks_per_txn": _div(
            delta("partitions.unification_checks"), txns),
        "sharding.index_filter_rate": _div(
            filtered, filtered + delta("partitions.scanned_partitions")),
        "sharding.lane_dispatch_share": _div(
            dispatches, dispatches + delta("admission.barrier_arrivals")),
        "sharding.barrier_drains": delta("admission.barrier_drains"),
        "solver.search_ms_per_txn": ms(_div(
            agg("GroundingSearch.find_one").total, txns)),
        "solver.nodes_per_search": _div(
            delta("search.nodes"), delta("search.searches")),
        "solver.searches_per_txn": _div(delta("search.searches"), txns),
        "relational.query_ms_per_read": ms(_div(
            agg("Database.execute").total, agg("QuantumDatabase.read").count)),
        "relational.txn_ms_per_commit": ms(_div(
            agg("Transaction.commit").self_time, store_commits)),
        "relational.wal_records_per_commit": _div(appends, store_commits),
        "storage.append_ms_per_commit": ms(_div(
            agg("SegmentedWriteAheadLog.append").total
            + agg("SegmentedWriteAheadLog.flush").total, store_commits)),
        "storage.fsyncs_per_commit": _div(
            delta("durability.fsyncs"), store_commits),
        "storage.bytes_appended_per_commit": _div(
            fact("appended_bytes"), store_commits),
        "storage.disk_bytes_per_live_byte": _div(
            fact("disk_bytes"), fact("live_bytes")),
        "storage.checkpoint_pause_max_ms": ms(agg("Database.checkpoint").longest),
        "storage.checkpoint_ms_per_s": ms(_div(
            agg("Database.checkpoint").total, measured_s)),
        "storage.compaction_ms_per_s": ms(_div(
            agg("SegmentedWriteAheadLog.compact_once").total, measured_s)),
        "storage.recover_replay_ms": ms(_div(
            agg("storage.recover", recover).total,
            agg("storage.recover", recover).count)),
        "ops.failed": sum(rnd.failed for rnd in rounds),
        "process.cpu_ms_per_op": ms(statistics.median(
            [rnd.cpu_s / (rnd.attempted - rnd.failed) for rnd in rounds])),
        "host.slowdown": statistics.median(
            [rnd.slowdown["measure"] for rnd in rounds]),
        "trace.overhead_frac": 1 - _div(ops_per_s(rounds), reference_ops_per_s),
    }
    for name, kinds in OP_CLASSES.items():
        samples = _pooled(rounds, kinds)
        values[f"ops.{name}_p50_ms"] = ms(_p50(samples))
        values[f"ops.{name}_p99_ms"] = (
            ms(stats.percentile(samples, 99)) if len(samples) >= 1000 else 0.0
        )
    return values
