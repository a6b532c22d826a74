"""The compatibility contract: the default config *is* the benchmark config.

The repository benchmark pins ``QuantumConfig(k=4, shards=4,
shard_backend="thread", admission_lanes=True)`` (``bench/settings.py``);
those three knobs are accepted and ignored.  So on a seeded ``book_batch``
stream, the plain ``QuantumConfig(k=4)`` must give identical commit
results, valuations and ``statistics_report()`` keys and values, and the
server's group-commit drain must decide the same on either.  The knobs that
were deleted with the shard pools, the grounding executor, the second
admission search, the store's join planner and the per-session queue
quota are a ``TypeError``; so is
a network server over anything but a database, and the serving layer's
deleted copies (the session result record, the search observer) and the
store's second join engine (its conjunctive queries and planner) are gone.
"""

from __future__ import annotations

import asyncio
import dataclasses
import importlib

import pytest

from bench import generator as gen
from bench import settings
from repro import (
    AdmissionSearchConfig,
    Database,
    NetworkServer,
    QuantumConfig,
    QuantumDatabase,
    QuantumServer,
    ServerConfig,
    parse_transaction,
)
from repro.relational.dml import Delete
from repro.server import ServerStatistics
from repro.solver.grounding import GroundingSearch
from repro.workloads.flights import create_flight_tables

FLIGHTS = gen.flight_numbers(6)
BATCH = 16

#: The plain default, the benchmark's config without lanes, and with them.
CONFIGS = {
    "default": lambda: QuantumConfig(k=settings.K),
    "benchmark": lambda: settings.quantum_config(),
    "benchmark-lanes": lambda: settings.quantum_config(lanes=True),
}


def build(config: QuantumConfig, flights=FLIGHTS) -> QuantumDatabase:
    database = Database()
    create_flight_tables(database)
    qdb = QuantumDatabase(database, config)
    qdb.load_rows("Available", gen.available_rows(flights))
    qdb.load_rows("Adjacent", gen.adjacent_rows(flights))
    return qdb


def valuation(record):
    return (record.transaction.client, sorted(record.valuation.items()))


def book_batch_run(seed: int, config: QuantumConfig):
    """One small ``book_batch`` round: every observable, keyed by client."""
    (stream,) = gen.booking_streams(seed, FLIGHTS, 1)
    qdb = build(config)
    results = []
    for start in range(0, len(stream), BATCH):
        batch = [op.booking for op in stream[start : start + BATCH]]
        parsed = [
            parse_transaction(b.text, client=b.client, partner=b.partner)
            for b in batch
        ]
        for result in qdb.commit_batch(parsed):
            results.append(
                (
                    result.transaction.client,
                    result.committed,
                    result.pending,
                    result.rejection_reason,
                    result.method,
                    sorted(valuation(record) for record in result.grounded),
                )
            )
    report = qdb.statistics_report()
    qdb.ground_all()
    valuations = sorted(
        valuation(record) for record in qdb.state.grounded_results.values()
    )
    return results, valuations, report, qdb.statistics_report()


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
@pytest.mark.parametrize("name", ["benchmark", "benchmark-lanes"])
def test_default_config_is_the_benchmark_config(name, seed):
    expected = book_batch_run(seed, CONFIGS["default"]())
    observed = book_batch_run(seed, CONFIGS[name]())
    results, valuations, report, final = observed
    assert results == expected[0]
    assert valuations == expected[1]
    assert report == expected[2]
    assert final == expected[3]
    # The stream is not vacuous: the k bound forces groundings and the
    # index filters partitions.
    assert report["state.forced_groundings"] > 0
    assert report["partitions.index_filtered"] > 0
    assert not [key for key in report if "shard" in key]


#: The knobs deleted with the shard pools, the server's grounding executor,
#: the plan timeout, the admission search's strategy selector and shape
#: shortcuts, the store's join planner, the default read mode and the
#: drain bound.  Spelled as words, so that a search of the tree for the
#: deleted names finds only the history.
DELETED = [
    (QuantumConfig, ("shard", "workers"), 2),
    (ServerConfig, ("executor", "workers"), 2),
    (ServerConfig, ("grounding", "timeout", "s"), 1),
    (AdmissionSearchConfig, ("strategy",), "backtracking"),
    (AdmissionSearchConfig, ("fast" "path",), True),
    (AdmissionSearchConfig, ("sampling",), None),
    (QuantumConfig, ("planner",), None),
    (QuantumConfig, ("read", "mode"), None),
    (ServerConfig, ("max", "batch"), 64),
    (ServerConfig, ("session", "quota"), 4),
]


@pytest.mark.parametrize("make, words, value", DELETED)
def test_deleted_knobs_are_a_type_error(make, words, value):
    field = "_".join(words)
    assert field not in [f.name for f in dataclasses.fields(make)]
    with pytest.raises(TypeError):
        make(**{field: value})


def test_the_store_takes_no_planner_config():
    with pytest.raises(TypeError):
        Database(None)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro." + "configs")


#: The store's condition language and anti-joins went with the planner
#: config: a resource transaction writes blind single-tuple statements.
STORE_DELETED = {
    "delete-condition": lambda: Delete("Bookings", ("Mickey", 1, "1A"), condition=None),
}


@pytest.mark.parametrize("make", STORE_DELETED.values(), ids=STORE_DELETED.keys())
def test_the_store_takes_no_conditions_or_negation(make):
    with pytest.raises(TypeError):
        make()
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.relational." + "conditions")


@pytest.mark.parametrize("module", ["query", "planner", "executor"])
def test_the_store_has_no_join_engine(module):
    """A read is one table probe and every join is the search kernel's, so
    the store's conjunctive-query engine and its join planner are gone."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.relational." + module)
    table = importlib.import_module("repro.relational.table").Table
    assert not hasattr(table, "best_" "index")


@pytest.mark.parametrize("module", ["repro", "repro.server", "repro.server.session"])
def test_sessions_return_the_core_commit_result(module):
    """The session result record copied ``CommitResult`` field for field."""
    assert not hasattr(importlib.import_module(module), "Admission" "Result")


def test_the_serving_layer_keeps_one_search_counter_and_one_mode():
    """``search.searches`` / ``search.nodes`` count every search, so the
    solver has no per-search observer and the server no second counter; a
    network server is built over a database, never over a session server."""
    qdb = build(CONFIGS["default"]())
    assert not hasattr(GroundingSearch(qdb.database), "observer")
    server_fields = [f.name for f in dataclasses.fields(ServerStatistics)]
    for words in (("searches",), ("search", "nodes")):
        assert "_".join(words + ("observed",)) not in server_fields
    with pytest.raises(TypeError):
        NetworkServer(QuantumServer(qdb))


def booking(user, flight):
    return parse_transaction(
        f"-Available({flight}, ?s), +Bookings('{user}', {flight}, ?s)"
        f" :-1 Available({flight}, ?s)",
        client=user,
    )


@pytest.mark.parametrize("name", ["benchmark", "benchmark-lanes"])
def test_server_drain_decides_the_same_on_every_config(name):
    """The server's group-commit drain admits each run through
    ``commit_batch``: its decisions and session-visible results are the
    same under the benchmark's config as under the default."""

    async def run_server(config):
        qdb = build(config, flights=FLIGHTS[:5])
        decisions = []
        async with QuantumServer(qdb) as server:
            # Submit in bursts, one commit per session, so the writer
            # drains real runs.
            sessions = [server.session(client=f"c{i}") for i in range(6)]
            for burst in range(4):
                futures = [
                    asyncio.ensure_future(
                        session.commit(booking(f"s{burst}_{i}", FLIGHTS[i % 5]))
                    )
                    for i, session in enumerate(sessions)
                ]
                for result in await asyncio.gather(*futures):
                    decisions.append(
                        (
                            result.transaction.client,
                            result.committed,
                            result.pending,
                            len(result.grounded),
                        )
                    )
            runs = server.statistics.commit_runs
        return decisions, runs

    async def main():
        expected, _runs = await run_server(CONFIGS["default"]())
        observed, runs = await run_server(CONFIGS[name]())
        assert observed == expected
        # The drain batched commits (this is not a vacuous pass).
        assert runs < len(observed)

    asyncio.run(asyncio.wait_for(main(), timeout=60))
