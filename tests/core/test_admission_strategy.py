"""End-to-end tests for the admission-search API.

Pins the whole provenance path of an admission decision: the bounds
configured through ``QuantumConfig(search=AdmissionSearchConfig(...))``
apply to the search inside ``SolutionCache.ensure``, the probe's
``method``/``exhausted_budget`` travel back with the admission
(on the pending entry or on the rejection), the typed
:class:`AdmissionSearchExhausted` outcome fires on
budget exhaustion, and the wire-visible :class:`CommitResult` carries the
provenance out — including over the framed TCP protocol's codec.
"""

from __future__ import annotations

import pytest

from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.errors import AdmissionSearchExhausted, TransactionRejected
from repro.server.client import RemoteCommitResult
from repro.server.protocol import commit_value
from repro.solver.strategy import AdmissionSearchConfig

BOOK = "-Available(?f, ?s), +Bookings('{p}', ?f, ?s) :-1 Available(?f, ?s)"


def make_qdb(search: AdmissionSearchConfig | None = None, seats: int = 2):
    config = QuantumConfig(search=search) if search is not None else QuantumConfig()
    qdb = QuantumDatabase(config=config)
    qdb.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"]
    )
    qdb.load_rows("Available", [("f1", f"1{chr(ord('A') + i)}") for i in range(seats)])
    return qdb


class TestMethodSurfacing:
    def test_default_config_reports_backtracking(self):
        qdb = make_qdb()
        result = qdb.execute(BOOK.format(p="Mickey"))
        assert result.committed
        assert result.method == "backtracking"

    def test_second_booking_extends_the_witness(self):
        qdb = make_qdb()
        first = qdb.execute(BOOK.format(p="Mickey"))
        assert first.committed and first.method == "backtracking"
        second = qdb.execute(BOOK.format(p="Donald"))
        assert second.committed and second.method == "witness"

    def test_witness_accept_round_trips_the_wire(self):
        qdb = make_qdb()
        qdb.execute(BOOK.format(p="Mickey"))
        result = qdb.execute(BOOK.format(p="Donald"))
        # CommitResult → wire codec → remote client view
        value = commit_value(result)
        assert "exact" not in value
        remote = RemoteCommitResult.from_value(value)
        assert remote.committed and remote.method == "witness"

    def test_rejection_reports_deciding_method(self):
        qdb = make_qdb(seats=1)
        assert qdb.execute(BOOK.format(p="Mickey")).committed
        rejected = qdb.execute(BOOK.format(p="Donald"))
        assert not rejected.committed
        assert rejected.method == "backtracking"

    def test_backtracking_rejection_round_trips_the_wire(self):
        qdb = make_qdb(seats=1)
        assert qdb.execute(BOOK.format(p="Mickey")).committed
        rejected = qdb.execute(BOOK.format(p="Donald"))
        remote = RemoteCommitResult.from_value(commit_value(rejected))
        assert not remote.committed
        assert remote.method == "backtracking"
        assert remote.rejection_reason == rejected.rejection_reason

    def test_statistics_report_exposes_search_counters(self):
        qdb = make_qdb()
        qdb.execute(BOOK.format(p="Mickey"))
        report = qdb.statistics_report()
        assert "cache.sampled_admissions" not in report
        # The one exact search's counters, and nothing else.
        assert sorted(key for key in report if key.startswith("search.")) == [
            "search.backtracks",
            "search.choice_points",
            "search.exhausted_budget",
            "search.nodes",
            "search.rows_examined",
            "search.searches",
            "search.undo_depth",
        ]


#: A body needing at least two search nodes (a join through Adjacent), so
#: a one-node budget must exhaust before deciding satisfiability.
PAIR = (
    "+Bookings('{p}', ?f, ?s) :-1 "
    "Available(?f, ?s), Adjacent(?f, ?s, ?s2), Available(?f, ?s2)"
)


def make_adjacency_qdb(search: AdmissionSearchConfig):
    qdb = make_qdb(search, seats=3)
    qdb.create_table(
        "Adjacent", ["flight", "seat1", "seat2"], key=["flight", "seat1", "seat2"]
    )
    qdb.load_rows("Adjacent", [("f1", "1A", "1B"), ("f1", "1B", "1C")])
    return qdb


class TestBudgetOutcome:
    def test_exhausted_budget_raises_typed_rejection(self):
        config = AdmissionSearchConfig(node_budget=1)
        qdb = make_adjacency_qdb(config)
        with pytest.raises(AdmissionSearchExhausted):
            qdb.state.admit(_parse(PAIR.format(p="Mickey")))

    def test_generous_budget_admits_the_same_transaction(self):
        config = AdmissionSearchConfig(node_budget=10_000)
        qdb = make_adjacency_qdb(config)
        result = qdb.execute(PAIR.format(p="Mickey"))
        assert result.committed

    def test_typed_outcome_is_a_transaction_rejected(self):
        assert issubclass(AdmissionSearchExhausted, TransactionRejected)

    def test_execute_reports_rejection_not_crash(self):
        config = AdmissionSearchConfig(node_budget=1)
        qdb = make_adjacency_qdb(config)
        result = qdb.execute(PAIR.format(p="Mickey"))
        assert not result.committed
        assert "budget" in (result.rejection_reason or "")


def _parse(text: str):
    from repro.core.parser import parse_transaction

    return parse_transaction(text)
