"""End-to-end tests for the redesigned admission-search API.

Pins the whole provenance path of an admission decision: the strategy
selected through ``QuantumConfig(search=AdmissionSearchConfig(...))``
drives the pure ``compute_admission`` dispatch, the probe's
``method``/``exact``/``exhausted_budget`` travel back with the admission
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
from repro.solver.strategy import AdmissionSearchConfig, SamplingConfig

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
        assert result.exact is True

    def test_bnb_reports_fastpath_then_witness(self):
        qdb = make_qdb(AdmissionSearchConfig(strategy="bnb"))
        first = qdb.execute(BOOK.format(p="Mickey"))
        assert first.committed and first.method == "fastpath" and first.exact
        second = qdb.execute(BOOK.format(p="Donald"))
        assert second.committed and second.method == "witness"

    def test_rejection_reports_deciding_method(self):
        qdb = make_qdb(AdmissionSearchConfig(strategy="bnb"), seats=1)
        assert qdb.execute(BOOK.format(p="Mickey")).committed
        rejected = qdb.execute(BOOK.format(p="Donald"))
        assert not rejected.committed
        assert rejected.method == "bnb"
        assert rejected.exact is True

    def test_statistics_report_exposes_search_counters(self):
        qdb = make_qdb(AdmissionSearchConfig(strategy="bnb"))
        qdb.execute(BOOK.format(p="Mickey"))
        report = qdb.statistics_report()
        for key in (
            "search.prunes",
            "search.fastpath_hits",
            "search.samples",
            "search.undo_depth",
            "cache.sampled_admissions",
        ):
            assert key in report
        assert report["search.fastpath_hits"] >= 1


class TestSampledAdmission:
    def sampling_config(self):
        return AdmissionSearchConfig(
            strategy="bnb",
            sampling=SamplingConfig(threshold=1, samples=16, seed=7),
        )

    def test_sampled_accept_is_approximate_end_to_end(self):
        qdb = make_qdb(self.sampling_config())
        result = qdb.execute(BOOK.format(p="Mickey"))
        # probe → CommitResult
        assert result.committed
        assert result.method == "sampled"
        assert result.exact is False
        # probe → cache statistics
        assert qdb.statistics_report()["cache.sampled_admissions"] >= 1
        assert qdb.statistics_report()["search.samples"] >= 1
        # CommitResult → wire codec → remote client view
        remote = RemoteCommitResult.from_value(commit_value(result))
        assert remote.method == "sampled"
        assert remote.exact is False

    def test_sampled_accept_still_grounds(self):
        # An approximate accept carries a genuine witness: grounding the
        # transaction must succeed and book a real seat.
        qdb = make_qdb(self.sampling_config())
        result = qdb.execute(BOOK.format(p="Mickey"))
        record = qdb.check_in(result.transaction_id)
        assert record is not None
        assert len(qdb.table("Bookings").rows()) == 1

    def test_sampling_never_engages_without_opt_in(self):
        qdb = make_qdb(AdmissionSearchConfig(strategy="bnb"))
        qdb.execute(BOOK.format(p="Mickey"))
        report = qdb.statistics_report()
        assert report["search.samples"] == 0
        assert report["cache.sampled_admissions"] == 0

    def test_below_threshold_searches_exactly(self):
        config = AdmissionSearchConfig(
            strategy="bnb",
            sampling=SamplingConfig(threshold=50, samples=4, seed=0),
        )
        qdb = make_qdb(config)
        result = qdb.execute(BOOK.format(p="Mickey"))
        assert result.committed
        assert result.method != "sampled"
        assert result.exact is True


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
        config = AdmissionSearchConfig(strategy="bnb", node_budget=1)
        qdb = make_adjacency_qdb(config)
        with pytest.raises(AdmissionSearchExhausted):
            qdb.state.admit(_parse(PAIR.format(p="Mickey")))

    def test_generous_budget_admits_the_same_transaction(self):
        config = AdmissionSearchConfig(strategy="bnb", node_budget=10_000)
        qdb = make_adjacency_qdb(config)
        result = qdb.execute(PAIR.format(p="Mickey"))
        assert result.committed and result.exact

    def test_typed_outcome_is_a_transaction_rejected(self):
        assert issubclass(AdmissionSearchExhausted, TransactionRejected)

    def test_execute_reports_rejection_not_crash(self):
        config = AdmissionSearchConfig(strategy="bnb", node_budget=1)
        qdb = make_adjacency_qdb(config)
        result = qdb.execute(PAIR.format(p="Mickey"))
        assert not result.committed
        assert "budget" in (result.rejection_reason or "")


def _parse(text: str):
    from repro.core.parser import parse_transaction

    return parse_transaction(text)
