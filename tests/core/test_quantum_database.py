"""End-to-end tests for the QuantumDatabase facade."""

from __future__ import annotations

import random

import pytest

from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.core.reads import ReadMode, read_request
from repro.core.worlds import enumerate_possible_worlds
from repro.core.serializability import SerializabilityMode
from repro.errors import InvalidTransactionError, WriteRejected
from repro.logic.terms import Variable
from repro import make_adjacent_seat_request
from tests.conftest import make_tiny_flight_db

ANY_SEAT = "-Available(123, ?s), +Bookings('{name}', 123, ?s) :-1 Available(123, ?s)"
SPECIFIC_SEAT = (
    "-Available(123, '{seat}'), +Bookings('{name}', 123, '{seat}') "
    ":-1 Available(123, '{seat}')"
)


def qdb_with_seats(seats: int = 3) -> QuantumDatabase:
    return QuantumDatabase(make_tiny_flight_db(seats=seats))


class TestCommit:
    def test_commit_defers_assignment(self):
        qdb = qdb_with_seats()
        result = qdb.execute(ANY_SEAT.format(name="Mickey"))
        assert result.committed and result.pending
        assert qdb.pending_count == 1
        # Nothing has touched the extensional store yet.
        assert len(qdb.table("Bookings")) == 0
        assert len(qdb.table("Available")) == 3

    def test_rejected_when_no_grounding_exists(self):
        qdb = qdb_with_seats(seats=1)
        assert qdb.execute(ANY_SEAT.format(name="Mickey")).committed
        assert qdb.execute(ANY_SEAT.format(name="Goofy")).committed is False
        assert qdb.statistics.rejected == 1

    def test_commit_capacity_equals_seats(self):
        qdb = qdb_with_seats(seats=3)
        outcomes = [
            qdb.execute(ANY_SEAT.format(name=f"user{i}")).committed for i in range(4)
        ]
        assert outcomes == [True, True, True, False]

    def test_hard_conflict_on_specific_seat(self):
        qdb = qdb_with_seats()
        assert qdb.execute(SPECIFIC_SEAT.format(name="Mickey", seat="1A")).committed
        assert not qdb.execute(SPECIFIC_SEAT.format(name="Pluto", seat="1A")).committed

    def test_optional_preference_never_blocks_commit(self):
        qdb = qdb_with_seats(seats=2)
        # Mickey hopes to sit next to Goofy (who never shows up), Pluto takes
        # a specific seat: both commit because the preference is optional.
        assert qdb.execute(make_adjacent_seat_request("Mickey", "Goofy", flight=123)).committed
        assert qdb.execute(SPECIFIC_SEAT.format(name="Pluto", seat="1A")).committed


    @pytest.mark.parametrize(
        "text",
        [
            "-Available(123, ?s), +Bookings('a', 123) :-1 Available(123, ?s)",
            "-Available(123, ?s), +Nope('a', 123, ?s) :-1 Available(123, ?s)",
            "-Available(?s), +Bookings('a', 123, ?s) :-1 Available(123, ?s)",
        ],
        ids=["insert-wrong-arity", "insert-unknown-table", "delete-wrong-arity"],
    )
    def test_update_that_cannot_apply_is_refused_before_any_state_advances(
        self, text
    ):
        qdb = qdb_with_seats()
        assert qdb.execute(ANY_SEAT.format(name="Mickey")).pending

        def state():
            return (
                [e.transaction_id for e in qdb.state.pending_transactions()],
                sorted(t.transaction_id for _, t in qdb.pending_store.restore()),
                qdb.state._next_sequence,
            )

        before = state()
        with pytest.raises(InvalidTransactionError):
            qdb.execute(text)
        with pytest.raises(InvalidTransactionError):
            qdb.commit_batch([ANY_SEAT.format(name="Goofy"), text])
        assert state() == before
        assert len(qdb.ground_all()) == 1

    def test_optional_atom_over_a_missing_table_is_legal(self):
        qdb = qdb_with_seats()
        result = qdb.execute(
            "-Available(123, ?s), +Bookings('a', 123, ?s)"
            " :-1 Available(123, ?s), [Nope(?s)]"
        )
        assert result.committed
        assert len(qdb.ground_all()) == 1


class TestGroundingAndReads:
    def test_check_in_fixes_assignment(self):
        qdb = qdb_with_seats()
        result = qdb.execute(ANY_SEAT.format(name="Mickey"))
        record = qdb.check_in(result.transaction_id)
        assert record is not None
        assert record.valuation["s"] in {"1A", "1B", "1C"}
        assert qdb.pending_count == 0
        assert len(qdb.table("Bookings")) == 1

    def test_check_in_unknown_id(self):
        assert qdb_with_seats().check_in(999_999) is None

    def test_read_collapses_only_unifying_transactions(self):
        qdb = qdb_with_seats()
        mickey = qdb.execute(ANY_SEAT.format(name="Mickey"))
        goofy = qdb.execute(ANY_SEAT.format(name="Goofy"))
        rows = qdb.read("Bookings", ["Mickey", None, None])
        assert len(rows) == 1
        # Mickey's transaction was grounded by the read; Goofy's update atom
        # +Bookings('Goofy', ...) does not unify with the Mickey-constant read.
        assert mickey.transaction_id in qdb.state.grounded_results
        assert qdb.state.is_pending(goofy.transaction_id)

    def test_read_repeatability_after_collapse(self):
        qdb = qdb_with_seats()
        qdb.execute(ANY_SEAT.format(name="Mickey"))
        first = qdb.read("Bookings", ["Mickey", None, None])
        second = qdb.read("Bookings", ["Mickey", None, None])
        assert first == second

    def test_general_read_grounds_everything(self):
        qdb = qdb_with_seats()
        qdb.execute(ANY_SEAT.format(name="Mickey"))
        qdb.execute(ANY_SEAT.format(name="Goofy"))
        rows = qdb.read(
            read_request("Bookings", [Variable("p"), Variable("f"), Variable("s")])
        )
        assert len(rows) == 2
        assert qdb.pending_count == 0

    def test_peek_does_not_collapse(self):
        qdb = qdb_with_seats()
        qdb.execute(ANY_SEAT.format(name="Mickey"))
        rows = qdb.read("Bookings", ["Mickey", None, None], mode=ReadMode.PEEK)
        assert len(rows) == 1
        assert qdb.pending_count == 1
        assert len(qdb.table("Bookings")) == 0

    def test_expose_all_reports_possible_worlds(self):
        qdb = qdb_with_seats(seats=2)
        qdb.execute(ANY_SEAT.format(name="Mickey"))
        rows = qdb.read(
            "Bookings", ["Mickey", None, None], mode=ReadMode.EXPOSE_ALL
        )
        seats = {row["_2"] for row in rows}
        assert seats == {"1A", "1B"}
        assert all(row["_worlds"] == 1 for row in rows)
        assert qdb.pending_count == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_expose_all_equals_rebuilding_each_world(self, seed):
        # Each world is answered on the database the enumeration forked;
        # the reference rebuilds every enumerated world from its snapshot
        # on a copy of the store.
        rng = random.Random(seed)
        seats = rng.randint(3, 5)
        qdb = qdb_with_seats(seats=seats)
        labels = [f"1{chr(ord('A') + i)}" for i in range(seats)]
        for i in range(rng.randint(1, 3)):
            name = f"user{i}"
            kind = rng.choice(("any", "specific", "adjacent"))
            if kind == "any":
                qdb.execute(ANY_SEAT.format(name=name))
            elif kind == "specific":
                qdb.execute(SPECIFIC_SEAT.format(name=name, seat=rng.choice(labels)))
            else:
                qdb.execute(make_adjacent_seat_request(name, "user0", flight=123))
        pending = [entry.original for entry in qdb.state.pending_transactions()]
        requests = [
            read_request("Bookings", [None, None, None], mode=ReadMode.EXPOSE_ALL),
            read_request("Available", [123, None], mode=ReadMode.EXPOSE_ALL),
            read_request("Bookings", ["user0", None, None], mode=ReadMode.EXPOSE_ALL),
        ]
        for request in requests:
            support: dict[tuple, int] = {}
            for world in enumerate_possible_worlds(qdb.database, pending):
                rebuilt = qdb.database.copy()
                rebuilt.restore(dict(world.snapshot))
                for binding in rebuilt.execute(request.to_query()).bindings:
                    key = tuple(sorted(binding.items()))
                    support[key] = support.get(key, 0) + 1
            expected = sorted(
                (*key, ("_worlds", count)) for key, count in support.items()
            )
            answers = sorted(tuple(sorted(row.items())) for row in qdb.read(request))
            assert answers == expected
        assert qdb.pending_count == len(pending)

    def test_ground_all(self):
        qdb = qdb_with_seats()
        for name in ("Mickey", "Goofy", "Minnie"):
            qdb.execute(ANY_SEAT.format(name=name))
        grounded = qdb.ground_all()
        assert len(grounded) == 3
        seats = {g.valuation["s"] for g in grounded}
        assert seats == {"1A", "1B", "1C"}


class TestWrites:
    def test_unrelated_write_accepted(self):
        qdb = qdb_with_seats()
        qdb.execute(ANY_SEAT.format(name="Mickey"))
        qdb.insert("Bookings", ("Walkup", 999, "1A"))
        assert qdb.table("Bookings").get((999, "1A")) is not None

    def test_write_that_would_strand_pending_rejected(self):
        qdb = qdb_with_seats(seats=1)
        qdb.execute(ANY_SEAT.format(name="Mickey"))
        with pytest.raises(WriteRejected):
            qdb.delete("Available", (123, "1A"))
        # The write was rolled back.
        assert qdb.table("Available").get((123, "1A")) is not None

    def test_write_that_leaves_an_alternative_accepted(self):
        qdb = qdb_with_seats(seats=2)
        qdb.execute(ANY_SEAT.format(name="Mickey"))
        qdb.delete("Available", (123, "1A"))
        record = qdb.ground_all()[0]
        assert record.valuation["s"] == "1B"

    def test_rejected_write_counts(self):
        qdb = qdb_with_seats(seats=1)
        qdb.execute(ANY_SEAT.format(name="Mickey"))
        with pytest.raises(WriteRejected):
            qdb.delete("Available", (123, "1A"))
        assert qdb.statistics.writes_rejected == 1

    def test_mapping_write_is_checked_in_schema_order(self):
        # The mapping lists the seat first; the check must see the row the
        # delete removes, Available(123, '1A'), which Mickey's body needs.
        qdb = qdb_with_seats(seats=1)
        qdb.execute(ANY_SEAT.format(name="Mickey"))
        with pytest.raises(WriteRejected):
            qdb.delete("Available", {"seat": "1A", "flight": 123})
        assert qdb.table("Available").get((123, "1A")) is not None
        assert qdb.ground_all()[0].valuation["s"] == "1A"

    def test_delete_is_checked_against_the_row_its_key_names(self):
        # A delete removes the stored row with the statement's key, here
        # Mickey's booking, whatever the statement says outside the key.
        qdb = qdb_with_seats(seats=1)
        qdb.create_table("Checkin", ["passenger", "flight"], key=["passenger", "flight"])
        qdb.database.insert("Bookings", ("Mickey", 123, "1A"))
        qdb.execute("+Checkin('Mickey', 123) :-1 Bookings('Mickey', 123, ?s)")
        with pytest.raises(WriteRejected):
            qdb.delete("Bookings", ("Nobody", 123, "1A"))
        assert qdb.table("Bookings").get((123, "1A"))["passenger"] == "Mickey"
        qdb.ground_all()
        assert qdb.table("Checkin").get(("Mickey", 123)) is not None


class TestEntanglementFlow:
    def test_pair_grounded_on_partner_arrival(self):
        qdb = qdb_with_seats()
        first = qdb.execute(make_adjacent_seat_request("Mickey", "Goofy", flight=123))
        assert first.pending
        second = qdb.execute(make_adjacent_seat_request("Goofy", "Mickey", flight=123))
        assert len(second.grounded) == 2
        assert qdb.pending_count == 0
        report = qdb.coordination_report()
        assert report["coordinated"] == 2.0

    def test_partner_arrival_grounding_can_be_disabled(self):
        qdb = QuantumDatabase(
            make_tiny_flight_db(), QuantumConfig(ground_on_partner_arrival=False)
        )
        qdb.execute(make_adjacent_seat_request("Mickey", "Goofy", flight=123))
        result = qdb.execute(make_adjacent_seat_request("Goofy", "Mickey", flight=123))
        assert result.grounded == ()
        assert qdb.pending_count == 2


class TestStrictSerializability:
    def test_strict_mode_grounds_prefix(self):
        qdb = QuantumDatabase(
            make_tiny_flight_db(),
            QuantumConfig(serializability=SerializabilityMode.STRICT),
        )
        first = qdb.execute(ANY_SEAT.format(name="Mickey"))
        second = qdb.execute(ANY_SEAT.format(name="Goofy"))
        qdb.ground([second.transaction_id])
        # Under strict (arrival-order) serializability, grounding Goofy
        # forces Mickey to be grounded first.
        assert not qdb.state.is_pending(first.transaction_id)
        assert qdb.pending_count == 0

    def test_semantic_mode_grounds_only_target(self):
        qdb = QuantumDatabase(
            make_tiny_flight_db(),
            QuantumConfig(serializability=SerializabilityMode.SEMANTIC),
        )
        first = qdb.execute(ANY_SEAT.format(name="Mickey"))
        second = qdb.execute(ANY_SEAT.format(name="Goofy"))
        qdb.ground([second.transaction_id])
        assert qdb.state.is_pending(first.transaction_id)
        assert qdb.statistics.semantic_reorders == 1
