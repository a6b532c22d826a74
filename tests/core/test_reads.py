"""A read is one table probe: its answers, its refusals, and what a refusal
leaves pending.

Every read names one atom.  ``QuantumDatabase.read`` checks it against the
store's schema (``store_read``) before anything else, then answers it with
one ``Database.execute``: a ``Table.probe`` over the constant positions,
then the repeated-variable check, the projection and the limit, in probe
order.  A read the check refuses has grounded nothing, whatever its mode.
"""

from __future__ import annotations

import pytest

from repro.core.quantum_database import QuantumDatabase
from repro.core.reads import ReadMode, ReadRequest, read_request
from repro.errors import SchemaError, UnknownTableError
from repro.logic.atoms import Atom
from repro.logic.terms import Variable

F, S, P = Variable("f"), Variable("s"), Variable("p")
ANSWERING_MODES = [ReadMode.COLLAPSE, ReadMode.PEEK]
#: A booking on flight 2, where nobody has booked yet.
ANY_SEAT = "-Available(2, ?s), +Bookings('{name}', 2, ?s) :-1 Available(2, ?s)"


@pytest.fixture
def qdb() -> QuantumDatabase:
    qdb = QuantumDatabase()
    qdb.create_table(
        "Available", ["flight", "seat"], key=["flight", "seat"], indexes=[["flight"]]
    )
    qdb.create_table("Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"])
    qdb.create_table(
        "Adjacent", ["flight", "seat1", "seat2"], key=["flight", "seat1", "seat2"]
    )
    qdb.load_rows("Available", [(1, "1A"), (1, "1B"), (1, "1C"), (2, "1A"), (2, "1B")])
    qdb.load_rows("Bookings", [("Goofy", 1, "1B")])
    qdb.load_rows(
        "Adjacent",
        [(1, "1A", "1B"), (1, "1B", "1A"), (1, "1B", "1C"), (1, "1C", "1B")],
    )
    return qdb


def read(qdb, mode, relation, terms, **shape):
    return qdb.read(ReadRequest(Atom.body(relation, terms), mode=mode, **shape))


@pytest.mark.parametrize("mode", ANSWERING_MODES)
class TestAnswers:
    def test_select_all_variables(self, qdb, mode):
        rows = read(qdb, mode, "Available", [1, S])
        assert rows == [{"s": "1A"}, {"s": "1B"}, {"s": "1C"}]

    def test_constants_filter(self, qdb, mode):
        assert read(qdb, mode, "Available", [2, S]) == [{"s": "1A"}, {"s": "1B"}]

    def test_answers_come_in_probe_order(self, qdb, mode):
        # A scan: the table's insertion order; the default projection is
        # every variable in first-use order.
        rows = read(qdb, mode, "Available", [F, S])
        assert [tuple(row.items()) for row in rows] == [
            (("f", f), ("s", s))
            for f, s in [(1, "1A"), (1, "1B"), (1, "1C"), (2, "1A"), (2, "1B")]
        ]
        assert list(read(qdb, mode, "Bookings", [P, F, S])[0]) == ["p", "f", "s"]

    def test_limit(self, qdb, mode):
        assert read(qdb, mode, "Available", [F, S], limit=1) == [{"f": 1, "s": "1A"}]

    def test_limit_zero_returns_no_rows(self, qdb, mode):
        assert read(qdb, mode, "Available", [F, S], limit=0) == []

    def test_projection(self, qdb, mode):
        rows = read(qdb, mode, "Available", [F, S], select=("f",))
        assert rows == [{"f": 1}, {"f": 1}, {"f": 1}, {"f": 2}, {"f": 2}]

    def test_limit_one_is_an_existence_probe(self, qdb, mode):
        assert read(qdb, mode, "Bookings", ["Goofy", F, S], limit=1)
        assert not read(qdb, mode, "Bookings", ["Mickey", F, S], limit=1)

    def test_repeated_variable_must_take_one_value(self, qdb, mode):
        qdb.load_rows("Adjacent", [(1, "1X", "1X")])
        rows = read(qdb, mode, "Adjacent", [F, S, S])
        assert rows == [{"f": 1, "s": "1X"}]

    def test_every_answer_is_a_fresh_dict(self, qdb, mode):
        first = read(qdb, mode, "Bookings", ["Goofy", F, S])
        first[0]["s"] = "changed"
        assert read(qdb, mode, "Bookings", ["Goofy", F, S]) == [{"f": 1, "s": "1B"}]


@pytest.mark.parametrize("mode", list(ReadMode))
class TestRefusals:
    def test_negative_limit_is_refused(self, qdb, mode):
        with pytest.raises(SchemaError, match="LIMIT"):
            read(qdb, mode, "Available", [F, S], limit=-1)

    def test_projection_of_an_unbound_variable_is_refused(self, qdb, mode):
        with pytest.raises(SchemaError, match="unbound variables"):
            read(qdb, mode, "Available", [F, S], select=("nope",))

    def test_unknown_table(self, qdb, mode):
        with pytest.raises(UnknownTableError):
            read(qdb, mode, "Nope", [F])

    @pytest.mark.parametrize("terms", [[1, S, F], [1]])
    def test_atom_arity_must_match_its_table(self, qdb, mode, terms):
        with pytest.raises(SchemaError, match="has 2 columns"):
            read(qdb, mode, "Available", terms)


#: Reads of Mickey's pending booking that the schema check refuses, with the
#: error each raises.  A COLLAPSE read that grounded before checking would
#: collapse the booking on the first two.
REFUSED = {
    "unbound-select": (dict(select=["nope"]), ["Mickey", None, None], SchemaError),
    "negative-limit": (dict(limit=-1), ["Mickey", None, None], SchemaError),
    "wrong-arity": ({}, ["Mickey", None], SchemaError),
    "unknown-table": ({}, None, UnknownTableError),
}


@pytest.mark.parametrize("mode", list(ReadMode))
@pytest.mark.parametrize("shape, terms, error", REFUSED.values(), ids=REFUSED.keys())
def test_a_refused_read_collapses_nothing(qdb, mode, shape, terms, error):
    result = qdb.execute(ANY_SEAT.format(name="Mickey"))
    assert result.pending
    commits = qdb.database.statistics.commits
    relation = "Nope" if terms is None else "Bookings"
    request = read_request(relation, terms or [None], mode=mode, **shape)
    with pytest.raises(error):
        qdb.read(request)
    assert qdb.pending_count == 1
    assert result.transaction_id not in qdb.state.grounded_results
    assert qdb.database.statistics.commits == commits
    assert len(qdb.table("Bookings")) == 1
    # The same read, well formed, collapses the booking.
    assert len(qdb.read("Bookings", ["Mickey", None, None])) == 1
    assert qdb.pending_count == 0
