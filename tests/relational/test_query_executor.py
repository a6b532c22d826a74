"""Tests for conjunctive query planning and execution."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError, UnknownTableError
from repro.relational.database import Database
from repro.relational.planner import join_order
from repro.relational.query import ConjunctiveQuery, QueryAtom, Var


@pytest.fixture
def db() -> Database:
    database = Database()
    database.create_table("Available", ["flight", "seat"], key=["flight", "seat"], indexes=[["flight"]])
    database.create_table("Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"])
    database.create_table("Adjacent", ["flight", "seat1", "seat2"], key=["flight", "seat1", "seat2"])
    for seat in ("1A", "1B", "1C"):
        database.insert("Available", (1, seat))
    for seat in ("1A", "1B"):
        database.insert("Available", (2, seat))
    database.insert("Bookings", ("Goofy", 1, "1B"))
    for left, right in (("1A", "1B"), ("1B", "1A"), ("1B", "1C"), ("1C", "1B")):
        database.insert("Adjacent", (1, left, right))
    return database


class TestSingleAtomQueries:
    def test_select_all_variables(self, db):
        query = ConjunctiveQuery()
        query.add_atom("Available", [1, Var("s")])
        result = db.execute(query)
        assert {b["s"] for b in result} == {"1A", "1B", "1C"}

    def test_constants_filter(self, db):
        query = ConjunctiveQuery()
        query.add_atom("Available", [2, Var("s")])
        assert len(db.execute(query)) == 2

    def test_limit(self, db):
        query = ConjunctiveQuery(limit=1)
        query.add_atom("Available", [Var("f"), Var("s")])
        assert len(db.execute(query)) == 1

    def test_limit_zero_returns_no_rows(self, db):
        query = ConjunctiveQuery(limit=0)
        query.add_atom("Available", [Var("f"), Var("s")])
        assert db.execute(query).bindings == []

    def test_negative_limit_is_refused(self, db):
        query = ConjunctiveQuery(limit=-1)
        query.add_atom("Available", [Var("f"), Var("s")])
        with pytest.raises(SchemaError, match="LIMIT"):
            db.execute(query)

    def test_projection(self, db):
        query = ConjunctiveQuery(select=["f"])
        query.add_atom("Available", [Var("f"), Var("s")])
        bindings = db.execute(query).bindings
        assert all(set(b) == {"f"} for b in bindings)

    def test_exists(self, db):
        # The store answers "is there a match?" with a LIMIT 1 probe.
        query = ConjunctiveQuery(limit=1)
        query.add_atom("Bookings", ["Goofy", Var("f"), Var("s")])
        assert db.execute(query)
        query2 = ConjunctiveQuery(limit=1)
        query2.add_atom("Bookings", ["Mickey", Var("f"), Var("s")])
        assert not db.execute(query2)

    def test_repeated_variable_in_atom(self, db):
        db.insert("Adjacent", (1, "1X", "1X"))
        query = ConjunctiveQuery()
        query.add_atom("Adjacent", [Var("f"), Var("s"), Var("s")])
        result = db.execute(query)
        assert len(result) == 1 and result.first()["s"] == "1X"


class TestJoins:
    def test_two_way_join(self, db):
        # Available seats adjacent to Goofy's booking on the same flight.
        query = ConjunctiveQuery(select=["s"])
        query.add_atom("Bookings", ["Goofy", Var("f"), Var("g")])
        query.add_atom("Adjacent", [Var("f"), Var("s"), Var("g")])
        query.add_atom("Available", [Var("f"), Var("s")])
        result = db.execute(query)
        assert {b["s"] for b in result} == {"1A", "1C"}

    def test_cross_product_when_no_shared_variables(self, db):
        query = ConjunctiveQuery(select=["s", "g"])
        query.add_atom("Available", [2, Var("s")])
        query.add_atom("Bookings", ["Goofy", 1, Var("g")])
        assert len(db.execute(query)) == 2


class TestPlanner:
    def test_unknown_table(self, db):
        query = ConjunctiveQuery()
        query.add_atom("Nope", [Var("x")])
        with pytest.raises(UnknownTableError):
            db.execute(query)

    @pytest.mark.parametrize("terms", [[1, Var("s"), Var("x")], [1]])
    def test_atom_arity_must_match_its_table(self, db, terms):
        query = ConjunctiveQuery()
        query.add_atom("Available", terms)
        with pytest.raises(SchemaError, match="has 2 columns"):
            db.execute(query)

    def test_plan_orders_selective_atom_first(self, db):
        query = ConjunctiveQuery()
        scan_atom = query.add_atom("Available", [Var("f"), Var("s")])
        keyed_atom = query.add_atom("Bookings", ["Goofy", Var("f"), Var("g")])
        order = join_order(db, query)
        assert order[0] is keyed_atom
        assert order[1] is scan_atom

    def test_equal_cost_atoms_keep_query_order(self, db):
        # Neither atom binds anything the other uses: every step sees the
        # same cost for both, so the earlier atom in the query goes first.
        query = ConjunctiveQuery()
        first = query.add_atom("Available", [Var("f"), Var("s")])
        second = query.add_atom("Available", [Var("g"), Var("t")])
        order = join_order(db, query)
        assert order[0] is first and order[1] is second
        order = join_order(db, ConjunctiveQuery(atoms=[second, first]))
        assert order[0] is second and order[1] is first

    def test_atom_joined_on_bound_variables_goes_next(self, db):
        # Once Goofy's booking binds f and s, the Available atom is a key
        # lookup and goes before the unrelated (smaller) Adjacent scan.
        query = ConjunctiveQuery()
        available = query.add_atom("Available", [Var("f"), Var("s")])
        adjacent = query.add_atom("Adjacent", [Var("g"), Var("t"), Var("u")])
        booking = query.add_atom("Bookings", ["Goofy", Var("f"), Var("s")])
        order = join_order(db, query)
        assert [id(atom) for atom in order] == [id(booking), id(available), id(adjacent)]

    def test_self_join_order_is_a_permutation(self, db):
        query = ConjunctiveQuery()
        atoms = [query.add_atom("Available", [Var("f"), Var("s")]) for _ in range(3)]
        order = join_order(db, query)
        assert [id(atom) for atom in order] == [id(atom) for atom in atoms]
        assert len(db.execute(query)) == 5

    def test_one_atom_query_is_its_own_plan(self, db):
        query = ConjunctiveQuery()
        atom = query.add_atom("Bookings", ["Goofy", Var("f"), Var("s")])
        order = join_order(db, query)
        assert len(order) == 1 and order[0] is atom

    @pytest.mark.parametrize("terms", [[1, Var("s"), Var("x")], [1]])
    def test_one_atom_query_is_still_validated(self, db, terms):
        with pytest.raises(SchemaError, match="has 2 columns"):
            join_order(db, ConjunctiveQuery(atoms=[QueryAtom("Available", tuple(terms))]))
        with pytest.raises(UnknownTableError):
            join_order(db, ConjunctiveQuery(atoms=[QueryAtom("Nope", (Var("x"),))]))

    def test_query_must_have_atoms(self, db):
        with pytest.raises(SchemaError):
            db.execute(ConjunctiveQuery())
