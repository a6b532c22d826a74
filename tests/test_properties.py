"""Property-based tests (hypothesis) for the core invariants.

Three families of properties:

* unification laws (the mgu really is a unifier, unifiability is symmetric);
* relational-store invariants (key enforcement, snapshot round-trips);
* the central quantum-database equivalence: the intensional machinery
  (composition + satisfiability) agrees with the extensional possible-worlds
  semantics, and every collapse lands in a possible world.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.composition import compose_sequence
from repro.core.parser import format_transaction, parse_transaction
from repro.core.quantum_database import QuantumConfig, QuantumDatabase
from repro.core.resource_transaction import ResourceTransaction
from repro.core.worlds import enumerate_possible_worlds
from repro.logic.atoms import Atom, AtomKind
from repro.logic.terms import Constant, Variable
from repro.logic.unification import most_general_unifier, unifiable
from repro.relational.database import Database
from repro.solver.grounding import GroundingSearch

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: Terms drawn from a small pool so that unification collisions are common.
terms = st.one_of(
    st.sampled_from([Variable("x"), Variable("y"), Variable("z")]),
    st.sampled_from([Constant(1), Constant(2), Constant("a")]),
)

atoms = st.builds(
    lambda relation, ts: Atom.body(relation, list(ts)),
    st.sampled_from(["R", "S"]),
    st.lists(terms, min_size=1, max_size=3),
)


@st.composite
def seat_transactions(draw):
    """A short sequence of seat-booking transactions over a tiny flight."""
    num_seats = draw(st.integers(min_value=1, max_value=4))
    num_txns = draw(st.integers(min_value=1, max_value=4))
    pinned = draw(st.lists(st.booleans(), min_size=num_txns, max_size=num_txns))
    transactions = []
    for index in range(num_txns):
        if pinned[index]:
            seat = draw(st.integers(min_value=0, max_value=max(num_seats - 1, 0)))
            text = (
                f"-Available(1, 'S{seat}'), +Bookings('u{index}', 1, 'S{seat}') "
                f":-1 Available(1, 'S{seat}')"
            )
        else:
            text = (
                f"-Available(1, ?s), +Bookings('u{index}', 1, ?s) "
                ":-1 Available(1, ?s)"
            )
        transactions.append(parse_transaction(text, client=f"u{index}"))
    return num_seats, transactions


def seat_database(num_seats: int) -> Database:
    database = Database()
    database.create_table("Available", ["flight", "seat"], key=["flight", "seat"])
    database.create_table("Bookings", ["passenger", "flight", "seat"], key=["flight", "seat"])
    for index in range(num_seats):
        database.insert("Available", (1, f"S{index}"))
    return database


# ---------------------------------------------------------------------------
# Unification properties
# ---------------------------------------------------------------------------


class TestUnificationProperties:
    @given(atoms, atoms)
    def test_mgu_is_a_unifier(self, left, right):
        theta = most_general_unifier(left, right)
        if theta is not None:
            assert theta.apply_atom(left) == theta.apply_atom(right)

    @given(atoms, atoms)
    def test_unifiability_symmetric(self, left, right):
        assert unifiable(left, right) == unifiable(right, left)

    @given(atoms)
    def test_atom_unifies_with_itself(self, atom):
        assert unifiable(atom, atom)

    @given(atoms, st.sampled_from(["@1", "@2"]))
    def test_renaming_preserves_unifiability_with_ground_atoms(self, atom, suffix):
        ground = Atom.body(atom.relation, [Constant(i) for i in range(atom.arity)])
        assert unifiable(atom, ground) == unifiable(atom.rename_variables(suffix), ground)

    @given(atoms, st.booleans(), st.sampled_from(list(AtomKind)))
    def test_unchecked_copies_equal_the_checked_constructor(self, atom, optional, kind):
        """``as_body`` copies without the checks, to the same atom."""
        optional = optional and kind is AtomKind.BODY
        atom = Atom(atom.relation, atom.terms, kind, optional)
        copy = atom.as_body()
        expected = Atom(atom.relation, atom.terms, AtomKind.BODY, False)
        assert copy == expected and hash(copy) == hash(expected)
        assert type(copy.terms) is tuple


# ---------------------------------------------------------------------------
# Relational store properties
# ---------------------------------------------------------------------------


class TestRelationalProperties:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
            max_size=25,
        )
    )
    def test_set_semantics(self, pairs):
        """A table behaves exactly like a set keyed on the primary key."""
        database = Database()
        database.create_table("T", ["a", "b"], key=["a", "b"])
        reference: set[tuple[int, int]] = set()
        for pair in pairs:
            if pair in reference:
                try:
                    database.insert("T", pair)
                    assert False, "duplicate key accepted"
                except Exception:
                    pass
            else:
                database.insert("T", pair)
                reference.add(pair)
        assert set(database.table("T").snapshot()) == reference

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=4), st.text("ab", min_size=1, max_size=2)),
            max_size=15,
            unique=True,
        )
    )
    def test_snapshot_roundtrip(self, rows):
        database = Database()
        database.create_table("T", ["a", "b"], key=["a", "b"])
        for row in rows:
            database.insert("T", row)
        snapshot = database.snapshot()
        clone = Database()
        clone.create_table("T", ["a", "b"], key=["a", "b"])
        clone.restore(snapshot)
        assert set(clone.table("T").snapshot()) == set(rows)


# ---------------------------------------------------------------------------
# Quantum database ≡ possible worlds
# ---------------------------------------------------------------------------


class TestQuantumEquivalenceProperties:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=40)
    @given(seat_transactions())
    def test_composition_satisfiability_matches_possible_worlds(self, case):
        """The quantum invariant ⇔ a non-empty set of possible worlds."""
        num_seats, transactions = case
        database = seat_database(num_seats)
        composed = compose_sequence(transactions, rename=True)
        intensional = GroundingSearch(database).exists(composed)
        extensional = bool(enumerate_possible_worlds(database, transactions))
        assert intensional == extensional

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=40)
    @given(seat_transactions())
    def test_admission_matches_possible_worlds_prefix(self, case):
        """The system admits exactly the prefix that keeps worlds non-empty."""
        num_seats, transactions = case
        qdb = QuantumDatabase(seat_database(num_seats), QuantumConfig())
        admitted: list[ResourceTransaction] = []
        for transaction in transactions:
            expected = bool(
                enumerate_possible_worlds(seat_database(num_seats), admitted + [transaction])
            )
            outcome = qdb.execute(transaction)
            assert outcome.committed == expected
            if outcome.committed:
                admitted.append(transaction)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=30)
    @given(seat_transactions())
    def test_collapse_lands_in_a_possible_world(self, case):
        """ground_all() produces one of the enumerated possible worlds."""
        num_seats, transactions = case
        qdb = QuantumDatabase(seat_database(num_seats), QuantumConfig())
        admitted = [t for t in transactions if qdb.execute(t).committed]
        qdb.ground_all()
        final_bookings = set(qdb.table("Bookings").snapshot())
        worlds = enumerate_possible_worlds(seat_database(num_seats), admitted)
        if not admitted:
            assert final_bookings == set()
            return
        possible_bookings = [set(world.table("Bookings")) for world in worlds]
        assert final_bookings in possible_bookings

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=30)
    @given(seat_transactions())
    def test_committed_transactions_always_get_their_resource(self, case):
        """Every committed transaction ends up with a booked seat (the paper's guarantee)."""
        num_seats, transactions = case
        qdb = QuantumDatabase(seat_database(num_seats), QuantumConfig())
        committed = [t for t in transactions if qdb.execute(t).committed]
        qdb.ground_all()
        booked_clients = {p for p, _f, _s in qdb.table("Bookings").snapshot()}
        assert {t.client for t in committed} <= booked_clients
        # And never more bookings than seats (keys enforce physical capacity).
        assert len(qdb.table("Bookings")) <= num_seats


#: Every constant the notation can write: ints, finite floats over the whole
#: exponent range, bools, None, and strings with ``?``, a backslash and both quotes.
constants = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.text(st.sampled_from("aZ ?\\'\"\n")),
)
variables = st.sampled_from([Variable("x"), Variable("Seat"), Variable("_s2")])
relations = st.sampled_from(["R", "Available", "lower_1"])


@st.composite
def any_transactions(draw):
    """A range-restricted transaction over every constant kind."""
    term_lists = st.lists(st.one_of(variables, constants.map(Constant)), max_size=3)
    body = [
        Atom(draw(relations), tuple(draw(term_lists)), AtomKind.BODY, draw(st.booleans()))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    bound = sorted({t for a in body for t in a.terms if isinstance(t, Variable)}, key=repr)
    pool = st.one_of(constants.map(Constant), *([st.sampled_from(bound)] if bound else []))
    updates = [
        Atom(draw(relations), tuple(draw(st.lists(pool, max_size=3))), kind)
        for kind in draw(
            st.lists(st.sampled_from([AtomKind.INSERT, AtomKind.DELETE]), min_size=1, max_size=2)
        )
    ]
    return ResourceTransaction(body=tuple(body), updates=tuple(updates))


def constant_types(atoms):
    return [type(t.value) for a in atoms for t in a.terms if isinstance(t, Constant)]


class TestParserProperties:
    @settings(max_examples=60)
    @given(seat_transactions())
    def test_format_parse_roundtrip(self, case):
        _seats, transactions = case
        for transaction in transactions:
            reparsed = parse_transaction(format_transaction(transaction))
            assert reparsed.body == transaction.body
            assert reparsed.updates == transaction.updates

    @settings(max_examples=200)
    @given(any_transactions())
    def test_every_constant_kind_round_trips(self, transaction):
        reparsed = parse_transaction(format_transaction(transaction))
        assert reparsed.updates == transaction.updates
        assert reparsed.body == transaction.body
        assert reparsed.choose == transaction.choose
        for part in ("updates", "body"):
            parsed, original = getattr(reparsed, part), getattr(transaction, part)
            assert constant_types(parsed) == constant_types(original)
