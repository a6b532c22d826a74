"""Tests for transaction composition (Lemma 3.4 / Theorem 3.5 / Figure 3)."""

from __future__ import annotations


from repro.core.composition import (
    CompositionReport,
    OrderComposition,
    compose_pair,
    compose_sequence,
    rewrite_atom_against_updates,
)
from repro.core.parser import parse_transaction
from repro.core.worlds import enumerate_possible_worlds
from repro.logic.atoms import Atom
from repro.logic.formula import (
    AtomFormula,
    Conjunction,
    Disjunction,
    Negation,
    TRUE,
    conjunction,
)
from repro.logic.terms import Variable
from repro.relational.database import Database
from repro.solver.grounding import GroundingSearch
from repro.solver.kernel import compile_formula

# The three transactions of Figure 3 (a).
T1 = parse_transaction("-B(M, 1, s1), +A(1, s1) :-1 B(M, 1, s1)")
T2 = parse_transaction("-A(f2, s2), +B(D, f2, s2) :-1 A(f2, s2)")
T3 = parse_transaction("-A(2, s3), +B(G, 2, s3) :-1 A(2, s3)")


def figure3_database(*, mickey_booked: bool = True, flight2_seats: int = 1) -> Database:
    database = Database()
    database.create_table("A", ["f", "s"], key=["f", "s"])
    database.create_table("B", ["p", "f", "s"], key=["f", "s"])
    if mickey_booked:
        database.insert("B", ("M", 1, "9Z"))
    for i in range(flight2_seats):
        database.insert("A", (2, f"2{chr(ord('A') + i)}"))
    return database


class TestRewriteAtom:
    def test_insert_adds_disjunct(self):
        atom = Atom.body("A", [Variable("f2"), Variable("s2")])
        factor = rewrite_atom_against_updates(atom, list(T1.updates))
        assert isinstance(factor, Disjunction)
        assert len(factor.parts) == 2
        assert isinstance(factor.parts[0], AtomFormula)

    def test_delete_adds_negated_predicate(self):
        atom = Atom.body("A", [2, Variable("s3")])
        factor = rewrite_atom_against_updates(atom, list(T2.updates))
        # The delete -A(f2, s2) unifies, the insert +B(...) does not.
        assert isinstance(factor, Conjunction)
        assert any(isinstance(p, Negation) for p in factor.parts)

    def test_unrelated_updates_leave_atom_untouched(self):
        atom = Atom.body("C", [Variable("x")])
        factor = rewrite_atom_against_updates(atom, list(T1.updates))
        assert isinstance(factor, AtomFormula)


class TestFigure3:
    def test_t12_structure(self):
        body = compose_pair(T1, T2)
        # B(M,1,s1) ∧ {A(f2,s2) ∨ {(f2 = 1) ∧ (s1 = s2)}}
        text = repr(body)
        assert "B(" in text and "A(" in text
        assert "∨" in text
        assert "¬" not in text  # the delete of T1 does not unify with A(f2,s2)

    def test_t123_structure(self):
        body = compose_sequence([T1, T2, T3])
        text = repr(body)
        assert text.count("∨") == 1  # only the T1-insert alternative
        assert "¬" in text  # the T2 delete exclusion for T3's atom

    def test_equivalence_with_sequential_execution(self):
        # Satisfiability of the composed body over D must coincide with the
        # existence of a consistent sequential execution (possible worlds).
        scenarios = [
            figure3_database(mickey_booked=True, flight2_seats=1),
            figure3_database(mickey_booked=True, flight2_seats=0),
            figure3_database(mickey_booked=False, flight2_seats=3),
        ]
        for database in scenarios:
            composed = compose_sequence([T1, T2, T3])
            satisfiable = GroundingSearch(database).exists(composed)
            worlds = enumerate_possible_worlds(database, [T1, T2, T3])
            assert satisfiable == bool(worlds)

    def test_t12_grounds_on_released_seat(self):
        # Mickey cancels seat 9Z; Donald (unconstrained) can take exactly it
        # when nothing else is available.
        database = figure3_database(mickey_booked=True, flight2_seats=0)
        composed = compose_sequence([T1, T2])
        result = GroundingSearch(database).find_one(
            composed, required=[Variable("s1"), Variable("f2"), Variable("s2")]
        )
        assert result.satisfiable
        valuation = result.valuation()
        assert valuation["f2"] == 1 and valuation["s2"] == valuation["s1"] == "9Z"

    def test_t3_cannot_reuse_seat_deleted_by_t2(self):
        # Only one seat on flight 2: if Donald's unconstrained booking takes
        # it, Goofy's flight-2 booking must fail — unless Donald grounds on
        # flight 1 (Mickey's released seat).  The composed body forces the
        # consistent choice.
        database = figure3_database(mickey_booked=True, flight2_seats=1)
        composed = compose_sequence([T1, T2, T3])
        result = GroundingSearch(database).find_one(
            composed, required=[Variable("f2"), Variable("s2"), Variable("s3")]
        )
        assert result.satisfiable
        valuation = result.valuation()
        assert not (valuation["f2"] == 2 and valuation["s2"] == valuation["s3"])


class TestCompositionOptions:
    def test_optional_atoms_excluded_by_default(self):
        mickey = parse_transaction(
            "-Av(f, s), +Bk(M, f, s) :-1 Av(f, s), [Bk(G, f, s2)], [Adj(s, s2)]"
        )
        hard_only = compose_sequence([mickey])
        with_optional = compose_sequence([mickey], include_optional=True)
        assert len(hard_only.atoms()) == 1
        assert len(with_optional.atoms()) == 3

    def test_empty_sequence_composes_to_true(self):
        assert compose_sequence([]) is TRUE

    def test_rename_keeps_namespaces_apart(self):
        first = parse_transaction("-A(s), +B(s) :-1 A(s)")
        second = parse_transaction("-A(s), +C(s) :-1 A(s)")
        composed = compose_sequence([first, second], rename=True)
        names = {v.name for v in composed.free_variables()}
        assert len(names) == 2
        assert all("@" in name for name in names)

    def test_report_counts_atoms(self):
        report = CompositionReport.build([T1, T2, T3])
        assert report.transaction_ids == (
            T1.transaction_id,
            T2.transaction_id,
            T3.transaction_id,
        )
        assert report.atom_count == len(compose_sequence([T1, T2, T3]).atoms())


class TestOrderComposition:
    """``OrderComposition`` ≡ ``compose_sequence``, factor by factor.

    The composition unifies an atom only with the earlier updates on its
    own relation (the log is bucketed); the sequences below interleave
    relations, kinds and several updates per transaction, so a bucket
    that lost the serialization order or leaked across relations shows.
    """

    MOVE = parse_transaction(
        "-B(M, 1, s4), +A(1, s4), -A(2, s5), +B(M, 2, s5) :-1 B(M, 1, s4), A(2, s5)"
    )
    WISH = parse_transaction(
        "-A(f6, s6), +B(P, f6, s6) :-1 A(f6, s6), [B(G, f6, s7)], [Adj(s6, s7)]"
    )
    SEQUENCES = [
        [T1],
        [T1, T2, T3],
        [T3, T2, T1],
        [T2, MOVE, T3, T1],
        [MOVE, T1, WISH, T2, T3],
        [WISH, T3, MOVE, T2],
    ]

    def test_formula_and_factors_match_compose_sequence(self):
        for sequence in self.SEQUENCES:
            composition = OrderComposition(sequence)
            assert composition.formula() == compose_sequence(sequence)
            assert len(composition) == len(sequence)
            for index, factor in enumerate(composition.factors):
                # Factor i alone: the body of i against everything before it.
                whole = compose_sequence(sequence[: index + 1])
                before = compose_sequence(sequence[:index])
                assert (before & factor) == whole
            assert composition.atom_count() == len(composition.formula().atoms())

    def test_incremental_append_equals_batch_construction(self):
        for sequence in self.SEQUENCES:
            incremental = OrderComposition()
            for transaction in sequence:
                previewed = incremental.preview_factor(transaction)
                assert incremental.append(transaction, previewed) == previewed
            assert incremental.formula() == OrderComposition(sequence).formula()
        assert OrderComposition().formula() is TRUE

    def test_optional_factors_are_rewritten_in_context(self):
        sequence = [T1, T2, self.WISH, T3]
        composition = OrderComposition(sequence)
        with_optional = compose_sequence(sequence[:3], include_optional=True)
        hard_only = compose_sequence(sequence[:3])
        optional = composition.optional_factors(2)
        assert [f.transaction_id for f in optional] == [self.WISH.transaction_id] * 2
        assert (hard_only & optional[0].formula & optional[1].formula).atoms() == (
            with_optional.atoms()
        )
        # B(G, f6, s7) meets T2's earlier insert +B(D, f2, s2) — 'G' and 'D'
        # clash, so it stays the plain atom and shares one program; nothing
        # inserts into Adj either.
        for factor in optional:
            assert isinstance(factor.formula, AtomFormula)
            assert factor.plain is factor.program
        assert composition.optional_factors(0) == ()

    def test_programs_are_slices_of_one_scope(self):
        database = figure3_database(mickey_booked=True, flight2_seats=2)
        search = GroundingSearch(database)
        sequence = [T1, T2, T3]
        composition = OrderComposition(sequence)
        assert composition.program() is composition.program()
        for start, stop in [(0, None), (0, 1), (1, None), (1, 2), (3, None)]:
            sliced = composition.program(start, stop)
            assert sliced.scope is composition.scope
            expected = conjunction(composition.factors[start:stop])
            ours = [r.substitution for r in search.find(sliced)]
            theirs = [r.substitution for r in search.find(compile_formula(expected))]
            assert ours == theirs
        assert composition.required(1) == (
            T2.hard_variables() | T3.hard_variables()
        )
        appended = composition.program()
        composition.append(self.MOVE)
        assert composition.program() is not appended
