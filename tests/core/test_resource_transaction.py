"""Tests for the resource-transaction model."""

from __future__ import annotations

import pytest

from repro.core.resource_transaction import ResourceTransaction
from repro.errors import InvalidTransactionError
from repro.logic.atoms import Atom
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable
from repro.relational.dml import Delete, Insert

F, S, S2 = Variable("f"), Variable("s"), Variable("s2")


def mickey() -> ResourceTransaction:
    return ResourceTransaction(
        body=(
            Atom.body("Available", [F, S]),
            Atom.body("Bookings", ["Goofy", F, S2], optional=True),
            Atom.body("Adjacent", [F, S, S2], optional=True),
        ),
        updates=(
            Atom.delete("Available", [F, S]),
            Atom.insert("Bookings", ["Mickey", F, S]),
        ),
        client="Mickey",
        partner="Goofy",
    )


class TestValidation:
    def test_valid_transaction(self):
        txn = mickey()
        assert txn.choose == 1
        assert len(txn.hard_body) == 1
        assert len(txn.optional_body) == 2

    def test_empty_updates_rejected(self):
        with pytest.raises(InvalidTransactionError):
            ResourceTransaction(body=(Atom.body("A", [S]),), updates=())

    def test_range_restriction(self):
        with pytest.raises(InvalidTransactionError, match="range restriction"):
            ResourceTransaction(
                body=(Atom.body("A", [S]),),
                updates=(Atom.insert("B", [S, S2]),),
            )

    def test_body_atom_kind_enforced(self):
        with pytest.raises(InvalidTransactionError):
            ResourceTransaction(
                body=(Atom.insert("A", [S]),),
                updates=(Atom.insert("B", [S]),),
            )

    def test_update_atom_kind_enforced(self):
        with pytest.raises(InvalidTransactionError):
            ResourceTransaction(
                body=(Atom.body("A", [S]),),
                updates=(Atom.body("B", [S]),),
            )

    def test_choose_must_be_one(self):
        with pytest.raises(InvalidTransactionError):
            ResourceTransaction(
                body=(Atom.body("A", [S]),),
                updates=(Atom.insert("B", [S]),),
                choose=3,
            )

    @pytest.mark.parametrize(
        "names", [{"client": 5}, {"partner": ["Goofy"]}, {"client": b"Mickey"}]
    )
    def test_client_and_partner_must_be_text(self, names):
        # The pending table stores both as TEXT: a name it would refuse is
        # refused here, before admission, not half way through a commit.
        with pytest.raises(InvalidTransactionError, match="must be text"):
            ResourceTransaction(
                body=(Atom.body("A", [S]),),
                updates=(Atom.insert("B", [S]),),
                **names,
            )

    def test_unique_ids_assigned(self):
        assert mickey().transaction_id != mickey().transaction_id


class TestIntrospection:
    def test_inserts_and_deletes(self):
        txn = mickey()
        assert [a.relation for a in txn.inserts] == ["Bookings"]
        assert [a.relation for a in txn.deletes] == ["Available"]

    def test_variables(self):
        txn = mickey()
        assert txn.variables() == {F, S, S2}
        assert txn.hard_variables() == {F, S}

    def test_relations(self):
        assert mickey().relations() == {"Available", "Bookings", "Adjacent"}

    def test_derived_views_are_kept(self):
        """The views are computed once per (frozen) transaction."""
        txn = mickey()
        assert txn.hard_body is txn.hard_body
        assert txn.optional_body is txn.optional_body
        assert txn.variables() is txn.variables()
        assert txn.hard_variables() is txn.hard_variables()
        assert txn.relations() is txn.relations()

    def test_formulas(self):
        txn = mickey()
        assert len(txn.hard_formula().atoms()) == 1
        assert len(txn.full_formula().atoms()) == 3

    def test_rename_variables_preserves_id(self):
        txn = mickey()
        renamed = txn.rename_variables("@9")
        assert renamed.transaction_id == txn.transaction_id
        assert Variable("s@9") in renamed.variables()
        assert renamed.client == "Mickey"

    def test_repr_formats_the_transaction(self):
        """Regression: repr depends on a deferred parser import (circular
        import with repro.core.parser) that a lint sweep once removed."""
        txn = mickey()
        rendered = repr(txn)
        assert f"#{txn.transaction_id}" in rendered
        assert "Available" in rendered and "Bookings" in rendered


class TestGroundUpdates:
    def test_statements_produced_in_order(self):
        txn = mickey()
        statements = txn.ground_updates({"f": 123, "s": "5A"})
        assert statements == [
            Delete("Available", (123, "5A")),
            Insert("Bookings", ("Mickey", 123, "5A")),
        ]

    def test_substitution_accepted(self):
        txn = mickey()
        theta = Substitution({F: 9, S: "1B"})
        statements = txn.ground_updates(theta)
        assert isinstance(statements[0], Delete)
        assert statements[1].values == ("Mickey", 9, "1B")

    def test_incomplete_grounding_rejected(self):
        txn = mickey()
        with pytest.raises(InvalidTransactionError):
            txn.ground_updates({"f": 123})

    def test_satisfied_optionals_counting(self):
        txn = mickey()
        facts = {("Bookings", ("Goofy", 1, "1B")), ("Adjacent", (1, "1A", "1B"))}
        def oracle(rel, values):
            return (rel, values) in facts
        assert txn.satisfied_optionals({"f": 1, "s": "1A", "s2": "1B"}, oracle) == 2
        assert txn.satisfied_optionals({"f": 1, "s": "1C", "s2": "1B"}, oracle) == 1
        # Unbound optional variables count as unsatisfied, not as errors.
        assert txn.satisfied_optionals({"f": 1, "s": "1A"}, oracle) == 0
