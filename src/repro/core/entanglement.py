"""Entangled resource transactions (Section 5.1).

The evaluation scenario of the paper enhances the travel application "with
the presence of user-defined coordination constraints that are expressed as
entangled queries": Mickey asks to sit next to Goofy, whose transaction may
arrive much later.  The quantum database turns such a request into an
*entangled resource transaction*:

* the coordination constraint (adjacency to the partner's booking) is kept
  OPTIONAL, so Mickey is guaranteed a seat even if Goofy never shows up;
* the transaction stays pending — in a quantum state — until the partner's
  transaction arrives;
* "an entangled resource transaction waiting for its partner is finally
  executed as soon as its partner arrives and no longer remains in a
  quantum state": when both are present the pair is grounded together,
  trying to satisfy the adjacency preferences of both.

:class:`EntangledResourceTransaction` is a resource transaction whose
``client``/``partner`` fields identify the coordination pair.
:class:`EntanglementRegistry` tracks which clients are still waiting and
recognises partner arrivals; :class:`~repro.core.quantum_database.QuantumDatabase`
consults it after every commit and grounds matched pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.resource_transaction import ResourceTransaction
from repro.errors import InvalidTransactionError
from repro.logic.atoms import Atom


class EntangledResourceTransaction(ResourceTransaction):
    """A resource transaction that wants to coordinate with a partner.

    Identical to :class:`ResourceTransaction` except that ``client`` and
    ``partner`` are required, making the coordination intent explicit.
    """

    def __post_init__(self) -> None:  # noqa: D105 - documented on the class
        super().__post_init__()
        if not self.client or not self.partner:
            raise InvalidTransactionError(
                "an entangled resource transaction needs both a client and a partner"
            )


@dataclass
class EntanglementMatch:
    """A matched coordination pair.

    Attributes:
        earlier_id: id of the transaction that was already waiting.
        later_id: id of the transaction whose arrival completed the pair.
    """

    earlier_id: int
    later_id: int

    def transaction_ids(self) -> tuple[int, int]:
        """Both transaction ids, earliest first."""
        return (self.earlier_id, self.later_id)


@dataclass
class EntanglementRegistry:
    """Tracks waiting entangled transactions and recognises partner arrivals."""

    #: transaction id keyed by (client, partner), for transactions whose
    #: partner has not arrived yet.
    waiting: dict[tuple[str, str], int] = field(default_factory=dict)

    def register(self, transaction: ResourceTransaction) -> EntanglementMatch | None:
        """Register an arrival and return the match it completes, if any.

        Transactions without a client/partner pair are ignored (they are
        ordinary resource transactions).
        """
        if not transaction.client or not transaction.partner:
            return None
        key = (transaction.client, transaction.partner)
        reverse = (transaction.partner, transaction.client)
        if reverse in self.waiting:
            earlier_id = self.waiting.pop(reverse)
            return EntanglementMatch(earlier_id, transaction.transaction_id)
        self.waiting[key] = transaction.transaction_id
        return None

    def withdraw(self, transaction: ResourceTransaction) -> None:
        """Forget a waiting transaction (e.g. it was rejected or grounded)."""
        if not transaction.client or not transaction.partner:
            return
        key = (transaction.client, transaction.partner)
        if self.waiting.get(key) == transaction.transaction_id:
            del self.waiting[key]

def make_adjacent_seat_request(
    client: str,
    partner: str,
    *,
    flights_relation: str = "Available",
    bookings_relation: str = "Bookings",
    adjacency_relation: str = "Adjacent",
    flight: int | str | None = None,
) -> EntangledResourceTransaction:
    """Build the paper's running-example transaction programmatically.

    The request books one available seat for ``client`` with an OPTIONAL
    preference for sitting adjacent to ``partner``'s existing booking::

        -Available(f, s), +Bookings(client, f, s)
            :-1 Available(f, s), [Bookings(partner, f, s2)], [Adjacent(s, s2)]

    Args:
        client: the requesting user.
        partner: the user to sit next to, if possible.
        flights_relation / bookings_relation / adjacency_relation: table
            names, overridable for custom schemas.
        flight: pin the request to a specific flight (hard constraint) or
            leave ``None`` to accept any flight.
    """
    from repro.logic.terms import Constant, Variable

    f_term = Constant(flight) if flight is not None else Variable("f")
    seat = Variable("s")
    partner_seat = Variable("s2")
    body = (
        Atom.body(flights_relation, [f_term, seat]),
        Atom.body(bookings_relation, [Constant(partner), f_term, partner_seat], optional=True),
        Atom.body(adjacency_relation, [f_term, seat, partner_seat], optional=True),
    )
    updates = (
        Atom.delete(flights_relation, [f_term, seat]),
        Atom.insert(bookings_relation, [Constant(client), f_term, seat]),
    )
    return EntangledResourceTransaction(
        body=body, updates=updates, client=client, partner=partner
    )
