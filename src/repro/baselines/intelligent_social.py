"""The "intelligent social" (IS) baseline (Section 5.2).

"Such a user first issues a query to check whether his/her friend has an
existing reservation.  If so, he books the adjacent seat, and if not he
books a seat with a free adjacent seat.  The IS workload simulates the kind
of coordination that is achievable without using a quantum database."

The IS client runs directly against the relational store (no quantum
state): every booking is assigned eagerly at submission time, so a user
whose friend arrives later can only *hope* that the seat they kept free
next to them is still free when the friend books.  Its queries are the
paper's ``LIMIT 1`` joins, asked of the engine the quantum database asks
its own: the grounding search over a conjunction of body atoms.  The
client compiles its five query shapes once, with variables for the
partner, flight and seat, and binds the constants of each query through
the search's ``initial`` substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.logic.atoms import Atom
from repro.logic.formula import atoms_to_formula
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable
from repro.relational.database import Database
from repro.solver.grounding import GroundingSearch
from repro.solver.kernel import Program

F, S, S2 = Variable("f"), Variable("s"), Variable("s2")
#: The partner and a given seat, bound per query.
P, SEAT = Variable("p"), Variable("seat")


@dataclass
class ISBooking:
    """Outcome of one intelligent-social booking attempt.

    Attributes:
        client: the booking user.
        partner: the friend the user wants to sit next to (may be None).
        flight: booked flight, or None when no seat was available.
        seat: booked seat, or None when no seat was available.
        adjacent_to_partner: True when the booked seat is adjacent to an
            existing booking of the partner at booking time.
    """

    client: str
    partner: str | None
    flight: Any = None
    seat: Any = None
    adjacent_to_partner: bool = False

    @property
    def succeeded(self) -> bool:
        """True if a seat was booked."""
        return self.seat is not None


class IntelligentSocialClient:
    """Client-side coordination over an ordinary database.

    Args:
        database: the extensional store with ``Available``, ``Bookings`` and
            ``Adjacent`` tables (see :mod:`repro.workloads.flights`).
        available_table / bookings_table / adjacency_table: table-name
            overrides for custom schemas.
    """

    def __init__(
        self,
        database: Database,
        *,
        available_table: str = "Available",
        bookings_table: str = "Bookings",
        adjacency_table: str = "Adjacent",
    ) -> None:
        self.database = database
        self.available_table = available_table
        self.bookings_table = bookings_table
        self.adjacency_table = adjacency_table
        self.bookings: list[ISBooking] = []
        self._search = GroundingSearch(database)
        available = Atom.body(available_table, [F, S])

        def compiled(*atoms: Atom) -> Program:
            return self._search.compile(atoms_to_formula(atoms))

        #: The partner's booking.
        self._partner_booked = compiled(Atom.body(bookings_table, [P, F, S]))
        #: An available seat adjacent to a given seat.
        self._adjacent_free = compiled(
            Atom.body(adjacency_table, [F, S, SEAT]), available
        )
        #: An available seat that still has an available adjacent seat.
        self._free_pair = compiled(
            available,
            Atom.body(adjacency_table, [F, S, S2]),
            Atom.body(available_table, [F, S2]),
        )
        #: Any available seat.
        self._any_free = compiled(available)
        #: A partner booked next to a given seat.
        self._partner_adjacent = compiled(
            Atom.body(adjacency_table, [F, SEAT, S2]),
            Atom.body(bookings_table, [P, F, S2]),
        )

    # -- queries -------------------------------------------------------------

    @staticmethod
    def _bind(flight: Any | None, **values: Any) -> Substitution:
        """The constants of one query: ``values`` by variable name, and the
        flight when one is pinned."""
        if flight is not None:
            values["f"] = flight
        return Substitution.trusted(
            {Variable(name): Constant(value) for name, value in values.items()}
        )

    def _first(self, program: Program, bound: Substitution) -> dict[str, Any] | None:
        """The first grounding of a compiled query (a ``LIMIT 1`` join)
        extending ``bound``, or None."""
        result = self._search.find_one(program, initial=bound)
        return result.valuation() if result else None

    def _partner_booking(self, partner: str, flight: Any | None) -> dict[str, Any] | None:
        """The partner's existing booking, if any (optionally on a flight)."""
        return self._first(self._partner_booked, self._bind(flight, p=partner))

    def _adjacent_available(self, flight: Any, seat: Any) -> dict[str, Any] | None:
        """An available seat adjacent to ``seat`` on ``flight``."""
        return self._first(self._adjacent_free, self._bind(flight, seat=seat))

    def _seat_with_free_neighbour(self, flight: Any | None) -> dict[str, Any] | None:
        """An available seat that still has an available adjacent seat."""
        return self._first(self._free_pair, self._bind(flight))

    def _any_available(self, flight: Any | None) -> dict[str, Any] | None:
        """Any available seat (optionally on a specific flight)."""
        return self._first(self._any_free, self._bind(flight))

    # -- booking -------------------------------------------------------------

    def book(
        self, client: str, partner: str | None = None, *, flight: Any | None = None
    ) -> ISBooking:
        """Book one seat for ``client``, coordinating with ``partner`` if possible.

        Follows the paper's IS strategy exactly: check the friend's booking
        first; book the adjacent seat if one is free; otherwise book a seat
        with a free neighbour (keeping a spot open for the friend); otherwise
        take any seat; give up only when the flight is full.
        """
        booking = ISBooking(client=client, partner=partner)
        choice: dict[str, Any] | None = None
        if partner is not None:
            partner_booking = self._partner_booking(partner, flight)
            if partner_booking is not None:
                adjacent = self._adjacent_available(
                    partner_booking["f"], partner_booking["s"]
                )
                if adjacent is not None:
                    choice = {"f": partner_booking["f"], "s": adjacent["s"]}
                    booking.adjacent_to_partner = True
        if choice is None:
            choice = self._seat_with_free_neighbour(flight)
        if choice is None:
            choice = self._any_available(flight)
        if choice is None:
            self.bookings.append(booking)
            return booking
        booking.flight = choice["f"]
        booking.seat = choice["s"]
        with self.database.begin() as txn:
            txn.delete(self.available_table, (booking.flight, booking.seat))
            txn.insert(self.bookings_table, (client, booking.flight, booking.seat))
        self.bookings.append(booking)
        return booking

    # -- reporting -------------------------------------------------------------

    def coordinated_pairs(self) -> int:
        """Number of users whose final seat is adjacent to their partner's.

        Computed against the *final* database state, which is the fair
        comparison with the quantum database (the IS user may get lucky:
        their partner can land next to them even without planning).
        """
        coordinated = 0
        for booking in self.bookings:
            if not booking.succeeded or booking.partner is None:
                continue
            bound = self._bind(booking.flight, seat=booking.seat, p=booking.partner)
            if self._search.exists(self._partner_adjacent, initial=bound):
                coordinated += 1
        return coordinated

    def coordination_percentage(self) -> float:
        """Percentage of partnered bookings that ended up adjacent."""
        partnered = [b for b in self.bookings if b.partner is not None]
        if not partnered:
            return 0.0
        return 100.0 * self.coordinated_pairs() / len(partnered)
