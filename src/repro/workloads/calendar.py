"""Calendar-management scenario (Section 1's second motivating example).

Mickey schedules a work offsite months in advance; a higher-priority meeting
lands on the same slot at short notice; with a quantum database the offsite
slot is not fixed until the evening before, so the late meeting causes no
rescheduling cascade.

This module provides:

* a schema and generator for a meeting-slot database
  (``FreeSlot(person, day, slot)``, ``Meetings(meeting, person, day, slot)``,
  ``SameSlot(day, slot, day, slot)`` is unnecessary — co-attendance is
  expressed by sharing variables);
* :func:`make_meeting_request` — a resource transaction booking one common
  free slot for two attendees (the organiser defers the concrete slot).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.resource_transaction import ResourceTransaction
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.relational.database import Database
from repro.relational.datatypes import DataType
from repro.relational.schema import Column


@dataclass(frozen=True)
class CalendarSpec:
    """Size parameters of a generated calendar database.

    Attributes:
        people: attendee names.
        days: number of days in the horizon.
        slots_per_day: bookable slots per day.
    """

    people: tuple[str, ...] = ("Mickey", "Donald", "Goofy")
    days: int = 5
    slots_per_day: int = 4

    def slot_pairs(self) -> list[tuple[int, int]]:
        """All (day, slot) combinations."""
        return [
            (day, slot)
            for day in range(1, self.days + 1)
            for slot in range(1, self.slots_per_day + 1)
        ]


def create_calendar_tables(database: Database) -> None:
    """Declare the calendar schema."""
    database.create_table(
        "FreeSlot",
        [
            Column("person", DataType.TEXT),
            Column("day", DataType.INTEGER),
            Column("slot", DataType.INTEGER),
        ],
        key=["person", "day", "slot"],
        indexes=[["person"], ["day", "slot"]],
    )
    database.create_table(
        "Meetings",
        [
            Column("meeting", DataType.TEXT),
            Column("person", DataType.TEXT),
            Column("day", DataType.INTEGER),
            Column("slot", DataType.INTEGER),
        ],
        key=["meeting", "person"],
        indexes=[["person"], ["meeting"]],
    )


def populate_calendar(
    database: Database, spec: CalendarSpec, *, busy: Iterable[tuple[str, int, int]] = ()
) -> None:
    """Mark every slot free for every person, except the ``busy`` triples."""
    blocked = set(busy)
    table = database.table("FreeSlot")
    for person in spec.people:
        for day, slot in spec.slot_pairs():
            if (person, day, slot) not in blocked:
                table.insert((person, day, slot))


def build_calendar_database(
    spec: CalendarSpec | None = None,
    *,
    busy: Iterable[tuple[str, int, int]] = (),
) -> Database:
    """Create and populate a calendar database in one call."""
    spec = spec or CalendarSpec()
    database = Database()
    create_calendar_tables(database)
    populate_calendar(database, spec, busy=busy)
    return database


def make_meeting_request(
    meeting: str,
    organiser: str,
    attendee: str,
) -> ResourceTransaction:
    """A resource transaction booking a common free slot for two people.

    The chosen day/slot is deferred; both attendees' free slots are
    consumed.
    """
    day, slot = Variable("day"), Variable("slot")
    body = [
        Atom.body("FreeSlot", [Constant(organiser), day, slot]),
        Atom.body("FreeSlot", [Constant(attendee), day, slot]),
    ]
    updates = [
        Atom.delete("FreeSlot", [Constant(organiser), day, slot]),
        Atom.delete("FreeSlot", [Constant(attendee), day, slot]),
        Atom.insert("Meetings", [Constant(meeting), Constant(organiser), day, slot]),
        Atom.insert("Meetings", [Constant(meeting), Constant(attendee), day, slot]),
    ]
    return ResourceTransaction(
        body=tuple(body), updates=tuple(updates), client=organiser, partner=attendee
    )

