"""Calendar management: deferring meeting slots until they matter.

Reproduces the introduction's second motivating scenario.  Mickey schedules
an offsite with Donald weeks in advance; with a quantum database the
concrete slot stays open.  When a high-priority CEO meeting lands on what
would have been the offsite slot, the write simply succeeds and the offsite
collapses onto another slot at read time — no rescheduling cascade.

The example also cross-checks the grounding the quantum database picks
against the possible worlds of the same request over a fresh calendar:
the chosen placement must be one of them.

Run with::

    python examples/calendar_scheduling.py
"""

from __future__ import annotations

from repro import QuantumConfig, QuantumDatabase
from repro.core.worlds import enumerate_possible_worlds
from repro.workloads.calendar import (
    CalendarSpec,
    build_calendar_database,
    make_meeting_request,
)


def main() -> None:
    spec = CalendarSpec(people=("Mickey", "Donald", "CEO"), days=3, slots_per_day=3)
    database = build_calendar_database(spec)
    qdb = QuantumDatabase(database, QuantumConfig())

    print("== Mickey schedules the offsite with Donald (slot deferred) ==")
    offsite = qdb.execute(make_meeting_request("offsite", "Mickey", "Donald"))
    print(f"committed: {offsite.committed}, slot still open: {offsite.pending}")

    print("\n== A high-priority CEO meeting takes Friday afternoon (day 3, slot 3) ==")
    # The CEO meeting books a *specific* slot for Mickey as a hard constraint.
    ceo = qdb.execute(
        "-FreeSlot('Mickey', 3, 3), -FreeSlot('CEO', 3, 3), "
        "+Meetings('ceo-sync', 'Mickey', 3, 3), +Meetings('ceo-sync', 'CEO', 3, 3) "
        ":-1 FreeSlot('Mickey', 3, 3), FreeSlot('CEO', 3, 3)"
    )
    print(f"CEO meeting committed: {ceo.committed} (no rescheduling of the offsite needed)")

    print("\n== The evening before, everyone reads their schedule ==")
    schedule = qdb.read("Meetings", [None, "Mickey", None, None], select=["_0", "_2", "_3"])
    for row in sorted(schedule, key=lambda r: (r["_2"], r["_3"])):
        print(f"  Mickey: {row['_0']} on day {row['_2']}, slot {row['_3']}")

    offsite_record = qdb.check_in(offsite.transaction_id)
    assert offsite_record is not None
    day, slot = offsite_record.valuation["day"], offsite_record.valuation["slot"]
    print(f"\noffsite landed on day {day}, slot {slot}")
    assert (day, slot) != (3, 3), "the offsite must have avoided the CEO slot"

    print("\n== Cross-check against the request's possible worlds ==")
    fresh = build_calendar_database(spec, busy=[("Mickey", 3, 3), ("CEO", 3, 3)])
    worlds = enumerate_possible_worlds(
        fresh, [make_meeting_request("offsite", "Mickey", "Donald")]
    )
    valuations = [dict(world.groundings[0][1]) for world in worlds]
    placements = {(valuation["day"], valuation["slot"]) for valuation in valuations}
    assert (day, slot) in placements, "the grounding must be a possible world"
    print(f"agreed: ({day}, {slot}) is one of {len(placements)} possible placements")


if __name__ == "__main__":
    main()
