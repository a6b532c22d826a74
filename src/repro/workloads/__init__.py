"""Workload and data generators for the evaluation section.

The paper's experiments run over an "artificially generated database of
flights" and a "workload of simulated entangled resource transactions"
modelling a social travel application; this subpackage regenerates both:

* :mod:`.flights` — flight databases (seats in rows of three, adjacency
  pairs, configurable size);
* :mod:`.arrival_orders` — the four arrival orders of Table 1;
* :mod:`.entangled_workload` — coordination-pair transaction streams;
* :mod:`.mixed` — mixed read / resource-transaction workloads (Figures 8
  and 9);
* :mod:`.calendar` — the calendar-management scenario from the
  introduction, used by the calendar example.
"""

from repro.workloads.arrival_orders import ArrivalOrder, expected_max_pending, order_arrivals
from repro.workloads.entangled_workload import (
    CoordinationPair,
    EntangledWorkload,
    generate_workload,
)
from repro.workloads.flights import FlightDatabaseSpec, create_flight_tables, populate_flights
from repro.workloads.mixed import MixedWorkload, Operation, OperationKind, generate_mixed_workload

__all__ = [
    "ArrivalOrder",
    "CoordinationPair",
    "EntangledWorkload",
    "FlightDatabaseSpec",
    "MixedWorkload",
    "Operation",
    "OperationKind",
    "create_flight_tables",
    "expected_max_pending",
    "generate_mixed_workload",
    "generate_workload",
    "order_arrivals",
    "populate_flights",
]
