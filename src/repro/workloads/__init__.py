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
