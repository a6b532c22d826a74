"""Arrival orders of entangled transactions (Table 1).

The overhead of the quantum database depends on how long transactions stay
pending, which is governed by when each user's coordination partner shows
up.  Table 1 of the paper defines four arrival orders over ``N``
transactions forming ``N/2`` coordination pairs:

========  ==========================================  =================
Order     Characteristic                              Max pending xacts
========  ==========================================  =================
Alternate T_i entangles with T_{i+1}                  1
Random    T_i entangles with T_j for some i, j < N    ⌈N/2⌉
In Order  T_i entangles with T_{i+N/2}                ⌈N/2⌉
Reverse   T_i entangles with T_{N−i}                  ⌈N/2⌉
========  ==========================================  =================

:func:`order_arrivals` produces the arrival sequence of user indices for a
given order; :func:`expected_max_pending` returns the analytic bound of the
table (which the Table 1 experiment compares against the measured maximum).
"""

from __future__ import annotations

import enum
import math
import random
from typing import Sequence


class ArrivalOrder(enum.Enum):
    """The four arrival orders of Table 1."""

    ALTERNATE = "Alternate"
    RANDOM = "Random"
    IN_ORDER = "In Order"
    REVERSE_ORDER = "Reverse Order"


def order_arrivals(
    num_pairs: int,
    order: ArrivalOrder,
    *,
    rng: random.Random | None = None,
) -> list[int]:
    """Arrival sequence of user indices (0-based) for ``num_pairs`` pairs.

    Users ``2i`` and ``2i+1`` are coordination partners.  The returned list
    is a permutation of ``range(2 * num_pairs)`` realising the requested
    arrival order:

    * ``ALTERNATE`` — each user is immediately followed by their partner;
    * ``RANDOM`` — a uniformly random permutation (the paper's "most
      realistic" order);
    * ``IN_ORDER`` — all first partners, then all second partners in the
      same order (partner of the i-th arrival arrives i + N/2-th);
    * ``REVERSE_ORDER`` — all first partners, then the second partners in
      reverse (the first user's partner arrives last).
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be positive")
    firsts = [2 * i for i in range(num_pairs)]
    seconds = [2 * i + 1 for i in range(num_pairs)]
    if order is ArrivalOrder.ALTERNATE:
        sequence: list[int] = []
        for first, second in zip(firsts, seconds):
            sequence.extend((first, second))
        return sequence
    if order is ArrivalOrder.RANDOM:
        rng = rng or random.Random(0)
        sequence = firsts + seconds
        rng.shuffle(sequence)
        return sequence
    if order is ArrivalOrder.IN_ORDER:
        return firsts + seconds
    if order is ArrivalOrder.REVERSE_ORDER:
        return firsts + list(reversed(seconds))
    raise ValueError(f"unknown arrival order {order!r}")


def expected_max_pending(num_pairs: int, order: ArrivalOrder) -> int:
    """Analytic bound on pending transactions from Table 1.

    Assumes (as the paper does) that a transaction remains pending exactly
    until its partner arrives, at which point both are grounded.
    """
    total = 2 * num_pairs
    if order is ArrivalOrder.ALTERNATE:
        return 1
    return math.ceil(total / 2)


def measured_max_pending(arrivals: Sequence[int]) -> int:
    """Maximum simultaneously pending transactions for an arrival sequence.

    Simulates the ground-on-partner-arrival policy: a user's transaction
    stays pending until their partner (the other member of the consecutive
    pair) has arrived.
    """
    pending: set[int] = set()
    maximum = 0
    arrived: set[int] = set()
    for user in arrivals:
        arrived.add(user)
        partner = user + 1 if user % 2 == 0 else user - 1
        if partner in pending:
            pending.discard(partner)
        else:
            pending.add(user)
        maximum = max(maximum, len(pending))
    return maximum
