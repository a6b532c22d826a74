"""Random k-SAT instance generation for the phase-transition ablation.

Section 6 of the paper argues that resource-allocation satisfiability
problems are usually comfortably under-constrained (many free seats, few
pending transactions) and only become hard near a critical
constraints-to-variables ratio, citing the classic SAT phase-transition
result.  The phase-transition shape test
(``tests/experiments/test_paper_shapes.py``) sweeps the clause/variable
ratio of random 3-SAT instances through the critical region (≈ 4.27 for
3-SAT) and measures DPLL effort and the satisfiable fraction, reproducing
the easy-hard-easy pattern that motivates the paper's "switch to
aggressive fixing when the problem gets hard" strategy.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import SolverError
from repro.solver.sat import CNF, Clause, Literal

#: The empirically known critical clause/variable ratio for random 3-SAT.
CRITICAL_RATIO_3SAT = 4.27


def random_ksat(
    num_variables: int,
    num_clauses: int,
    *,
    k: int = 3,
    rng: random.Random | None = None,
) -> CNF:
    """Generate a uniform random k-SAT instance.

    Each clause picks ``k`` distinct variables uniformly at random and
    negates each with probability 1/2.

    Args:
        num_variables: number of propositional variables (named ``x1..xn``).
        num_clauses: number of clauses.
        k: literals per clause.
        rng: optional random generator for reproducibility.

    Raises:
        SolverError: if ``k`` exceeds the number of variables.
    """
    if k > num_variables:
        raise SolverError(f"cannot pick {k} distinct variables out of {num_variables}")
    if num_variables <= 0 or num_clauses < 0:
        raise SolverError("num_variables must be positive and num_clauses non-negative")
    rng = rng or random.Random()
    names = [f"x{i}" for i in range(1, num_variables + 1)]
    cnf = CNF()
    for _ in range(num_clauses):
        chosen = rng.sample(names, k)
        literals = tuple(
            Literal(name, positive=rng.random() < 0.5) for name in chosen
        )
        cnf.add_clause(Clause(literals))
    return cnf


def ratio_sweep(
    num_variables: int,
    ratios: Sequence[float],
    *,
    k: int = 3,
    seed: int = 0,
) -> list[tuple[float, CNF]]:
    """Generate one instance per clause/variable ratio in ``ratios``."""
    rng = random.Random(seed)
    instances: list[tuple[float, CNF]] = []
    for ratio in ratios:
        num_clauses = max(1, round(ratio * num_variables))
        instances.append((ratio, random_ksat(num_variables, num_clauses, k=k, rng=rng)))
    return instances
