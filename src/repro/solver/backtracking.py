"""Backtracking search for finite-domain CSPs.

A textbook chronological backtracking solver with the standard dynamic
heuristics (minimum remaining values, degree tie-break, optional
least-constraining-value ordering) and forward checking.  Used by the
calendar-scheduling workload and example; the quantum database's own
grounding path lives in :mod:`repro.solver.grounding`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.solver.csp import CSP
from repro.solver.propagation import ac3, forward_check, initial_domains


@dataclass
class SearchStatistics:
    """Counters describing the work a search performed."""

    assignments: int = 0
    backtracks: int = 0
    solutions: int = 0


class BacktrackingSolver:
    """Chronological backtracking with MRV + forward checking.

    Args:
        use_ac3: run AC-3 preprocessing before the search.
        use_forward_checking: prune neighbour domains after each assignment.
        use_lcv: order values by the least-constraining-value heuristic
            (more expensive per node; off by default).
        max_solutions: stop after this many solutions when enumerating.
    """

    def __init__(
        self,
        *,
        use_ac3: bool = True,
        use_forward_checking: bool = True,
        use_lcv: bool = False,
        max_solutions: int | None = None,
    ) -> None:
        self.use_ac3 = use_ac3
        self.use_forward_checking = use_forward_checking
        self.use_lcv = use_lcv
        self.max_solutions = max_solutions
        self.statistics = SearchStatistics()

    # -- public API ---------------------------------------------------------

    def solve(self, csp: CSP, initial: Mapping[str, Any] | None = None) -> dict[str, Any] | None:
        """Return one solution, or None if the problem is unsatisfiable.

        Args:
            csp: the problem to solve.
            initial: a partial assignment to extend (values are not checked
                against domains, only against constraints).
        """
        for solution in self.solutions(csp, initial=initial):
            return solution
        return None

    def solutions(
        self, csp: CSP, initial: Mapping[str, Any] | None = None
    ) -> Iterator[dict[str, Any]]:
        """Yield solutions one by one (up to ``max_solutions``)."""
        self.statistics = SearchStatistics()
        assignment = dict(initial or {})
        if not csp.is_consistent(assignment):
            return
        domains = initial_domains(csp)
        for var, value in assignment.items():
            if var in domains:
                domains[var] = [value]
        if self.use_ac3:
            consistent, domains = ac3(csp, domains)
            if not consistent:
                return
        yield from self._backtrack(csp, assignment, domains)

    # -- search -------------------------------------------------------------

    def _backtrack(
        self,
        csp: CSP,
        assignment: dict[str, Any],
        domains: Mapping[str, list[Any]],
    ) -> Iterator[dict[str, Any]]:
        if csp.is_complete(assignment):
            self.statistics.solutions += 1
            yield dict(assignment)
            return
        if (
            self.max_solutions is not None
            and self.statistics.solutions >= self.max_solutions
        ):
            return
        variable = self._select_variable(csp, assignment, domains)
        for value in self._order_values(csp, assignment, domains, variable):
            self.statistics.assignments += 1
            assignment[variable] = value
            if csp.is_consistent(assignment):
                if self.use_forward_checking:
                    ok, pruned = forward_check(csp, domains, assignment, variable)
                else:
                    ok, pruned = True, dict(domains)
                if ok:
                    yield from self._backtrack(csp, assignment, pruned)
                    if (
                        self.max_solutions is not None
                        and self.statistics.solutions >= self.max_solutions
                    ):
                        del assignment[variable]
                        return
            del assignment[variable]
            self.statistics.backtracks += 1

    def _select_variable(
        self,
        csp: CSP,
        assignment: Mapping[str, Any],
        domains: Mapping[str, list[Any]],
    ) -> str:
        """MRV with degree tie-break."""
        unassigned = [v for v in csp.variables if v not in assignment]
        return min(
            unassigned,
            key=lambda v: (len(domains[v]), -len(csp.neighbors(v))),
        )

    def _order_values(
        self,
        csp: CSP,
        assignment: Mapping[str, Any],
        domains: Mapping[str, list[Any]],
        variable: str,
    ) -> list[Any]:
        values = list(domains[variable])
        if not self.use_lcv:
            return values

        def eliminated(value: Any) -> int:
            trial = dict(assignment)
            trial[variable] = value
            count = 0
            for neighbor in csp.neighbors(variable):
                if neighbor in assignment:
                    continue
                for candidate in domains[neighbor]:
                    trial[neighbor] = candidate
                    if not csp.is_consistent(trial):
                        count += 1
                del trial[neighbor]
            return count

        return sorted(values, key=eliminated)
