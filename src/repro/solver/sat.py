"""A small DPLL SAT solver.

Section 6 of the paper points out that maintaining the composed-body
invariant is an instance of the Satisfiability problem, which exhibits phase
transitions: comfortably under- or over-constrained instances are easy,
instances near the critical clause/variable ratio are hard, and a quantum
database could detect the approach of the hard region and switch to a more
aggressive fixing phase.  This module provides the propositional machinery
(CNF formulas and a DPLL solver with unit propagation and pure-literal
elimination) used by the phase-transition ablation benchmark and by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.errors import SolverError


@dataclass(frozen=True)
class Literal:
    """A propositional literal: a variable name with a polarity."""

    variable: str
    positive: bool = True

    def negate(self) -> "Literal":
        """The complementary literal."""
        return Literal(self.variable, not self.positive)

    def satisfied_by(self, assignment: Mapping[str, bool]) -> bool | None:
        """True/False if decided by ``assignment``, None if still free."""
        value = assignment.get(self.variable)
        if value is None:
            return None
        return value if self.positive else not value

    def __repr__(self) -> str:
        return self.variable if self.positive else f"¬{self.variable}"


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals."""

    literals: tuple[Literal, ...]

    def variables(self) -> frozenset[str]:
        """Variables mentioned by the clause."""
        return frozenset(lit.variable for lit in self.literals)

    def status(self, assignment: Mapping[str, bool]) -> bool | None:
        """True if satisfied, False if violated, None if undecided."""
        undecided = False
        for literal in self.literals:
            value = literal.satisfied_by(assignment)
            if value is True:
                return True
            if value is None:
                undecided = True
        return None if undecided else False

    def unassigned_literals(self, assignment: Mapping[str, bool]) -> tuple[Literal, ...]:
        """Literals whose variable is not yet assigned."""
        return tuple(
            lit for lit in self.literals if lit.variable not in assignment
        )

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(repr(lit) for lit in self.literals) + ")"


class CNF:
    """A conjunction of clauses."""

    def __init__(self, clauses: Iterable[Clause | Sequence[Literal]] = ()) -> None:
        self.clauses: list[Clause] = []
        for clause in clauses:
            self.add_clause(clause)

    def add_clause(self, clause: Clause | Sequence[Literal]) -> Clause:
        """Add a clause (a :class:`Clause` or a sequence of literals)."""
        if not isinstance(clause, Clause):
            clause = Clause(tuple(clause))
        if not clause.literals:
            raise SolverError("empty clauses are not allowed (trivially UNSAT)")
        self.clauses.append(clause)
        return clause

    def variables(self) -> frozenset[str]:
        """All variables mentioned by the formula."""
        result: set[str] = set()
        for clause in self.clauses:
            result |= clause.variables()
        return frozenset(result)

    def is_satisfied_by(self, assignment: Mapping[str, bool]) -> bool:
        """True if every clause is satisfied under a complete assignment."""
        return all(clause.status(assignment) is True for clause in self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return " ∧ ".join(repr(c) for c in self.clauses)


@dataclass
class DPLLStatistics:
    """Work counters for one DPLL run."""

    decisions: int = 0
    unit_propagations: int = 0
    backtracks: int = 0


class DPLLSolver:
    """Davis–Putnam–Logemann–Loveland search with unit propagation."""

    def __init__(self) -> None:
        self.statistics = DPLLStatistics()

    def solve(self, cnf: CNF) -> dict[str, bool] | None:
        """Return a satisfying assignment or ``None`` if UNSAT."""
        self.statistics = DPLLStatistics()
        return self._dpll(cnf, {})

    def is_satisfiable(self, cnf: CNF) -> bool:
        """True if the formula is satisfiable."""
        return self.solve(cnf) is not None

    # -- internals -----------------------------------------------------------

    def _dpll(
        self, cnf: CNF, assignment: dict[str, bool]
    ) -> dict[str, bool] | None:
        assignment = dict(assignment)
        if not self._propagate(cnf, assignment):
            self.statistics.backtracks += 1
            return None
        status = [clause.status(assignment) for clause in cnf.clauses]
        if all(s is True for s in status):
            # Complete the assignment for variables not forced either way.
            for variable in cnf.variables():
                assignment.setdefault(variable, True)
            return assignment
        variable = self._pick_variable(cnf, assignment)
        if variable is None:
            self.statistics.backtracks += 1
            return None
        for value in (True, False):
            self.statistics.decisions += 1
            assignment[variable] = value
            result = self._dpll(cnf, assignment)
            if result is not None:
                return result
            del assignment[variable]
        self.statistics.backtracks += 1
        return None

    def _propagate(self, cnf: CNF, assignment: dict[str, bool]) -> bool:
        """Unit propagation; returns False on conflict."""
        changed = True
        while changed:
            changed = False
            for clause in cnf.clauses:
                status = clause.status(assignment)
                if status is False:
                    return False
                if status is True:
                    continue
                unassigned = clause.unassigned_literals(assignment)
                if len(unassigned) == 1:
                    literal = unassigned[0]
                    assignment[literal.variable] = literal.positive
                    self.statistics.unit_propagations += 1
                    changed = True
        return True

    @staticmethod
    def _pick_variable(cnf: CNF, assignment: Mapping[str, bool]) -> str | None:
        """Pick the unassigned variable occurring in the most undecided clauses."""
        counts: dict[str, int] = {}
        for clause in cnf.clauses:
            if clause.status(assignment) is not None:
                continue
            for literal in clause.unassigned_literals(assignment):
                counts[literal.variable] = counts.get(literal.variable, 0) + 1
        if not counts:
            return None
        return max(counts, key=lambda v: counts[v])
