"""Substitutions: mappings from variables to terms.

"Given a set of relational atoms containing variables and a database D, a
substitution is a mapping from variables to variables or data values from D"
(paper, Section 3.2.1).  We additionally support composition (needed by the
most-general-unifier definition) and application to atoms and formulas.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.errors import SubstitutionError
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Term, Variable, as_term


class Substitution:
    """An immutable mapping from :class:`Variable` to :class:`Term`.

    Substitutions are *idempotent* in the usual unification sense: applying
    a substitution repeatedly reaches a fixpoint because bindings are chased
    at application time.
    """

    __slots__ = ("_mapping",)

    def __init__(self, mapping: Mapping[Variable, Term | Any] | None = None) -> None:
        normalized: dict[Variable, Term] = {}
        for var, value in (mapping or {}).items():
            if not isinstance(var, Variable):
                raise SubstitutionError(f"substitution key {var!r} is not a Variable")
            term = as_term(value)
            if term == var:
                continue
            normalized[var] = term
        self._mapping = normalized

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls) -> "Substitution":
        """The identity substitution."""
        return cls()

    @classmethod
    def trusted(cls, mapping: dict[Variable, Term]) -> "Substitution":
        """Wrap ``mapping`` as is, without the constructor's validation.

        For callers that build the mapping from terms by construction: every
        key a :class:`Variable`, every value a :class:`Constant` or a
        :class:`Variable` other than its key.  The dict is adopted, not
        copied, so it must not be changed afterwards.
        """
        substitution = cls.__new__(cls)
        substitution._mapping = mapping
        return substitution

    @classmethod
    def from_valuation(cls, valuation: Mapping[str, Any]) -> "Substitution":
        """Build a ground substitution from a variable-name → value mapping."""
        return cls({Variable(name): Constant(value) for name, value in valuation.items()})

    # -- mapping protocol ---------------------------------------------------

    def __contains__(self, var: Variable) -> bool:
        return var in self._mapping

    def __getitem__(self, var: Variable) -> Term:
        return self._mapping[var]

    def get(self, var: Variable, default: Term | None = None) -> Term | None:
        """Return the binding of ``var`` or ``default``."""
        return self._mapping.get(var, default)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    def items(self) -> Iterable[tuple[Variable, Term]]:
        """(variable, term) pairs of the substitution."""
        return self._mapping.items()

    def domain(self) -> frozenset[Variable]:
        """Variables bound by the substitution."""
        return frozenset(self._mapping)

    def is_ground(self) -> bool:
        """True if every binding maps to a constant."""
        return all(isinstance(t, Constant) for t in self._mapping.values())

    def as_valuation(self) -> dict[str, Any]:
        """Return the substitution as a variable-name → value dict.

        Raises:
            SubstitutionError: if any binding is to a variable rather than a
                constant (i.e. the substitution is not ground).
        """
        valuation: dict[str, Any] = {}
        for var, term in self._mapping.items():
            if not isinstance(term, Constant):
                raise SubstitutionError(
                    f"binding {var!r} -> {term!r} is not ground"
                )
            valuation[var.name] = term.value
        return valuation

    # -- application --------------------------------------------------------

    def apply_term(self, term: Term) -> Term:
        """Apply the substitution to a single term, chasing variable chains."""
        seen: set[Variable] = set()
        current = term
        while isinstance(current, Variable) and current in self._mapping:
            if current in seen:
                raise SubstitutionError(f"cyclic substitution through {current!r}")
            seen.add(current)
            current = self._mapping[current]
        return current

    def apply_atom(self, atom: Atom) -> Atom:
        """Apply the substitution to every term of ``atom``.

        Built :meth:`Atom.unchecked`: ``atom`` was checked, and every
        binding is a term (the constructor coerced it).
        """
        return Atom.unchecked(
            atom.relation,
            tuple(self.apply_term(t) for t in atom.terms),
            atom.kind,
            atom.optional,
        )

    def __call__(self, target: Term | Atom) -> Term | Atom:
        """Convenience: ``theta(x)`` applies to a term or atom."""
        if isinstance(target, Atom):
            return self.apply_atom(target)
        return self.apply_term(target)

    # -- combination --------------------------------------------------------

    def bind(self, var: Variable, value: Term | Any) -> "Substitution":
        """Return a new substitution with ``var`` additionally bound.

        Raises:
            SubstitutionError: if ``var`` is already bound to a conflicting
                term.
        """
        term = as_term(value)
        existing = self._mapping.get(var)
        if existing is not None and existing != term:
            raise SubstitutionError(
                f"variable {var!r} already bound to {existing!r}, cannot rebind "
                f"to {term!r}"
            )
        mapping = dict(self._mapping)
        mapping[var] = term
        return Substitution(mapping)

    def compose(self, other: "Substitution") -> "Substitution":
        """Return ``other ∘ self``: apply ``self`` first, then ``other``.

        This is the composition used in Definition 3.2's "for each unifier ν
        there exists ν' with ν = ν' ∘ θ".
        """
        mapping: dict[Variable, Term] = {}
        for var, term in self._mapping.items():
            mapping[var] = other.apply_term(term)
        for var, term in other._mapping.items():
            mapping.setdefault(var, term)
        return Substitution(mapping)

    def merge(self, other: "Substitution") -> "Substitution":
        """Union of two substitutions that must agree on shared variables.

        Raises:
            SubstitutionError: if the two bind a shared variable differently.
        """
        merged = self
        for var, term in other.items():
            merged = merged.bind(var, term)
        return merged

    def restrict(self, variables: Iterable[Variable]) -> "Substitution":
        """Restrict the domain to ``variables``."""
        keep = set(variables)
        return Substitution(
            {var: term for var, term in self._mapping.items() if var in keep}
        )

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._mapping == other._mapping

    def __hash__(self) -> int:
        return hash(frozenset(self._mapping.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v!r}/{t!r}" for v, t in sorted(
            self._mapping.items(), key=lambda item: item[0].name
        ))
        return f"{{{inner}}}"
