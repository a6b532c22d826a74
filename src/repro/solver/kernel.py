"""The search kernel: compile a composed body once, search it on slots.

Every grounding search in the repository — the ``LIMIT 1`` admission
probe, the preference-maximising search on partner arrival, forced
groundings, possible-world enumeration, both admission strategies, the
shape fast paths and the sampling estimator — is one traversal over one
compiled representation:

* :func:`compile_formula` turns a :class:`~repro.logic.formula.Formula`
  into an immutable :class:`Program`: ``simplify()`` runs once, variables
  become integer slots of a :class:`Scope`, atoms carry their constant
  template and slot positions, negations carry the slots they watch and a
  pre-built evaluator of their inner formula.  Programs compiled into the
  same scope can be :func:`conjoin`-ed without recompiling either side,
  which is how ``choose_grounding`` reuses the prefix body, the suffix
  body and every optional factor across its attempts.
* :class:`Run` executes a program: a flat slot array plus an undo trail
  (bindings are made destructively and popped on backtrack), counters and
  the node budget — all per run, so a program is safe to share between
  threads while every search stays reentrant.

**Traversal-order contract.**  The enumeration order is part of the
system's observable behaviour (it decides which seat a booking gets and
which witness is cached), so :meth:`Run.solutions` reproduces the seed
interpreter step for step:

* part selection — the first equality / negation / conjunction / truth
  constant in list order; else the atom with the most bound positions,
  ties to the lowest index; else the first disjunction;
* a spliced conjunction's parts and a chosen disjunction branch go to the
  *front* of the pending list;
* candidate rows come in the table's index-lookup order (the widest index
  covered by the bound positions, first declared wins ties);
* unification binds the walked representative of the left side first;
* a negation is decided as soon as — and only when — every variable it
  mentions is bound *directly* to a constant (alias chains are not
  chased); until then it is deferred and re-checked after every binding
  step, and a negation that still touches an unbound variable at a leaf
  rejects the candidate;
* ``nodes`` counts every interpreter step under ``"backtracking"`` and
  branch descents only under ``"bnb"`` (where the two sound prunes of the
  branch-and-bound strategy run at each choice point).  An exhausted
  budget skips the over-budget step under backtracking and abandons the
  enclosing choice point under bnb, exactly as the two seed traversals
  did, so budget exhaustion points — which decide groundings — agree.

``tests/solver/test_kernel_differential.py`` holds the seed interpreters
as oracles and checks sequences and counters against them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.errors import FormulaError, SubstitutionError
from repro.logic.formula import (
    AtomFormula,
    Conjunction,
    Disjunction,
    Equality,
    Formula,
    Negation,
    TRUE,
    conjunction,
)
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Term, Variable
from repro.relational.database import Database

#: Marks a slot that holds no direct constant binding.
_UNBOUND: Any = type("_Unbound", (), {"__repr__": lambda self: "<unbound>"})()

# Node kinds.  Choice kinds sort below the deterministic ones so the part
# scan can tell them apart with one comparison.
ATOM, DISJ, EQ, NEG, CONJ, TRUTH = range(6)

#: An operand of an equality or atom position: ``(slot, value)`` — a
#: variable's slot, or ``-1`` and the constant's value.
Operand = tuple[int, Any]

#: Evaluates a compiled node under direct constant bindings.
Evaluator = Callable[[list, Database], bool]


class _UnboundVariable(Exception):
    """A node evaluator read a slot with no direct constant binding."""


class Scope:
    """Variable → slot numbering shared by programs that get conjoined."""

    __slots__ = ("slot_of", "variables")

    def __init__(self) -> None:
        self.slot_of: dict[Variable, int] = {}
        self.variables: list[Variable] = []

    def slot(self, variable: Variable) -> int:
        slot = self.slot_of.get(variable)
        if slot is None:
            slot = self.slot_of[variable] = len(self.variables)
            self.variables.append(variable)
        return slot

    def operand(self, term: Term) -> Operand:
        if isinstance(term, Variable):
            return self.slot(term), None
        return -1, term.value


class _Node:
    """One compiled formula node.

    ``slots`` are the node's free-variable slots (first-occurrence order).
    The other fields depend on ``kind``: atoms carry ``atom`` (for error
    messages), ``template`` (constant values by position, ``None`` at
    variable positions), ``mask`` (bit per constant position), ``constants``
    (how many) and ``positions`` (``(position, slot)`` per variable
    position); equalities
    carry ``left`` / ``right`` operands; negations carry ``holds`` — the
    evaluator of their *inner* formula; junctions carry ``parts``; truth
    constants carry ``value``.
    """

    __slots__ = (
        "kind", "slots", "atom", "template", "mask", "constants", "positions",
        "left", "right", "holds", "parts", "value",
    )  # fmt: skip

    def __init__(self, kind: int, slots: tuple[int, ...] = ()) -> None:
        self.kind = kind
        self.slots = slots


_TRUE_NODE = _Node(TRUTH)
_TRUE_NODE.value = True
_FALSE_NODE = _Node(TRUTH)
_FALSE_NODE.value = False


def _unique(slots: Iterable[int]) -> tuple[int, ...]:
    return tuple(dict.fromkeys(slots))


def _compile(formula: Formula, scope: Scope) -> _Node:
    """Compile an already simplified formula."""
    if isinstance(formula, AtomFormula):
        atom = formula.atom
        template: list[Any] = []
        positions: list[tuple[int, int]] = []
        mask = 0
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                template.append(None)
                positions.append((position, scope.slot(term)))
            else:
                template.append(term.value)
                mask |= 1 << position
        node = _Node(ATOM, _unique(slot for _position, slot in positions))
        node.atom = atom
        node.template = tuple(template)
        node.mask = mask
        node.constants = len(template) - len(positions)
        node.positions = tuple(positions)
        return node
    if isinstance(formula, Equality):
        left, right = scope.operand(formula.left), scope.operand(formula.right)
        node = _Node(EQ, _unique(slot for slot, _value in (left, right) if slot >= 0))
        node.left, node.right = left, right
        return node
    if isinstance(formula, Negation):
        inner = _compile(formula.inner, scope)
        node = _Node(NEG, inner.slots)
        node.holds = _evaluator(inner)
        return node
    if isinstance(formula, (Conjunction, Disjunction)):
        kind = CONJ if isinstance(formula, Conjunction) else DISJ
        return _junction(kind, [_compile(part, scope) for part in formula.parts])
    if isinstance(formula, type(TRUE)):
        return _TRUE_NODE if formula.value else _FALSE_NODE
    raise FormulaError(f"unsupported formula node {formula!r}")


def _junction(kind: int, parts: list[_Node]) -> _Node:
    """The (already flat) junction of ``parts``: neutral when empty, the
    part itself when single."""
    if not parts:
        return _TRUE_NODE if kind == CONJ else _FALSE_NODE
    if len(parts) == 1:
        return parts[0]
    node = _Node(kind, _unique(slot for part in parts for slot in part.slots))
    node.parts = tuple(parts)
    return node


def _member(database: Database, relation: str, values: tuple[Any, ...]) -> bool:
    """Fact oracle: membership of a ground atom in the database."""
    if not database.has_table(relation):
        return False
    table = database.table(relation)
    for _row in table.lookup(list(table.schema.column_names), list(values)):
        return True
    return False


def _reader(operand: Operand) -> Callable[[list], Any]:
    slot, value = operand
    if slot < 0:
        return lambda val: value

    def read(val: list) -> Any:
        bound = val[slot]
        if bound is _UNBOUND:
            raise _UnboundVariable
        return bound

    return read


def _evaluator(node: _Node) -> Evaluator:
    """``Formula.evaluate`` for a compiled node, over direct bindings only."""
    kind = node.kind
    if kind == EQ:
        ls, rs = node.left[0], node.right[0]
        if ls >= 0 and rs >= 0:
            # The composed bodies' ``¬(s1 = s2)`` exclusions: the hot case.
            def equal_slots(val: list, _database: Database) -> bool:
                left, right = val[ls], val[rs]
                if left is _UNBOUND or right is _UNBOUND:
                    raise _UnboundVariable
                return left == right

            return equal_slots
        left, right = _reader(node.left), _reader(node.right)
        return lambda val, _database: left(val) == right(val)
    if kind == ATOM:
        readers = [_reader((-1, value)) for value in node.template]
        for position, slot in node.positions:
            readers[position] = _reader((slot, None))
        relation = node.atom.relation

        def member(val: list, database: Database) -> bool:
            return _member(database, relation, tuple(read(val) for read in readers))

        return member
    if kind == NEG:
        inner = node.holds
        return lambda val, database: not inner(val, database)
    if kind == TRUTH:
        value = node.value
        return lambda _val, _database: value
    parts = tuple(_evaluator(part) for part in node.parts)
    if kind == CONJ:
        return lambda val, database: all(part(val, database) for part in parts)
    return lambda val, database: any(part(val, database) for part in parts)


class Program:
    """A compiled formula: immutable, process-local, shareable across threads.

    Obtained from :func:`compile_formula` / :func:`conjoin` (or
    ``GroundingSearch.compile``) and accepted wherever the search API
    takes a formula.  Programs are never pickled, and are held by the plan
    or partition they were compiled for, so there is no process-wide cache
    to bound or invalidate.
    """

    __slots__ = (
        "scope", "root", "nslots", "required", "seeded", "_formula", "_sources", "_holds",
    )  # fmt: skip

    def __init__(
        self,
        scope: Scope,
        root: _Node,
        required: Iterable[Variable] | None,
        *,
        formula: Formula | None = None,
        sources: tuple["Program", ...] = (),
    ) -> None:
        # Exactly one of ``formula`` (simplified) and ``sources`` (the
        # conjoined programs) is given.
        self.scope = scope
        self.root = root
        #: Slots that must resolve to constants for a leaf to be a solution
        #: (all free variables unless the caller narrowed or widened it).
        self.required: tuple[int, ...] = (
            root.slots
            if required is None
            else _unique(scope.slot(variable) for variable in required)
        )
        #: Slots a run seeds from its ``initial`` substitution.
        self.seeded: tuple[int, ...] = (
            root.slots
            if self.required is root.slots
            else _unique(root.slots + self.required)
        )
        #: Slot-array size: the scope may keep growing under later compiles,
        #: but this program only ever addresses the slots that existed now.
        self.nslots = len(scope.variables)
        self._formula = formula
        self._sources = sources
        self._holds: Evaluator | None = None

    @property
    def is_false(self) -> bool:
        """The body simplified to FALSE: no search is ever started."""
        return self.root is _FALSE_NODE

    @property
    def formula(self) -> Formula:
        """The simplified formula this program searches.

        For a conjoined program it is built on demand (no search needs it).
        """
        if self._formula is None:
            self._formula = conjunction([source.formula for source in self._sources])
        return self._formula

    def requiring(self, required: Iterable[Variable] | None) -> "Program":
        """The same program with a different required-variable set."""
        return Program(
            self.scope, self.root, required, formula=self._formula, sources=self._sources
        )

    def shape(self) -> str | None:
        """``"conjunctive"``, ``"existential"`` or ``None`` (see fastpath)."""
        root = self.root
        if _is_conjunctive(root):
            return "conjunctive"
        if root.kind == DISJ and all(_is_conjunctive(part) for part in root.parts):
            return "existential"
        return None

    def holds(self, database: Database, solution: Substitution | None) -> bool:
        """True if ``solution`` grounds every free variable and satisfies the body."""
        if solution is None:
            return False
        val = [_UNBOUND] * self.nslots
        variables = self.scope.variables
        for slot in self.root.slots:
            term = solution.get(variables[slot])
            if not isinstance(term, Constant):
                return False
            val[slot] = term.value
        if self._holds is None:
            self._holds = _evaluator(self.root)
        return self._holds(val, database)


def _is_conjunctive(node: _Node) -> bool:
    if node.kind in (ATOM, EQ):
        return True
    if node.kind == CONJ:
        return all(part.kind in (ATOM, EQ) for part in node.parts)
    return node is _TRUE_NODE


def compile_formula(
    formula: "Formula | Program",
    *,
    required: Iterable[Variable] | None = None,
    scope: Scope | None = None,
) -> Program:
    """Compile ``formula`` (a no-op for an already compiled program).

    Args:
        formula: the body to search; simplified once, here.
        required: variables that must be ground in every solution
            (defaults to the simplified formula's free variables).
        scope: slot numbering to compile into; programs that will be
            :func:`conjoin`-ed must share one.  A fresh scope by default.
    """
    if isinstance(formula, Program):
        return formula if required is None else formula.requiring(required)
    simplified = formula.simplify()
    if scope is None:
        scope = Scope()
    return Program(scope, _compile(simplified, scope), required, formula=simplified)


def conjoin(
    programs: Iterable[Program], *, required: Iterable[Variable] | None = None
) -> Program:
    """The program of the conjunction, without recompiling any part.

    Equivalent to compiling ``conjunction([p.formula for p in programs])``
    (simplification is local to each part, so flattening the compiled
    roots is the whole job).  All parts must share one :class:`Scope`.
    """
    programs = tuple(programs)
    scope = programs[0].scope
    parts: list[_Node] = []
    for program in programs:
        if program.scope is not scope:
            raise ValueError("conjoined programs must be compiled into one scope")
        root = program.root
        if root is _FALSE_NODE:
            return Program(scope, root, required, sources=programs)
        if root.kind == CONJ:
            parts.extend(root.parts)
        elif root is not _TRUE_NODE:
            parts.append(root)
    return Program(scope, _junction(CONJ, parts), required, sources=programs)


class Run:
    """One search over a program: slots, trail, counters, budget.

    Nothing here outlives the call that created it — that is what makes
    searches reentrant and compiled programs shareable.  The binding
    store is two parallel arrays: ``val[slot]`` is the constant a slot is
    bound to *directly* (or the unbound marker) and ``ref[slot]`` the slot
    it is aliased to (or ``-1``); ``trail`` lists the slots bound since
    the start, newest last.  Bindings loaded from ``initial`` are not on
    the trail and are never undone.
    """

    __slots__ = (
        "program", "database", "initial", "stats", "budget", "bnb", "prune",
        "val", "ref", "trail", "max_depth", "_extra",
    )  # fmt: skip

    def __init__(
        self,
        program: Program,
        database: Database,
        initial: Substitution | None = None,
        stats: Any = None,
        node_budget: int | None = None,
        *,
        strategy: str = "backtracking",
        prune: bool = True,
    ) -> None:
        self.program = program
        self.database = database
        self.initial = initial
        self.stats = stats
        self.budget = node_budget
        self.bnb = strategy == "bnb"
        self.prune = prune and self.bnb
        self.val: list[Any] = [_UNBOUND] * program.nslots
        self.ref: list[int] = [-1] * program.nslots
        self.trail: list[int] = []
        #: High-water mark of the trail (``search.undo_depth``).
        self.max_depth = 0
        #: Slots for variables the scope does not number (they can only
        #: come from alias chains of ``initial``): variable → slot.
        self._extra: dict[Variable, int] | None = None
        if initial:
            self._load(initial)

    # -- binding store --------------------------------------------------------

    def _load(self, initial: Substitution) -> None:
        """Seed the slots this program can reach from ``initial``."""
        program = self.program
        variables = program.scope.variables
        val, ref = self.val, self.ref
        lookup = initial.get
        for slot in program.seeded:
            if val[slot] is not _UNBOUND or ref[slot] >= 0:
                continue
            term = lookup(variables[slot])
            if term is None:
                continue
            if isinstance(term, Constant):
                val[slot] = term.value
            else:
                self._load_chain(slot, term, initial)

    def _load_chain(self, slot: int, term: Term, initial: Substitution) -> None:
        """Follow an alias chain of ``initial``, allocating slots on the way."""
        seen = {slot}
        while True:
            if isinstance(term, Constant):
                self.val[slot] = term.value
                return
            target = self._slot_of(term)
            self.ref[slot] = target
            if target in seen:
                raise SubstitutionError(f"cyclic substitution through {term!r}")
            if self.val[target] is not _UNBOUND or self.ref[target] >= 0:
                return
            seen.add(target)
            slot = target
            term = initial.get(term)
            if term is None:
                return

    def _slot_of(self, variable: Variable) -> int:
        slot = self.program.scope.slot_of.get(variable)
        if slot is not None and slot < self.program.nslots:
            return slot
        if self._extra is None:
            self._extra = {}
        slot = self._extra.get(variable)
        if slot is None:
            slot = self._extra[variable] = len(self.val)
            self.val.append(_UNBOUND)
            self.ref.append(-1)
        return slot

    def _variable(self, slot: int) -> Variable:
        if slot < self.program.nslots:
            return self.program.scope.variables[slot]
        assert self._extra is not None
        return next(var for var, extra in self._extra.items() if extra == slot)

    def walk(self, slot: int) -> int:
        """The representative slot of ``slot``'s alias chain."""
        ref = self.ref
        target = ref[slot]
        while target >= 0:
            slot = target
            target = ref[slot]
        return slot

    def unify(self, left: Operand, right: Operand) -> bool:
        """Destructively unify two operands (``unify_terms`` on slots).

        Both sides are walked to their representatives; an unbound left
        representative is bound to the right side (constant or alias),
        else an unbound right one to the left constant.  Returns False on
        a constant clash, binding nothing.
        """
        val, ref = self.val, self.ref
        ls, lv = left
        if ls >= 0:
            target = ref[ls]
            while target >= 0:
                ls = target
                target = ref[ls]
            lv = val[ls]
        rs, rv = right
        if rs >= 0:
            target = ref[rs]
            while target >= 0:
                rs = target
                target = ref[rs]
            rv = val[rs]
        if lv is not _UNBOUND:
            if rv is not _UNBOUND:
                return lv is rv or lv == rv
            val[rs] = lv
            self.trail.append(rs)
            return True
        if rv is not _UNBOUND:
            val[ls] = rv
        elif ls == rs:
            return True
        else:
            ref[ls] = rs
        self.trail.append(ls)
        return True

    def undo(self, mark: int) -> None:
        """Unbind every slot bound since the trail was ``mark`` long."""
        trail = self.trail
        depth = len(trail)
        if depth > self.max_depth:
            self.max_depth = depth
        val, ref = self.val, self.ref
        while depth > mark:
            slot = trail.pop()
            val[slot] = _UNBOUND
            ref[slot] = -1
            depth -= 1

    def closed(self) -> bool:
        """True if every required variable resolves to a constant."""
        val, ref = self.val, self.ref
        for slot in self.program.required:
            target = ref[slot]
            while target >= 0:
                slot = target
                target = ref[slot]
            if val[slot] is _UNBOUND:
                return False
        return True

    def signature(self) -> tuple[Any, ...]:
        """The required variables' values (solution identity for dedup)."""
        val = self.val
        return tuple(val[self.walk(slot)] for slot in self.program.required)

    def snapshot(self) -> Substitution:
        """The current bindings as an immutable substitution.

        Equal, binding for binding and in the same order, to the
        substitution the seed interpreter's chain of ``bind`` calls built
        along the same path: ``initial`` first, then the trail.
        """
        mapping: dict[Variable, Any] = dict(self.initial.items()) if self.initial else {}
        val, ref = self.val, self.ref
        if self._extra is None:
            variables = self.program.scope.variables
            for slot in self.trail:
                value = val[slot]
                mapping[variables[slot]] = (
                    variables[ref[slot]] if value is _UNBOUND else value
                )
        else:
            for slot in self.trail:
                value = val[slot]
                mapping[self._variable(slot)] = (
                    self._variable(ref[slot]) if value is _UNBOUND else value
                )
        return Substitution(mapping)

    # -- step primitives --------------------------------------------------------

    def decide(self, negation: _Node) -> bool | None:
        """A negation's truth value, or ``None`` while it is undecidable."""
        val = self.val
        for slot in negation.slots:
            if val[slot] is _UNBOUND:
                return None
        return not negation.holds(val, self.database)

    def propagate(self, deferred: list[_Node]) -> list[_Node] | None:
        """Re-check deferred negations after the bindings grew.

        Returns the still-undecidable ones, or ``None`` as soon as a
        now-decidable negation fails.
        """
        val = self.val
        database = self.database
        remaining: list[_Node] = []
        for negation in deferred:
            for slot in negation.slots:
                if val[slot] is _UNBOUND:
                    remaining.append(negation)
                    break
            else:
                if negation.holds(val, database):
                    return None
        return remaining

    def leaf_holds(self, deferred: list[_Node]) -> bool:
        """Evaluate the deferred negations once the bindings are final.

        Evaluation short-circuits exactly like ``Formula.evaluate``; a
        negation that actually reads an unbound variable rejects the leaf.
        """
        val = self.val
        database = self.database
        try:
            for negation in deferred:
                if negation.holds(val, database):
                    return False
        except _UnboundVariable:
            return False
        return True

    def select(self, parts: list[_Node]) -> int:
        """Index of the choice part to expand: most-bound atom, else first
        disjunction (``parts`` holds atoms and disjunctions only)."""
        val, ref = self.val, self.ref
        best = -1
        best_bound = -1
        first_disjunction = -1
        index = 0
        for node in parts:
            if node.kind == ATOM:
                bound = node.constants
                for _position, slot in node.positions:
                    target = ref[slot]
                    while target >= 0:
                        slot = target
                        target = ref[slot]
                    if val[slot] is not _UNBOUND:
                        bound += 1
                if bound > best_bound:
                    best_bound = bound
                    best = index
            elif first_disjunction < 0:
                first_disjunction = index
            index += 1
        return best if best >= 0 else first_disjunction

    def candidates(
        self, node: _Node
    ) -> tuple[Iterable[Any], list[tuple[int, int]]]:
        """Rows that can match an atom, and the positions a row must bind.

        Rows come in the order ``Table.lookup`` yields them for the bound
        positions; the second element lists ``(position, representative
        slot)`` for the positions still unbound.
        """
        atom = node.atom
        database = self.database
        if not database.has_table(atom.relation):
            return (), []
        table = database.table(atom.relation)
        if len(node.template) != table.schema.arity:
            raise FormulaError(
                f"atom {atom!r} has arity {len(node.template)}, table "
                f"{table.schema.name!r} has arity {table.schema.arity}"
            )
        val, ref = self.val, self.ref
        values = list(node.template)
        mask = node.mask
        binders: list[tuple[int, int]] = []
        for position, slot in node.positions:
            target = ref[slot]
            while target >= 0:
                slot = target
                target = ref[slot]
            value = val[slot]
            if value is _UNBOUND:
                binders.append((position, slot))
            else:
                values[position] = value
                mask |= 1 << position
        return _lookup(table, mask, values), binders

    def bind_row(self, row_values: tuple, binders: list[tuple[int, int]]) -> bool:
        """Bind a candidate row's values to the unbound positions.

        False when two positions sharing a representative disagree (the
        caller undoes the partial bindings).
        """
        val = self.val
        trail = self.trail
        for position, slot in binders:
            bound = val[slot]
            value = row_values[position]
            if bound is _UNBOUND:
                val[slot] = value
                trail.append(slot)
            elif not (bound is value or bound == value):
                return False
        return True

    # -- the bnb prunes ---------------------------------------------------------

    def should_prune(self, chosen: _Node, rest: list[_Node]) -> bool:
        """True when the subtree under this choice point has no solution.

        *Forward check*: an unexpanded atom with no candidate row under
        the current bindings can never match (bindings only tighten and
        the store is immutable during a search).  The chosen part is
        about to be enumerated anyway, so only the others are probed.
        *Required reachability*: a required variable whose representative
        is unbound and is mentioned by no remaining part can never become
        ground, so every completion fails the final close step.
        """
        for node in rest:
            if node.kind == ATOM and not self._has_candidate(node):
                return True
        val, ref = self.val, self.ref
        unbound: set[int] | None = None
        for slot in self.program.required:
            target = ref[slot]
            while target >= 0:
                slot = target
                target = ref[slot]
            if val[slot] is _UNBOUND:
                if unbound is None:
                    unbound = set()
                unbound.add(slot)
        if unbound is None:
            return False
        for node in (chosen, *rest):
            for slot in node.slots:
                target = ref[slot]
                while target >= 0:
                    slot = target
                    target = ref[slot]
                unbound.discard(slot)
            if not unbound:
                return False
        return True

    def _has_candidate(self, node: _Node) -> bool:
        database = self.database
        relation = node.atom.relation
        if not database.has_table(relation):
            return False
        table = database.table(relation)
        if len(node.template) != table.schema.arity:
            # Malformed atom: let the real expansion raise, never prune.
            return True
        val = self.val
        values = list(node.template)
        mask = node.mask
        for position, slot in node.positions:
            value = val[self.walk(slot)]
            if value is not _UNBOUND:
                values[position] = value
                mask |= 1 << position
        for _row in _lookup(table, mask, values):
            return True
        return False

    # -- the traversal ----------------------------------------------------------

    def solutions(self) -> Iterator[None]:
        """Pause at every leaf whose deferred negations hold.

        The bindings of the leaf are in place while the generator is
        suspended: the caller inspects them (:meth:`closed`,
        :meth:`signature`, :meth:`snapshot`) and resumes for the next
        leaf.  Counters are written to ``stats`` before every pause and
        when the generator finishes or is closed.
        """
        stats = self.stats
        budget = self.budget
        bnb = self.bnb
        prune = self.prune
        trail = self.trail
        nodes = stats.nodes
        rows_examined = choice_points = backtracks = prunes = 0
        # One frame per open choice point:
        # (alternatives, binders | None, rest, deferred, trail mark).
        stack: list[tuple] = []
        parts: list[_Node] = [self.program.root]
        deferred: list[_Node] = []
        scan = True
        descending = True
        try:
            while True:
                if descending:
                    # One interpreter step: charge it, run the deterministic
                    # parts at the front, arrive at a leaf or a choice point.
                    descending = False
                    if not bnb:
                        nodes += 1
                        if budget is not None and nodes > budget:
                            stats.exhausted_budget = True
                            continue
                    if scan:
                        failed = False
                        index = 0
                        while index < len(parts):
                            node = parts[index]
                            kind = node.kind
                            if kind <= DISJ:
                                index += 1
                                continue
                            del parts[index]
                            if kind == NEG:
                                decision = self.decide(node)
                                if decision is None:
                                    deferred = deferred + [node]
                                elif not decision:
                                    backtracks += 1
                                    failed = True
                                    break
                            elif kind == EQ:
                                remaining = None
                                if self.unify(node.left, node.right):
                                    remaining = (
                                        self.propagate(deferred) if deferred else deferred
                                    )
                                if remaining is None:
                                    backtracks += 1
                                    failed = True
                                    break
                                deferred = remaining
                            elif kind == CONJ:
                                parts[0:0] = node.parts
                                index = 0
                            elif not node.value:
                                backtracks += 1
                                failed = True
                                break
                            if not bnb:
                                nodes += 1
                                if budget is not None and nodes > budget:
                                    stats.exhausted_budget = True
                                    failed = True
                                    break
                        if failed:
                            continue
                    if not parts:
                        if not deferred or self.leaf_holds(deferred):
                            stats.nodes = nodes
                            stats.rows_examined += rows_examined
                            stats.choice_points += choice_points
                            stats.backtracks += backtracks
                            stats.prunes += prunes
                            rows_examined = choice_points = backtracks = prunes = 0
                            yield
                        continue
                    index = self.select(parts)
                    node = parts[index]
                    rest = parts[:index] + parts[index + 1 :]
                    if prune and self.should_prune(node, rest):
                        prunes += 1
                        continue
                    choice_points += 1
                    if node.kind == ATOM:
                        rows, binders = self.candidates(node)
                        stack.append((iter(rows), binders, rest, deferred, len(trail)))
                    else:
                        stack.append((iter(node.parts), None, rest, deferred, len(trail)))
                    continue
                # Backtrack: the next alternative of the innermost choice.
                if not stack:
                    return
                alternatives, binders, rest, frame_deferred, mark = stack[-1]
                if len(trail) > mark:
                    self.undo(mark)
                if binders is None:
                    branch = next(alternatives, None)
                    if branch is None:
                        stack.pop()
                        continue
                    parts = [branch] + rest
                    deferred = frame_deferred
                    scan = True
                else:
                    for row in alternatives:
                        rows_examined += 1
                        if not self.bind_row(row.values, binders):
                            self.undo(mark)
                            continue
                        if frame_deferred:
                            remaining = self.propagate(frame_deferred)
                            if remaining is None:
                                backtracks += 1
                                self.undo(mark)
                                continue
                            deferred = remaining
                        else:
                            deferred = frame_deferred
                        break
                    else:
                        stack.pop()
                        continue
                    # ``rest`` holds choice parts only and is shared by every
                    # row of this frame: nothing to scan, nothing mutated.
                    parts = rest
                    scan = False
                if bnb:
                    nodes += 1
                    if budget is not None and nodes > budget:
                        # Branch-and-bound abandons the whole choice point.
                        stats.exhausted_budget = True
                        stack.pop()
                        continue
                descending = True
        finally:
            depth = len(trail)
            if depth > self.max_depth:
                self.max_depth = depth
            stats.nodes = nodes
            stats.rows_examined += rows_examined
            stats.choice_points += choice_points
            stats.backtracks += backtracks
            stats.prunes += prunes


def _lookup(table: Any, mask: int, values: list[Any]) -> Iterable[Any]:
    """``Table.lookup`` on positions: same index choice, same row order."""
    if not mask:
        return table.scan()
    best = None
    width = 0
    for index in table.indexes():
        positions = index.positions
        if len(positions) > width:
            for position in positions:
                if not mask >> position & 1:
                    break
            else:
                best = index
                width = len(positions)
    bound = [position for position in range(len(values)) if mask >> position & 1]
    if best is None:
        candidates = table.scan()
    else:
        candidates = best.lookup(tuple(values[position] for position in best.positions))
        if width == len(bound):
            return candidates
    return (
        row
        for row in candidates
        if all(row.values[position] == values[position] for position in bound)
    )
