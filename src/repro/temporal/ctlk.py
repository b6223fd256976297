"""CTLK: branching-time temporal logic combined with epistemic operators.

Formulas are built from the epistemic language of :mod:`repro.logic` plus the
path-quantified temporal operators ``EX``, ``EG``, ``E[· U ·]`` and their
universal duals.  Satisfaction is defined over an interpreted system (or any
object exposing ``states``, a transition relation and the knowledge
structure): temporal operators quantify over the paths of the transition
relation, epistemic operators over indistinguishable reachable states.

Deadlock states (no outgoing transition) are given an implicit self-loop so
that path quantification is total; the library's example systems either are
total or end in stable "finished" states where this convention is the
intended reading.

:class:`CTLKModelChecker` is written once over a small ops object that
supplies the state-set representation: :class:`ExplicitCTLKOps` (frozensets
of enumerated states, defined here) or
:class:`repro.temporal.symbolic.SymbolicCTLKOps` (BDDs, for the systems
:func:`repro.interpretation.iteration.construct_by_rounds` builds from a
symbolic model).
"""

import operator
from functools import reduce

from repro import obs as _obs
from repro import resilience as _res
from repro.engine import (
    apply_epistemic_many,
    collect_ready_epistemic,
    resolve_backend,
)
from repro.logic.formula import (
    And,
    FalseFormula,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Prop,
    TrueFormula,
)
from repro.util.errors import FormulaError, ModelError


class TemporalFormula(Formula):
    """Base class of the temporal operators (they compose with the epistemic
    formulas of :mod:`repro.logic`)."""

    __slots__ = ()


class _UnaryTemporal(TemporalFormula):
    __slots__ = ("operand",)
    _symbol = "?"

    def __init__(self, operand):
        if not isinstance(operand, Formula):
            raise FormulaError(f"temporal operand must be a Formula, got {operand!r}")
        object.__setattr__(self, "operand", operand)

    def __setattr__(self, key, value):
        raise AttributeError("temporal formulas are immutable")

    def children(self):
        return (self.operand,)

    def _key(self):
        return self.operand

    def _substitute(self, mapping):
        return type(self)(self.operand._substitute(mapping))

    def __str__(self):
        return f"{self._symbol} {self.operand}"


class _BinaryTemporal(TemporalFormula):
    __slots__ = ("left", "right")
    _symbol = "?"

    def __init__(self, left, right):
        for operand in (left, right):
            if not isinstance(operand, Formula):
                raise FormulaError(f"temporal operand must be a Formula, got {operand!r}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, key, value):
        raise AttributeError("temporal formulas are immutable")

    def children(self):
        return (self.left, self.right)

    def _key(self):
        return (self.left, self.right)

    def _substitute(self, mapping):
        return type(self)(self.left._substitute(mapping), self.right._substitute(mapping))


class EX(_UnaryTemporal):
    """``EX phi`` — on some path, ``phi`` holds in the next state."""

    __slots__ = ()
    _symbol = "EX"


class EG(_UnaryTemporal):
    """``EG phi`` — on some path, ``phi`` holds forever."""

    __slots__ = ()
    _symbol = "EG"


class EF(_UnaryTemporal):
    """``EF phi`` — on some path, ``phi`` eventually holds."""

    __slots__ = ()
    _symbol = "EF"


class AX(_UnaryTemporal):
    """``AX phi`` — on every path, ``phi`` holds in the next state."""

    __slots__ = ()
    _symbol = "AX"


class AG(_UnaryTemporal):
    """``AG phi`` — on every path, ``phi`` holds forever (invariance)."""

    __slots__ = ()
    _symbol = "AG"


class AF(_UnaryTemporal):
    """``AF phi`` — on every path, ``phi`` eventually holds."""

    __slots__ = ()
    _symbol = "AF"


class EU(_BinaryTemporal):
    """``E[phi U psi]`` — on some path, ``phi`` holds until ``psi`` does."""

    __slots__ = ()

    def __str__(self):
        return f"E[{self.left} U {self.right}]"


class AU(_BinaryTemporal):
    """``A[phi U psi]`` — on every path, ``phi`` holds until ``psi`` does."""

    __slots__ = ()

    def __str__(self):
        return f"A[{self.left} U {self.right}]"


class CTLKModelChecker:
    """CTLK model checking over an interpreted system.

    Temporal operators are computed by the standard fixed-point algorithms
    over the (totalised) transition relation; epistemic operators are
    delegated to the knowledge structure of the system through a world-set
    backend that is resolved *once*, at construction (``backend=`` accepts a
    name or a :class:`repro.engine.SetBackend`; the default is the process
    default **at construction time**).  Pinning the backend keeps a
    long-lived checker answering through one representation even when the
    ambient default changes between queries (e.g. a
    :func:`repro.engine.use_backend` context exiting mid-lifetime).

    The state sets come from an ops object picked by the system: a symbolic
    system (flagged ``is_symbolic_system`` — the output of
    :func:`repro.interpretation.iteration.construct_by_rounds` on a symbolic
    model) gets :class:`repro.temporal.symbolic.SymbolicCTLKOps`, which
    accepts only the ``"bdd"`` backend and never enumerates a state; any
    other system gets :class:`ExplicitCTLKOps`.  The ops supply ``universe``
    and ``empty``, the set algebra (``and_``, ``or_``, ``diff``, ``xor``),
    ``prop``, the pre-image ``pre_exists`` and the two fixed points ``eu``
    and ``eg``; every other operator is derived here, once.

    Before a formula is evaluated, the uncached epistemic nodes of its DAG
    are resolved in *batches*: nodes are grouped by ``(operator,
    agent/group)`` (innermost modalities first, so operands — possibly
    temporal — are always evaluable) and each group goes through one backend
    ``*_many`` call.
    """

    def __init__(self, system, backend=None):
        self.system = system
        self._memo = {}
        self._hits = 0
        self._misses = 0
        if getattr(system, "is_symbolic_system", False):
            # Lazy import: explicit checking never loads the symbolic stack.
            from repro.temporal.symbolic import SymbolicCTLKOps

            self.ops = SymbolicCTLKOps(system, backend, self._memo)
        else:
            self.ops = ExplicitCTLKOps(system, backend)
        self.backend = self.ops.backend

    # -- public API ------------------------------------------------------------------

    def extension_node(self, formula):
        """The set of reachable states satisfying ``formula`` in the ops'
        representation: a frozenset of states, or a BDD node id.

        Extensions are memoised per formula node across all queries —
        structural equality of formulas makes the memo a DAG cache, so a
        subformula shared between separate queries is computed once (see
        :meth:`cache_info`)."""
        cached = self._memo.get(formula)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        self._prefetch_epistemic(formula)
        # A top-level epistemic formula is already memoised by the prefetch;
        # recomputing it would pay the modal image a second time.
        result = self._memo.get(formula)
        if result is None:
            result = self._memo[formula] = self._evaluate(formula)
        return result

    def extension(self, formula):
        """Return the frozenset of reachable states satisfying ``formula``
        (on a symbolic system this enumerates the extension)."""
        return self.ops.states_of(self.extension_node(formula))

    def cache_info(self):
        """Observability of the per-formula extension memo, keyed by the
        canonical schema of :mod:`repro.obs.registry`: ``memo.formulas``
        counts entries, ``cache.hits``/``cache.misses`` the
        :meth:`extension_node` lookups (recursive subformula lookups
        included — shared subformulas show up as hits)."""
        return {
            "memo.formulas": len(self._memo),
            "cache.hits": self._hits,
            "cache.misses": self._misses,
        }

    def holds(self, state, formula):
        """Return ``True`` iff ``formula`` holds at the reachable ``state``."""
        ops = self.ops
        if not ops.contains(ops.universe, state):
            raise ModelError(f"state {state!r} is not reachable in the checked system")
        return ops.contains(self.extension_node(formula), state)

    def valid(self, formula):
        """Return ``True`` iff ``formula`` holds at every initial state."""
        extension = self.extension_node(formula)
        return self.ops.diff(self.ops.initial(), extension) == self.ops.empty

    def reachable(self, formula):
        """Return ``True`` iff some reachable state satisfies ``formula``."""
        return self.extension_node(formula) != self.ops.empty

    def witness_state(self, formula):
        """Return some reachable state satisfying ``formula`` (or ``None``)."""
        return self.ops.witness(self.extension_node(formula))

    # -- evaluation ------------------------------------------------------------------

    def _evaluate(self, formula):
        """One formula node over the ops.  The children's extensions are
        memoised first, so what follows is set algebra plus fixed-point
        loops whose arguments are the only unmemoised values alive — a sift
        at a loop's safe point roots all of them.  Epistemic nodes never get
        here: :meth:`_prefetch_epistemic` memoises all of them first."""
        ops = self.ops
        universe = ops.universe
        kids = [self.extension_node(child) for child in formula.children()]
        if isinstance(formula, TrueFormula):
            return universe
        if isinstance(formula, FalseFormula):
            return ops.empty
        if isinstance(formula, Prop):
            return ops.prop(formula.name)
        if isinstance(formula, Not):
            return ops.diff(universe, kids[0])
        if isinstance(formula, And):
            return reduce(ops.and_, kids, universe)
        if isinstance(formula, Or):
            return reduce(ops.or_, kids, ops.empty)
        if isinstance(formula, Implies):
            return ops.or_(ops.diff(universe, kids[0]), kids[1])
        if isinstance(formula, Iff):
            return ops.diff(universe, ops.xor(*kids))
        if isinstance(formula, EX):
            return ops.pre_exists(kids[0])
        if isinstance(formula, AX):
            # AX phi == not EX not phi (exact: the relation is totalised)
            return ops.diff(universe, ops.pre_exists(ops.diff(universe, kids[0])))
        if isinstance(formula, EF):
            return ops.eu(universe, kids[0])
        if isinstance(formula, AG):
            # AG phi == not EF not phi
            return ops.diff(universe, ops.eu(universe, ops.diff(universe, kids[0])))
        if isinstance(formula, EU):
            return ops.eu(*kids)
        if isinstance(formula, EG):
            return ops.eg(kids[0])
        if isinstance(formula, AF):
            # AF phi == not EG not phi
            return ops.diff(universe, ops.eg(ops.diff(universe, kids[0])))
        if isinstance(formula, AU):
            # A[phi U psi] == not (E[!psi U (!phi & !psi)] | EG !psi), with the
            # EG disjunct folded into the until target (E[a U b] | EG a ==
            # E[a U (b | EG a)]) so the first loop's result is an argument of
            # the second instead of an unrooted value alive across it.
            left, right = kids
            not_right = ops.diff(universe, right)
            bad = ops.or_(ops.eg(not_right), ops.diff(not_right, left))
            return ops.diff(universe, ops.eu(not_right, bad))
        raise FormulaError(f"cannot model check unknown formula node {formula!r}")

    def _prefetch_epistemic(self, formula):
        """Resolve the uncached epistemic nodes of the formula DAG in batched
        backend calls, innermost modalities first.

        Each pass collects the epistemic nodes whose (uncached part of the)
        operand contains no further epistemic node — their operands, temporal
        or not, can be evaluated without any epistemic dispatch — groups them
        by ``(operator, agent/group)``, and applies each group through one
        ``*_many`` backend call.  Results land in the memo, so the
        subsequent :meth:`_evaluate` walk finds every epistemic extension
        precomputed."""
        ops = self.ops
        is_cached = self._memo.__contains__
        while True:
            groups = {}
            collect_ready_epistemic(formula, is_cached, groups, {})
            if not groups:
                return
            structure = self.system.structure
            for nodes in groups.values():
                inners = [
                    ops.to_world_set(structure, self.extension_node(node.operand))
                    for node in nodes
                ]
                results = apply_epistemic_many(self.backend, structure, nodes, inners)
                for node, result in zip(nodes, results):
                    self._memo[node] = ops.from_world_set(structure, result)


class ExplicitCTLKOps:
    """Explicit state sets for :class:`CTLKModelChecker`: every extension is
    a frozenset of reachable states, and the transition relation is kept as
    successor/predecessor maps totalised with deadlock self-loops."""

    empty = frozenset()
    and_ = staticmethod(operator.and_)
    or_ = staticmethod(operator.or_)
    diff = staticmethod(operator.sub)
    xor = staticmethod(operator.xor)

    def __init__(self, system, backend=None):
        self.system = system
        self.backend = resolve_backend(backend)
        self._states = list(system.states)
        self.universe = frozenset(self._states)
        relation = system.transition_system.transition_relation()
        successors = {state: set() for state in self._states}
        predecessors = {state: set() for state in self._states}
        for source, target in relation:
            successors[source].add(target)
            predecessors[target].add(source)
        # Totalise: deadlock states loop to themselves.
        for state in self._states:
            if not successors[state]:
                successors[state].add(state)
                predecessors[state].add(state)
        self.successors = successors
        self.predecessors = predecessors

    def initial(self):
        return frozenset(self.system.initial_states)

    def prop(self, name):
        labelling = self.system.context.labelling
        return frozenset(s for s in self._states if name in labelling(s))

    @staticmethod
    def contains(states, state):
        return state in states

    @staticmethod
    def states_of(states):
        return states

    def witness(self, states):
        return next((s for s in self._states if s in states), None)

    def to_world_set(self, structure, states):
        return self.backend.from_worlds(structure, states)

    def from_world_set(self, structure, world_set):
        # Restrict to the checker's states: a duck-typed system may expose a
        # knowledge structure over more worlds than the checked state space.
        return self.backend.to_frozenset(structure, world_set) & self.universe

    def pre_exists(self, target):
        """States with some successor in ``target``."""
        successors = self.successors
        return frozenset(s for s in self._states if not successors[s].isdisjoint(target))

    def eu(self, hold, target):
        """Standard backward fixed point for ``E[hold U target]``."""
        result = set(target)
        frontier = list(target)
        processed = 0
        while frontier:
            processed += 1
            if _res.ACTIVE and processed % 256 == 0:
                # Deadline/cancellation checks are batched: a perf_counter
                # read per popped state would dominate this linear loop.
                bud = _res.current_budget()
                if bud is not None:
                    bud.tick("fixpoint.iter")
            state = frontier.pop()
            for predecessor in self.predecessors[state]:
                if predecessor in result:
                    continue
                if predecessor in hold or predecessor in target:
                    result.add(predecessor)
                    frontier.append(predecessor)
        if _obs.ENABLED:
            _obs.event(
                "fixpoint",
                loop="ctlk.eu",
                backend="explicit",
                iterations=processed,
                result=len(result),
            )
        return frozenset(result)

    def eg(self, hold):
        """Greatest fixed point for ``EG hold`` by successor-count deletion.

        Each candidate state tracks how many of its successors are still in
        the candidate set; a state whose count hits zero cannot start an
        infinite ``hold`` path and is deleted, decrementing the counts of its
        predecessors inside the set.  Every edge is examined at most twice
        (once to initialise the counts, at most once on deletion), so the
        fixed point is linear in the transition relation.
        """
        result = set(hold)
        counts = {}
        dead = []
        for state in result:
            count = sum(1 for successor in self.successors[state] if successor in result)
            counts[state] = count
            if not count:
                dead.append(state)
        deleted = 0
        while dead:
            deleted += 1
            if _res.ACTIVE and deleted % 256 == 0:
                bud = _res.current_budget()
                if bud is not None:
                    bud.tick("fixpoint.iter")
            state = dead.pop()
            result.discard(state)
            for predecessor in self.predecessors[state]:
                if predecessor in result:
                    counts[predecessor] -= 1
                    if not counts[predecessor]:
                        dead.append(predecessor)
        if _obs.ENABLED:
            _obs.event(
                "fixpoint",
                loop="ctlk.eg",
                backend="explicit",
                iterations=deleted,
                result=len(result),
            )
        return frozenset(result)


def check_valid(system, formula):
    """Return ``True`` iff ``formula`` holds at every initial state of the
    interpreted system."""
    return CTLKModelChecker(system).valid(formula)


def check_reachable(system, formula):
    """Return ``True`` iff some reachable state of the interpreted system
    satisfies ``formula``."""
    return CTLKModelChecker(system).reachable(formula)
