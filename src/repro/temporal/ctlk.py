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
"""

from repro import obs as _obs
from repro import resilience as _res
from repro.engine import (
    apply_epistemic,
    apply_epistemic_many,
    collect_ready_epistemic,
    resolve_backend,
)
from repro.logic.formula import (
    And,
    CommonKnows,
    DistributedKnows,
    EveryoneKnows,
    FalseFormula,
    Formula,
    Iff,
    Implies,
    Knows,
    Not,
    Or,
    Possible,
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
    """Explicit-state CTLK model checking over an interpreted system.

    Temporal operators are computed by the standard fixed-point algorithms
    over the (totalised) transition relation; epistemic operators are
    delegated to the knowledge structure of the system through a world-set
    backend that is resolved *once*, at construction (``backend=`` accepts a
    name or a :class:`repro.engine.SetBackend`; the default is the process
    default **at construction time**).  Pinning the backend keeps a
    long-lived checker answering through one representation even when the
    ambient default changes between queries (e.g. a
    :func:`repro.engine.use_backend` context exiting mid-lifetime).

    Before a formula is evaluated, the uncached epistemic nodes of its DAG
    are resolved in *batches*: nodes are grouped by ``(operator,
    agent/group)`` (innermost modalities first, so operands — possibly
    temporal — are always evaluable) and each group goes through one backend
    ``*_many`` call, one stacked pass on the matrix backend.

    Constructing a checker on a *symbolic* system (one flagged
    ``is_symbolic_system`` — the output of
    :func:`repro.interpretation.iteration.construct_by_rounds` on a
    symbolic model)
    transparently returns a
    :class:`repro.temporal.symbolic.SymbolicCTLKModelChecker` instead, which
    runs the same fixed points as BDD pre-images without enumerating a
    single state.
    """

    def __new__(cls, system, backend=None):
        if cls is CTLKModelChecker and getattr(system, "is_symbolic_system", False):
            # Lazy import: the explicit checker must not drag in the symbolic
            # stack (and the returned object, not being an instance of this
            # class, skips __init__ below).
            from repro.temporal.symbolic import _symbolic_checker

            return _symbolic_checker(system, backend)
        return super().__new__(cls)

    def __init__(self, system, backend=None):
        self.system = system
        self.backend = resolve_backend(backend)
        self._states = list(system.states)
        self._state_set = set(self._states)
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
        self._successors = successors
        self._predecessors = predecessors
        self._cache = {}
        self._hits = 0
        self._misses = 0

    # -- public API ------------------------------------------------------------------

    def extension(self, formula):
        """Return the set of reachable states satisfying ``formula``.

        Extensions are memoised per formula node across ``extension``/
        ``holds``/``valid`` calls — structural equality of formulas makes
        the memo a DAG cache, so a subformula shared between separate
        queries is computed once (see :meth:`cache_info`)."""
        if formula not in self._cache:
            self._misses += 1
            self._prefetch_epistemic(formula)
            # A top-level epistemic formula is already cached by the prefetch;
            # recomputing it would pay the modal image a second time.
            if formula not in self._cache:
                self._cache[formula] = frozenset(self._evaluate(formula))
        else:
            self._hits += 1
        return self._cache[formula]

    def cache_info(self):
        """Observability of the per-formula extension memo, keyed by the
        canonical schema of :mod:`repro.obs.registry`: ``memo.formulas``
        counts entries, ``cache.hits``/``cache.misses`` the
        :meth:`extension` lookups (recursive subformula lookups included —
        shared subformulas show up as hits)."""
        return {
            "memo.formulas": len(self._cache),
            "cache.hits": self._hits,
            "cache.misses": self._misses,
        }

    def holds(self, state, formula):
        """Return ``True`` iff ``formula`` holds at the reachable ``state``."""
        if state not in self._state_set:
            raise ModelError(f"state {state!r} is not reachable in the checked system")
        return state in self.extension(formula)

    def valid(self, formula):
        """Return ``True`` iff ``formula`` holds at every initial state."""
        ext = self.extension(formula)
        return all(state in ext for state in self.system.initial_states)

    def reachable(self, formula):
        """Return ``True`` iff some reachable state satisfies ``formula``."""
        return bool(self.extension(formula))

    def witness_state(self, formula):
        """Return some reachable state satisfying ``formula`` (or ``None``)."""
        ext = self.extension(formula)
        for state in self._states:
            if state in ext:
                return state
        return None

    # -- evaluation ------------------------------------------------------------------

    def _evaluate(self, formula):
        states = set(self._states)
        if isinstance(formula, TrueFormula):
            return states
        if isinstance(formula, FalseFormula):
            return set()
        if isinstance(formula, Prop):
            return {s for s in states if formula.name in self.system.context.labelling(s)}
        if isinstance(formula, Not):
            return states - self.extension(formula.operand)
        if isinstance(formula, And):
            result = set(states)
            for operand in formula.operands:
                result &= self.extension(operand)
            return result
        if isinstance(formula, Or):
            result = set()
            for operand in formula.operands:
                result |= self.extension(operand)
            return result
        if isinstance(formula, Implies):
            return (states - self.extension(formula.antecedent)) | self.extension(
                formula.consequent
            )
        if isinstance(formula, Iff):
            left = self.extension(formula.left)
            right = self.extension(formula.right)
            return (left & right) | ((states - left) & (states - right))
        if isinstance(
            formula, (Knows, Possible, EveryoneKnows, CommonKnows, DistributedKnows)
        ):
            return self._evaluate_epistemic(formula)
        if isinstance(formula, EX):
            return self._pre_exists(self.extension(formula.operand))
        if isinstance(formula, EF):
            return self._least_fixpoint_eu(set(states), self.extension(formula.operand))
        if isinstance(formula, EU):
            return self._least_fixpoint_eu(
                self.extension(formula.left), self.extension(formula.right)
            )
        if isinstance(formula, EG):
            return self._greatest_fixpoint_eg(self.extension(formula.operand))
        if isinstance(formula, AX):
            target = self.extension(formula.operand)
            return {s for s in states if self._successors[s] <= target}
        if isinstance(formula, AF):
            # AF phi == not EG not phi
            return states - self._greatest_fixpoint_eg(states - self.extension(formula.operand))
        if isinstance(formula, AG):
            # AG phi == not EF not phi
            return states - self._least_fixpoint_eu(
                set(states), states - self.extension(formula.operand)
            )
        if isinstance(formula, AU):
            # A[phi U psi] == not (E[!psi U (!phi & !psi)] | EG !psi)
            left = self.extension(formula.left)
            right = self.extension(formula.right)
            not_right = states - right
            bad_until = self._least_fixpoint_eu(not_right, not_right - left)
            bad_globally = self._greatest_fixpoint_eg(not_right)
            return states - (bad_until | bad_globally)
        raise FormulaError(f"cannot model check unknown formula node {formula!r}")

    def _evaluate_epistemic(self, formula):
        """Evaluate an epistemic operator whose operand may itself be a CTLK
        formula: the operand's extension is computed first and the knowledge
        relation of the system's structure is applied to it through the
        checker's pinned world-set backend (the structure's worlds are
        exactly the reachable states, so checker state-sets convert
        losslessly).  This is the scalar path; epistemic nodes reached
        through :meth:`extension` are normally resolved in batches by
        :meth:`_prefetch_epistemic` before evaluation gets here."""
        structure = self.system.structure
        backend = self.backend
        inner = backend.from_worlds(structure, self.extension(formula.operand))
        result = apply_epistemic(backend, structure, formula, inner)
        # Restrict to the checker's states: a duck-typed system may expose a
        # knowledge structure over more worlds than the checked state space.
        return backend.to_frozenset(structure, result) & self._state_set

    def _prefetch_epistemic(self, formula):
        """Resolve the uncached epistemic nodes of the formula DAG in batched
        backend calls, innermost modalities first.

        Each pass collects the epistemic nodes whose (uncached part of the)
        operand contains no further epistemic node — their operands, temporal
        or not, can be evaluated without any epistemic dispatch — groups them
        by ``(operator, agent/group)``, and applies each group through one
        ``*_many`` backend call.  Results land in the checker cache, so the
        subsequent :meth:`_evaluate` walk finds every epistemic extension
        precomputed."""
        structure = self.system.structure
        backend = self.backend
        is_cached = self._cache.__contains__
        while True:
            groups = {}
            collect_ready_epistemic(formula, is_cached, groups, {})
            if not groups:
                return
            for nodes in groups.values():
                inners = [
                    backend.from_worlds(structure, self.extension(node.operand))
                    for node in nodes
                ]
                results = apply_epistemic_many(backend, structure, nodes, inners)
                for node, result in zip(nodes, results):
                    self._cache[node] = (
                        backend.to_frozenset(structure, result) & self._state_set
                    )

    # -- fixed points -------------------------------------------------------------------

    def _pre_exists(self, target):
        """States with some successor in ``target``."""
        return {s for s in self._states if self._successors[s] & target}

    def _least_fixpoint_eu(self, hold, target):
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
            for predecessor in self._predecessors[state]:
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
        return result

    def _greatest_fixpoint_eg(self, hold):
        """Greatest fixed point for ``EG hold`` by successor-count deletion.

        Each candidate state tracks how many of its successors are still in
        the candidate set; a state whose count hits zero cannot start an
        infinite ``hold`` path and is deleted, decrementing the counts of its
        predecessors inside the set.  Every edge is examined at most twice
        (once to initialise the counts, at most once on deletion), so the
        fixed point is linear in the transition relation — the previous
        implementation rescanned the whole candidate set until stable, which
        is quadratic on chain-shaped systems.
        """
        result = set(hold)
        counts = {}
        dead = []
        for state in result:
            count = sum(1 for successor in self._successors[state] if successor in result)
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
            for predecessor in self._predecessors[state]:
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
        return result


def check_valid(system, formula):
    """Return ``True`` iff ``formula`` holds at every initial state of the
    interpreted system."""
    return CTLKModelChecker(system).valid(formula)


def check_reachable(system, formula):
    """Return ``True`` iff some reachable state of the interpreted system
    satisfies ``formula``."""
    return CTLKModelChecker(system).reachable(formula)
