"""Symbolic CTLK model checking — BDD pre-image fixed points end-to-end.

:class:`SymbolicCTLKModelChecker` is the enumeration-free twin of
:class:`repro.temporal.ctlk.CTLKModelChecker`: it checks the same CTLK
language over a :class:`repro.interpretation.symbolic.SymbolicSystem` — the
output of :func:`~repro.interpretation.iteration.construct_by_rounds` on a
symbolic model — without ever materialising a :class:`~repro.modeling.state_space.State`:

* every extension is a world-set BDD over the system's reachable set;
* ``EX φ`` is one pre-image ``∃x'. R(x, x') ∧ φ(x')`` — an ``and_exists``
  (relational product) through the system's compiled, totalised transition
  relation (:meth:`SymbolicSystem.transition_node`);
* ``E[φ U ψ]`` and ``EG φ`` are the standard least/greatest fixed points of
  that pre-image, converging by node-id comparison (canonicity makes set
  equality O(1)); the universal operators are their complements relative to
  the reachable set;
* epistemic subformulas dispatch through the existing ``"bdd"`` backend's
  relational products over the system's :class:`SymbolicStructure` — the
  same batched ``*_many`` prefetch the explicit checker uses, so a formula
  DAG's epistemic nodes are grouped by (operator, agent/group) and resolved
  innermost-first.

State objects appear only at the lazy API boundary (``extension``,
``witness_state``, ``holds`` membership tests).  The checker cooperates with
dynamic variable reordering: between fixed-point iterations it offers the
manager a safe point, rooting the transition relation, all cached
extensions, and the current iterate.

Instances are normally obtained transparently: ``CTLKModelChecker(system)``
returns a :class:`SymbolicCTLKModelChecker` whenever ``system`` is symbolic
(``system.is_symbolic_system``), so :func:`repro.temporal.ctlk.check_valid`
and :func:`~repro.temporal.ctlk.check_reachable` work unchanged on systems
no explicit checker could hold in memory.
"""

from repro import obs as _obs
from repro import resilience as _res
from repro.engine import (
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
    Iff,
    Implies,
    Knows,
    Not,
    Or,
    Possible,
    Prop,
    TrueFormula,
)
from repro.symbolic.backend_bdd import SymbolicWorldSet
from repro.symbolic.bdd import FALSE
from repro.temporal.ctlk import AF, AG, AU, AX, EF, EG, EU, EX
from repro.util.errors import EngineError, FormulaError, ModelError

__all__ = ["SymbolicCTLKModelChecker"]


class SymbolicCTLKModelChecker:
    """CTLK model checking over a symbolic system, all sets as BDDs.

    Accepts the ``backend=`` argument of the explicit checker for signature
    compatibility, but only the ``"bdd"`` backend makes sense here (every
    other backend would have to enumerate the reachable set); passing a
    different one raises :class:`~repro.util.errors.EngineError`.
    """

    def __init__(self, system, backend=None):
        resolved = resolve_backend("bdd" if backend is None else backend)
        if resolved.name != "bdd":
            raise EngineError(
                f"a symbolic system can only be checked through the 'bdd' "
                f"backend, not {resolved.name!r}"
            )
        self.system = system
        self.backend = resolved
        self.model = system.model
        self.encoding = self.model.encoding
        self.bdd = self.encoding.bdd
        self.states_node = system.states_node
        self.transition = system.transition_node()
        self._structure = system.structure
        self._ws_encoding = self._structure.encoding
        self._cache = {}
        self._hits = 0
        self._misses = 0

    # -- public API --------------------------------------------------------------------

    def extension_node(self, formula):
        """The set of reachable states satisfying ``formula``, as a BDD."""
        cached = self._cache.get(formula)
        if cached is not None or formula in self._cache:
            self._hits += 1
            return cached
        self._misses += 1
        self._prefetch_epistemic(formula)
        if formula not in self._cache:
            self._cache[formula] = self._evaluate(formula)
        return self._cache[formula]

    def extension(self, formula):
        """The extension as a frozenset of states (enumerating boundary)."""
        return frozenset(self.encoding.iter_states(self.extension_node(formula)))

    def holds(self, state, formula):
        """Return ``True`` iff ``formula`` holds at the reachable ``state``."""
        if not self.encoding.evaluate_node(self.states_node, state):
            raise ModelError(f"state {state!r} is not reachable in the checked system")
        return self.encoding.evaluate_node(self.extension_node(formula), state)

    def valid(self, formula):
        """Return ``True`` iff ``formula`` holds at every initial state."""
        initial = self.bdd.and_(self.model.initial, self.states_node)
        return self.bdd.diff(initial, self.extension_node(formula)) == FALSE

    def reachable(self, formula):
        """Return ``True`` iff some reachable state satisfies ``formula``."""
        return self.extension_node(formula) != FALSE

    def witness_state(self, formula):
        """Return some reachable state satisfying ``formula`` (or ``None``)."""
        for state in self.encoding.iter_states(self.extension_node(formula)):
            return state
        return None

    def cache_info(self):
        """Observability of the per-formula extension memo, keyed by the
        canonical schema of :mod:`repro.obs.registry`: ``memo.formulas``
        counts entries, ``cache.hits``/``cache.misses`` the
        :meth:`extension_node` lookups (recursive subformula lookups
        included — shared subformulas show up as hits)."""
        return {
            "memo.formulas": len(self._cache),
            "cache.hits": self._hits,
            "cache.misses": self._misses,
        }

    # -- evaluation --------------------------------------------------------------------

    def _evaluate(self, formula):
        bdd = self.bdd
        states = self.states_node
        if isinstance(formula, TrueFormula):
            return states
        if isinstance(formula, FalseFormula):
            return FALSE
        if isinstance(formula, Prop):
            return bdd.and_(self.model.atom_node(formula.name), states)
        if isinstance(formula, Not):
            return bdd.diff(states, self.extension_node(formula.operand))
        if isinstance(formula, And):
            result = states
            for operand in formula.operands:
                result = bdd.and_(result, self.extension_node(operand))
            return result
        if isinstance(formula, Or):
            result = FALSE
            for operand in formula.operands:
                result = bdd.or_(result, self.extension_node(operand))
            return result
        if isinstance(formula, Implies):
            return bdd.or_(
                bdd.diff(states, self.extension_node(formula.antecedent)),
                self.extension_node(formula.consequent),
            )
        if isinstance(formula, Iff):
            left = self.extension_node(formula.left)
            right = self.extension_node(formula.right)
            return bdd.diff(states, bdd.xor(left, right))
        if isinstance(
            formula, (Knows, Possible, EveryoneKnows, CommonKnows, DistributedKnows)
        ):
            return self._evaluate_epistemic(formula)
        if isinstance(formula, EX):
            return self._pre_exists(self.extension_node(formula.operand))
        if isinstance(formula, EF):
            return self._least_fixpoint_eu(states, self.extension_node(formula.operand))
        if isinstance(formula, EU):
            return self._least_fixpoint_eu(
                self.extension_node(formula.left), self.extension_node(formula.right)
            )
        if isinstance(formula, EG):
            return self._greatest_fixpoint_eg(self.extension_node(formula.operand))
        if isinstance(formula, AX):
            # AX φ == ¬EX ¬φ (the relation is total, so this is exact).
            return bdd.diff(
                states,
                self._pre_exists(bdd.diff(states, self.extension_node(formula.operand))),
            )
        if isinstance(formula, AF):
            # AF φ == ¬EG ¬φ
            return bdd.diff(
                states,
                self._greatest_fixpoint_eg(
                    bdd.diff(states, self.extension_node(formula.operand))
                ),
            )
        if isinstance(formula, AG):
            # AG φ == ¬EF ¬φ
            return bdd.diff(
                states,
                self._least_fixpoint_eu(
                    states, bdd.diff(states, self.extension_node(formula.operand))
                ),
            )
        if isinstance(formula, AU):
            # A[φ U ψ] == ¬(E[¬ψ U (¬φ ∧ ¬ψ)] ∨ EG ¬ψ)
            left = self.extension_node(formula.left)
            right = self.extension_node(formula.right)
            not_right = bdd.diff(states, right)
            bad_until = self._least_fixpoint_eu(not_right, bdd.diff(not_right, left))
            bad_globally = self._greatest_fixpoint_eg(not_right)
            return bdd.diff(states, bdd.or_(bad_until, bad_globally))
        raise FormulaError(f"cannot model check unknown formula node {formula!r}")

    def _evaluate_epistemic(self, formula):
        """Scalar epistemic dispatch (the prefetch normally resolves these in
        batches first): the operand's extension — possibly temporal — wraps
        as a backend world-set and goes through one relational product."""
        inner = SymbolicWorldSet(self._ws_encoding, self.extension_node(formula.operand))
        results = apply_epistemic_many(self.backend, self._structure, [formula], [inner])
        return results[0].node

    def _prefetch_epistemic(self, formula):
        """Resolve the uncached epistemic nodes of the formula DAG in batched
        backend calls, innermost modalities first — the exact strategy of the
        explicit checker, but with world sets staying BDDs throughout."""
        is_cached = self._cache.__contains__
        while True:
            groups = {}
            collect_ready_epistemic(formula, is_cached, groups, {})
            if not groups:
                return
            for nodes in groups.values():
                inners = [
                    SymbolicWorldSet(self._ws_encoding, self.extension_node(node.operand))
                    for node in nodes
                ]
                results = apply_epistemic_many(self.backend, self._structure, nodes, inners)
                for node, result in zip(nodes, results):
                    self._cache[node] = result.node

    # -- fixed points ------------------------------------------------------------------

    def _pre_exists(self, target):
        """States with some successor in ``target``: the relational product
        ``∃x'. R(x, x') ∧ target(x')``, one ``and_exists``."""
        return self.bdd.and_exists(
            self.transition, self.encoding.prime(target), self.encoding.primed_levels
        )

    def _least_fixpoint_eu(self, hold, target):
        """Backward least fixed point ``Z = target ∨ (hold ∧ EX Z)``."""
        bdd = self.bdd
        current = target
        iterations = 0
        while True:
            iterations += 1
            if _obs.ENABLED:
                _obs.event(
                    "fixpoint.iter",
                    loop="ctlk.eu",
                    backend="bdd",
                    iteration=iterations,
                    node=current,
                )
            self._safe_point((hold, target, current), iterations)
            expanded = bdd.or_(current, bdd.and_(hold, self._pre_exists(current)))
            if expanded == current:
                if _obs.ENABLED:
                    _obs.counter("fixpoint.iterations", iterations)
                    _obs.event(
                        "fixpoint", loop="ctlk.eu", backend="bdd", iterations=iterations
                    )
                return current
            current = expanded

    def _greatest_fixpoint_eg(self, hold):
        """Greatest fixed point ``Z = hold ∧ EX Z`` (states that can stay in
        ``hold`` forever — the relation is total, so paths never strand)."""
        bdd = self.bdd
        current = hold
        iterations = 0
        while True:
            iterations += 1
            if _obs.ENABLED:
                _obs.event(
                    "fixpoint.iter",
                    loop="ctlk.eg",
                    backend="bdd",
                    iteration=iterations,
                    node=current,
                )
            self._safe_point((hold, current), iterations)
            contracted = bdd.and_(current, self._pre_exists(current))
            if contracted == current:
                if _obs.ENABLED:
                    _obs.counter("fixpoint.iterations", iterations)
                    _obs.event(
                        "fixpoint", loop="ctlk.eg", backend="bdd", iterations=iterations
                    )
                return current
            current = contracted

    def _safe_point(self, in_flight, iterations=None):
        """Between fixed-point iterations the manager may sift — and an
        installed :class:`repro.resilience.Budget` gets its check: root the
        relation, every cached extension, and the iterate the loop holds."""
        if _res.ACTIVE:
            bud = _res.current_budget()
            if bud is not None:
                bud.tick(
                    "fixpoint.iter",
                    iterations=iterations,
                    manager=self.bdd,
                    roots=lambda: self._reorder_roots(in_flight),
                    groups=self.encoding.reorder_groups,
                    partial=lambda: _res.PartialProgress(
                        "ctlk.fixpoint", iteration=iterations, node=in_flight[-1]
                    ),
                )
        if not self.bdd.reorder_pending:
            return
        self.model.maybe_reorder(self._reorder_roots(in_flight))

    def _reorder_roots(self, in_flight):
        roots = [self.transition, self.states_node]
        roots.extend(node for node in self._cache.values() if node is not None)
        roots.extend(in_flight)
        return roots


def _symbolic_checker(system, backend=None):
    """Factory used by :class:`repro.temporal.ctlk.CTLKModelChecker`'s
    dispatch (kept separate so the explicit module never imports the
    symbolic stack unless a symbolic system actually shows up)."""
    return SymbolicCTLKModelChecker(system, backend)
