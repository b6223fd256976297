"""Symbolic CTLK state sets — BDD pre-image fixed points end-to-end.

:class:`SymbolicCTLKOps` is the representation
:class:`repro.temporal.ctlk.CTLKModelChecker` runs on when the checked
system is a :class:`repro.interpretation.symbolic.SymbolicSystem` — the
output of :func:`~repro.interpretation.iteration.construct_by_rounds` on a
symbolic model.  No :class:`~repro.modeling.state_space.State` is ever
materialised:

* every extension is a world-set BDD over the system's reachable set;
* ``EX φ`` is one pre-image ``∃x'. R(x, x') ∧ φ(x')`` — an ``and_exists``
  (relational product) through the system's compiled, totalised transition
  relation (:meth:`SymbolicSystem.transition_node`);
* ``E[φ U ψ]`` and ``EG φ`` are the standard least/greatest fixed points of
  that pre-image, converging by node-id comparison (canonicity makes set
  equality O(1));
* epistemic subformulas go through the ``"bdd"`` backend's relational
  products over the system's :class:`SymbolicStructure`, with world sets
  wrapped and unwrapped as :class:`SymbolicWorldSet` values.

State objects appear only at the lazy API boundary (``extension``,
``witness_state``, ``holds`` membership tests).  The ops cooperate with
dynamic variable reordering: between fixed-point iterations they offer the
manager a safe point, rooting the transition relation, the reachable set,
every memoised extension of the checker, and the current iterate.
"""

from repro import obs as _obs
from repro import resilience as _res
from repro.engine import resolve_backend
from repro.symbolic.backend_bdd import SymbolicWorldSet
from repro.symbolic.bdd import FALSE
from repro.util.errors import EngineError

__all__ = ["SymbolicCTLKOps"]


class SymbolicCTLKOps:
    """BDD state sets for :class:`repro.temporal.ctlk.CTLKModelChecker`.

    Only the ``"bdd"`` backend makes sense here (every other backend would
    have to enumerate the reachable set); passing a different one raises
    :class:`~repro.util.errors.EngineError`.  ``memo`` is the checker's
    extension memo, whose nodes every safe point roots.
    """

    empty = FALSE

    def __init__(self, system, backend, memo):
        resolved = resolve_backend("bdd" if backend is None else backend)
        if resolved.name != "bdd":
            raise EngineError(
                f"a symbolic system can only be checked through the 'bdd' "
                f"backend, not {resolved.name!r}"
            )
        self.backend = resolved
        self.system = system
        self.model = system.model
        self.encoding = self.model.encoding
        bdd = self.bdd = self.encoding.bdd
        self.universe = system.states_node
        self.transition = system.transition_node()
        self._memo = memo
        self.and_, self.or_, self.diff, self.xor = bdd.and_, bdd.or_, bdd.diff, bdd.xor

    def initial(self):
        return self.system.initial_node

    def prop(self, name):
        return self.bdd.and_(self.model.atom_node(name), self.universe)

    def contains(self, node, state):
        return self.encoding.evaluate_node(node, state)

    def states_of(self, node):
        return frozenset(self.encoding.iter_states(node))

    def witness(self, node):
        return next(self.encoding.iter_states(node), None)

    @staticmethod
    def to_world_set(structure, node):
        return SymbolicWorldSet(structure.encoding, node)

    @staticmethod
    def from_world_set(structure, world_set):
        return world_set.node

    # -- fixed points ------------------------------------------------------------------

    def pre_exists(self, target):
        """States with some successor in ``target``: the relational product
        ``∃x'. R(x, x') ∧ target(x')``, one ``and_exists``."""
        return self.bdd.and_exists(
            self.transition, self.encoding.prime(target), self.encoding.primed_levels
        )

    def eu(self, hold, target):
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
            expanded = bdd.or_(current, bdd.and_(hold, self.pre_exists(current)))
            if expanded == current:
                if _obs.ENABLED:
                    _obs.counter("fixpoint.iterations", iterations)
                    _obs.event(
                        "fixpoint", loop="ctlk.eu", backend="bdd", iterations=iterations
                    )
                return current
            current = expanded

    def eg(self, hold):
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
            contracted = bdd.and_(current, self.pre_exists(current))
            if contracted == current:
                if _obs.ENABLED:
                    _obs.counter("fixpoint.iterations", iterations)
                    _obs.event(
                        "fixpoint", loop="ctlk.eg", backend="bdd", iterations=iterations
                    )
                return current
            current = contracted

    def _safe_point(self, in_flight, iterations):
        """Between fixed-point iterations the manager may sift — and an
        installed :class:`repro.resilience.Budget` gets its check: root the
        relation, the reachable set, every memoised extension, and the
        iterates the loop holds."""
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
        roots = [self.transition, self.universe]
        roots.extend(self._memo.values())
        roots.extend(in_flight)
        return roots
