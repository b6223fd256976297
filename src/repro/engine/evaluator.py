"""A persistent, backend-parametric evaluator for epistemic formulas.

The original ``repro.logic.semantics.extension`` rebuilt its subformula
cache on every call; the :class:`Evaluator` keeps that cache alive for the
lifetime of the (immutable) structure, so repeated ``holds``/``extension``
queries — the inner loop of knowledge-based-program interpretation, where
the same guard is evaluated at every local state of every agent — pay for
each distinct subformula exactly once.

Because :class:`repro.kripke.structure.EpistemicStructure` is immutable,
the cache never needs invalidation; :func:`evaluator_for` memoises one
evaluator per (structure, backend) pair in ``structure.engine_cache``.

:meth:`Evaluator.extensions` is the batched entry point: it hash-conses the
shared subformulas of many formulas once, groups their epistemic nodes by
``(operator, agent/group)`` and dispatches each group through a single
backend ``*_many`` call.
"""

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
from repro import obs as _obs
from repro import resilience as _res
from repro.engine.backend import resolve_backend
from repro.util.errors import FormulaError, ModelError


class Evaluator:
    """Evaluates formulas over one structure through one set backend.

    Parameters
    ----------
    structure:
        The :class:`repro.kripke.structure.EpistemicStructure` to evaluate
        over.
    backend:
        A :class:`repro.engine.backend.SetBackend`, a backend name, or
        ``None`` for the process default.

    The evaluator memoises the extension of every subformula it ever sees
    (in backend representation) in ``self.cache``; the cache is exposed so
    callers can inspect or :meth:`clear_cache` it explicitly.
    """

    __slots__ = (
        "structure",
        "backend",
        "cache",
        "_frozen",
        "_hits",
        "_misses",
        "_cache_clears",
        "_formulas_high_water",
    )

    def __init__(self, structure, backend=None):
        self.structure = structure
        self.backend = resolve_backend(backend)
        self.cache = {}
        self._frozen = {}
        self._hits = 0
        self._misses = 0
        self._cache_clears = 0
        self._formulas_high_water = 0

    # -- public API --------------------------------------------------------------

    def holds(self, world, formula):
        """Return ``True`` iff ``structure, world |= formula``."""
        if world not in self.structure:
            raise ModelError(f"world {world!r} does not belong to the structure")
        return self.backend.contains(self.structure, self.extension_ws(formula), world)

    def extension(self, formula):
        """Return the extension of ``formula`` as a frozenset of worlds."""
        result = self._frozen.get(formula)
        if result is None:
            result = self.backend.to_frozenset(self.structure, self.extension_ws(formula))
            self._frozen[formula] = result
        return result

    def extension_ws(self, formula):
        """Return the extension in the backend's world-set representation."""
        cached = self.cache.get(formula)
        if cached is None and formula not in self.cache:
            self._misses += 1
            cached = self._compute(formula)
            self.cache[formula] = cached
        else:
            self._hits += 1
        return cached

    def extensions(self, formulas):
        """Return the extensions of many formulas (as frozensets, in order),
        evaluating their epistemic subformulas in *batches*.

        Structurally equal subformulas shared between the inputs are
        hash-consed through the cache and computed once; the uncached
        epistemic nodes of the combined formula DAG are grouped by
        ``(operator, agent/group)`` and each group is dispatched through one
        backend ``*_many`` call (innermost modalities first, so operands are
        always ready).  On backends with a true batch implementation ``k``
        same-relation modal operands share one pass; elsewhere the generic
        fallback makes this exactly equivalent to per-formula
        :meth:`extension`.
        """
        formulas = list(formulas)
        self.extensions_ws(formulas)
        return [self.extension(formula) for formula in formulas]

    def extensions_ws(self, formulas):
        """Batched :meth:`extension_ws`: returns backend world-sets, in order.

        See :meth:`extensions` for the batching strategy.
        """
        formulas = list(formulas)
        backend = self.backend
        structure = self.structure
        is_cached = self.cache.__contains__
        while True:
            # One pass per epistemic nesting level, innermost first: a node
            # is *ready* when the uncached part of its operand contains no
            # epistemic node, so its operand extension is pure boolean work
            # over already-batched results.
            groups = {}
            memo = {}
            for formula in formulas:
                collect_ready_epistemic(formula, is_cached, groups, memo)
            if not groups:
                break
            for nodes in groups.values():
                if _res.ACTIVE:
                    # Batch boundaries are the evaluator's safe points
                    # (deadline/cancellation only — batches are not
                    # fixed-point iterations and hold no single manager).
                    bud = _res.current_budget()
                    if bud is not None:
                        bud.tick("evaluator.batch")
                if _obs.ENABLED:
                    _obs.counter("evaluator.batch.groups")
                    _obs.counter("evaluator.batch.operands", len(nodes))
                    _obs.event(
                        "evaluator.batch",
                        operator=type(nodes[0]).__name__,
                        size=len(nodes),
                        backend=backend.name,
                    )
                inners = [self.extension_ws(node.operand) for node in nodes]
                results = apply_epistemic_many(backend, structure, nodes, inners)
                for node, result in zip(nodes, results):
                    self.cache[node] = result
        return [self.extension_ws(formula) for formula in formulas]

    def cache_info(self):
        """Sizes and accounting of the evaluator's memoisation layers,
        keyed by the canonical metric schema of :mod:`repro.obs.registry`.

        ``memo.formulas`` counts cached subformula extensions (in backend
        representation), ``memo.frozensets`` the materialised frozenset
        results; ``memo.formulas.high_water`` is the largest formula memo
        ever held and *survives* :meth:`clear_cache` (it used to be
        implicitly lost with the cache); ``cache.hits``/``cache.misses``
        account every :meth:`extension_ws` lookup and ``cache.clears``
        explicit cache drops.  ``backend`` is the backend's own
        per-structure operation-cache report (:meth:`SetBackend.cache_info`
        — the shared BDD apply caches for the ``"bdd"`` backend, empty for
        backends without operation caches).
        """
        info = {
            "memo.formulas": len(self.cache),
            "memo.formulas.high_water": max(self._formulas_high_water, len(self.cache)),
            "memo.frozensets": len(self._frozen),
            "cache.hits": self._hits,
            "cache.misses": self._misses,
            "cache.clears": self._cache_clears,
            "backend": self.backend.cache_info(self.structure),
        }
        return info

    def clear_cache(self):
        """Drop all memoised extensions, and the backend's recomputable
        operation caches (never required for correctness).  The lookup
        counters and the formula-memo high-water mark survive."""
        self._formulas_high_water = max(self._formulas_high_water, len(self.cache))
        self._cache_clears += 1
        self.cache.clear()
        self._frozen.clear()
        self.backend.clear_cache(self.structure)

    # -- evaluation --------------------------------------------------------------

    def _compute(self, formula):
        structure = self.structure
        backend = self.backend
        if isinstance(formula, TrueFormula):
            return backend.universe(structure)
        if isinstance(formula, FalseFormula):
            return backend.empty(structure)
        if isinstance(formula, Prop):
            return backend.prop_extension(structure, formula.name)
        if isinstance(formula, Not):
            return backend.complement(structure, self.extension_ws(formula.operand))
        if isinstance(formula, And):
            result = backend.universe(structure)
            for operand in formula.operands:
                result = backend.intersection(result, self.extension_ws(operand))
            return result
        if isinstance(formula, Or):
            result = backend.empty(structure)
            for operand in formula.operands:
                result = backend.union(result, self.extension_ws(operand))
            return result
        if isinstance(formula, Implies):
            antecedent = self.extension_ws(formula.antecedent)
            consequent = self.extension_ws(formula.consequent)
            return backend.union(backend.complement(structure, antecedent), consequent)
        if isinstance(formula, Iff):
            left = self.extension_ws(formula.left)
            right = self.extension_ws(formula.right)
            return backend.union(
                backend.intersection(left, right),
                backend.intersection(
                    backend.complement(structure, left),
                    backend.complement(structure, right),
                ),
            )
        if isinstance(
            formula, (Knows, Possible, EveryoneKnows, CommonKnows, DistributedKnows)
        ):
            return apply_epistemic(
                backend, structure, formula, self.extension_ws(formula.operand)
            )
        raise FormulaError(f"cannot evaluate unknown formula node {formula!r}")

    def __repr__(self):
        return (
            f"Evaluator({self.structure!r}, backend={self.backend.name!r}, "
            f"|cache|={len(self.cache)})"
        )


def apply_epistemic(backend, structure, formula, inner):
    """Apply one epistemic operator to a precomputed operand world-set.

    This is the single operator-to-backend dispatch, shared by
    :meth:`Evaluator._compute` and the CTLK model checker (whose operands
    may be temporal and are therefore evaluated elsewhere).  ``inner`` must
    be in ``backend``'s world-set representation.
    """
    if _obs.ENABLED:
        _obs.counter(f"dispatch.{backend.name}.scalar")
    if isinstance(formula, Knows):
        return backend.knows(structure, formula.agent, inner)
    if isinstance(formula, Possible):
        return backend.possible(structure, formula.agent, inner)
    if isinstance(formula, EveryoneKnows):
        return backend.everyone_knows(structure, formula.group, inner)
    if isinstance(formula, CommonKnows):
        return backend.common_knows(structure, formula.group, inner)
    if isinstance(formula, DistributedKnows):
        return backend.distributed_knows(structure, formula.group, inner)
    raise FormulaError(f"not an epistemic operator: {formula!r}")


def _batch_key(formula):
    """The grouping key of an epistemic node for batched dispatch: nodes with
    the same operator and agent (or group) evaluate against the same relation
    and can share one ``*_many`` backend pass."""
    if isinstance(formula, (Knows, Possible)):
        return (type(formula), formula.agent)
    if isinstance(formula, (EveryoneKnows, CommonKnows, DistributedKnows)):
        return (type(formula), formula.group)
    raise FormulaError(f"not an epistemic operator: {formula!r}")


def collect_ready_epistemic(formula, is_cached, groups, memo):
    """Collect the deepest uncached epistemic nodes of ``formula`` into
    ``groups`` (keyed by :func:`_batch_key`); return ``True`` iff the
    uncached part of ``formula`` contains any uncached epistemic node.

    A node is *ready* when the uncached part of its operand contains no
    epistemic node, so evaluating the operand involves no further epistemic
    dispatch — calling this once per batching round yields the innermost
    pending modality level.  ``is_cached`` abstracts the caller's cache
    (:attr:`Evaluator.cache` membership, the CTLK checker's extension
    cache), so the evaluator and the model checker share one walk; ``memo``
    de-duplicates shared subformulas within one pass, which also keeps each
    group free of structural duplicates.
    """
    state = memo.get(formula)
    if state is not None:
        return state
    if is_cached(formula):
        memo[formula] = False
        return False
    if isinstance(
        formula, (Knows, Possible, EveryoneKnows, CommonKnows, DistributedKnows)
    ):
        if not collect_ready_epistemic(formula.operand, is_cached, groups, memo):
            groups.setdefault(_batch_key(formula), []).append(formula)
        memo[formula] = True
        return True
    pending = False
    for child in formula.children():
        if collect_ready_epistemic(child, is_cached, groups, memo):
            pending = True
    memo[formula] = pending
    return pending


def apply_epistemic_many(backend, structure, formulas, inners):
    """Apply one *group* of identical epistemic operators to precomputed
    operand world-sets in a single backend batch call.

    All formulas must share the same operator type and agent/group (i.e. the
    same :func:`_batch_key`); ``inners`` are the operand extensions in
    ``backend`` representation, in formula order.  This is the batched
    counterpart of :func:`apply_epistemic`, shared by
    :meth:`Evaluator.extensions_ws` and the CTLK model checker (whose
    operands may be temporal and are therefore evaluated by the checker).
    """
    if _obs.ENABLED:
        _obs.counter(f"dispatch.{backend.name}.batched", len(formulas))
    head = formulas[0]
    if isinstance(head, Knows):
        return backend.knows_many(structure, head.agent, inners)
    if isinstance(head, Possible):
        return backend.possible_many(structure, head.agent, inners)
    if isinstance(head, EveryoneKnows):
        return backend.everyone_knows_many(structure, head.group, inners)
    if isinstance(head, CommonKnows):
        return backend.common_knows_many(structure, head.group, inners)
    if isinstance(head, DistributedKnows):
        return backend.distributed_knows_many(structure, head.group, inners)
    raise FormulaError(f"not an epistemic operator: {head!r}")


def evaluator_for(structure, backend=None):
    """Return the memoised evaluator of ``structure`` for ``backend``.

    One evaluator is kept per (structure, backend instance) pair in
    ``structure.engine_cache``.  Names resolve to the registry's singletons,
    so every caller naming a backend shares one evaluator, while a
    caller-supplied instance always gets its own.  With ``backend=None`` the
    *current* process default is used, so switching the default (see
    :func:`repro.engine.backend.use_backend`) transparently selects a
    different, independently cached evaluator.
    """
    backend = resolve_backend(backend)
    cache = structure.engine_cache
    key = ("evaluator", backend)
    evaluator = cache.get(key)
    if evaluator is None:
        evaluator = Evaluator(structure, backend)
        cache[key] = evaluator
    return evaluator


def uniform_value(backend, witnesses, extension):
    """The value a formula takes uniformly on a class of worlds.

    ``witnesses`` (the class) and ``extension`` (the formula's extension)
    are world-sets of ``backend``.  Returns ``True`` when the formula holds
    at every world of the class, ``False`` when it holds at none, and
    ``None`` when it differs between them (for a knowledge-based-program
    guard: the guard is not local to the observing agent).  The empty class
    is vacuously uniform and yields ``True``.
    """
    if backend.is_empty(backend.difference(witnesses, extension)):
        return True
    if backend.is_empty(backend.intersection(witnesses, extension)):
        return False
    return None
