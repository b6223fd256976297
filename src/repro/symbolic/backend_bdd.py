"""The symbolic (BDD) world-set backend.

:class:`SymbolicBackend` (registered as ``"bdd"``) implements the full
:class:`repro.engine.backend.SetBackend` protocol with world-sets
represented as ROBDDs over the structure's symbolic encoding
(:mod:`repro.symbolic.encode`):

* boolean algebra is the memoised ``ite``/apply of the kernel
  (:mod:`repro.symbolic.bdd`);
* ``possible``/``knows`` are relational products: the existential modal
  image is ``exists x'. R(x, x') & phi(x')`` — one
  :meth:`~repro.symbolic.bdd.BDD.and_exists` pass — and the universal image
  is its dual, complemented inside the valid-code domain;
* ``everyone_knows`` / ``distributed_knows`` are the same images over the
  group's union / intersection relation BDD;
* ``common_knows`` and ``reachable`` are BDD fixed points: canonicity makes
  the convergence test a node-id comparison;
* the ``*_many`` batch operators resolve the relation once and run the
  whole batch against the manager's shared ``ite``/``and_exists`` memo
  caches, so operands with overlapping subdiagrams — the common case for a
  guard suite over shared subformulas — pay for shared work once.

The kernel is pure Python, so ``"bdd"`` is always in
``available_backends()``.  Its cost scales with *BDD size*, not with
``|W|``: on structures whose relations and extensions compress well
(observational indistinguishability over variable assignments — the paper's
contexts — compresses extremely well) it can evaluate over world counts the
bitset backend cannot touch.

Observability: the backend implements the
:meth:`~repro.engine.backend.SetBackend.cache_info` /
:meth:`~repro.engine.backend.SetBackend.clear_cache` hooks, exposing the
manager's unique-table and operation-cache sizes and dropping the
(recomputable) operation caches on request — node ids, cached relations
and cached evaluator extensions all stay valid across a
:meth:`clear_cache`.
"""

from repro import obs as _obs
from repro import resilience as _res
from repro.engine.backend import SetBackend
from repro.symbolic.bdd import FALSE
from repro.symbolic.encode import encoding_for

__all__ = ["SymbolicWorldSet", "SymbolicBackend"]


class SymbolicWorldSet:
    """A world-set value of the ``"bdd"`` backend: one ROBDD node of the
    owning structure's encoding.

    Canonicity of the kernel makes equality a node-id comparison.  The
    wrapper exists because the :class:`~repro.engine.backend.SetBackend`
    boolean-algebra operations receive only the operand values, so each
    value must carry its encoding (and thereby its manager) along.
    """

    __slots__ = ("encoding", "node")

    def __init__(self, encoding, node):
        self.encoding = encoding
        self.node = node

    def __eq__(self, other):
        if not isinstance(other, SymbolicWorldSet):
            return NotImplemented
        return self.encoding is other.encoding and self.node == other.node

    def __hash__(self):
        return hash((id(self.encoding), self.node))

    def __repr__(self):
        return f"SymbolicWorldSet(node={self.node}, bits={self.encoding.bits})"


class SymbolicBackend(SetBackend):
    """World-sets as ROBDD nodes; modal operators as relational products."""

    name = "bdd"

    # -- conversions ---------------------------------------------------------------

    def from_worlds(self, structure, worlds):
        # All conversions go through the *encoding protocol* (see
        # ``repro.symbolic.encode``): the dense-index encoding realises it
        # via the mask codec, the enumeration-free variable encoding of
        # ``repro.symbolic.model`` via per-variable value cubes — the modal
        # machinery below is agnostic to which one a structure carries.
        encoding = encoding_for(structure)
        return SymbolicWorldSet(encoding, encoding.worlds_node(worlds))

    def to_frozenset(self, structure, ws):
        return ws.encoding.node_worlds(ws.node)

    def universe(self, structure):
        encoding = encoding_for(structure)
        return SymbolicWorldSet(encoding, encoding.domain)

    def empty(self, structure):
        return SymbolicWorldSet(encoding_for(structure), FALSE)

    # -- boolean algebra ------------------------------------------------------------

    def union(self, a, b):
        return SymbolicWorldSet(a.encoding, a.encoding.bdd.or_(a.node, b.node))

    def intersection(self, a, b):
        return SymbolicWorldSet(a.encoding, a.encoding.bdd.and_(a.node, b.node))

    def difference(self, a, b):
        return SymbolicWorldSet(a.encoding, a.encoding.bdd.diff(a.node, b.node))

    def complement(self, structure, ws):
        # Complement *within the valid codes*: a plain negation would let
        # the unused codes of a non-power-of-two universe leak in.
        encoding = ws.encoding
        return SymbolicWorldSet(encoding, encoding.bdd.diff(encoding.domain, ws.node))

    # -- queries --------------------------------------------------------------------

    def contains(self, structure, ws, world):
        return ws.encoding.node_contains(ws.node, world)

    def is_empty(self, ws):
        return ws.node == FALSE

    def size(self, ws):
        return ws.encoding.count(ws.node)

    def equals(self, a, b):
        return a.encoding is b.encoding and a.node == b.node

    # -- epistemic operators ----------------------------------------------------------

    def prop_extension(self, structure, name):
        encoding = encoding_for(structure)
        return SymbolicWorldSet(encoding, encoding.prop_node(name))

    def _diamond(self, encoding, relation, inner_node):
        """Existential image: worlds with some relation-successor in the set
        coded by ``inner_node`` — ``exists x'. R(x, x') & inner(x')``."""
        bdd = encoding.bdd
        return bdd.and_exists(
            relation, encoding.prime(inner_node), encoding.primed_levels
        )

    def _avoid(self, encoding, relation, bad_node):
        """Universal image: valid worlds with *no* relation-successor in the
        set coded by ``bad_node``."""
        bdd = encoding.bdd
        return bdd.diff(encoding.domain, self._diamond(encoding, relation, bad_node))

    def _box(self, encoding, relation, inner_node):
        """Valid worlds all of whose relation-successors lie inside the set
        coded by ``inner_node``."""
        bad = encoding.bdd.diff(encoding.domain, inner_node)
        return self._avoid(encoding, relation, bad)

    def knows(self, structure, agent, inner):
        encoding = inner.encoding
        relation = encoding.agent_relation(agent)
        return SymbolicWorldSet(encoding, self._box(encoding, relation, inner.node))

    def possible(self, structure, agent, inner):
        encoding = inner.encoding
        relation = encoding.agent_relation(agent)
        return SymbolicWorldSet(encoding, self._diamond(encoding, relation, inner.node))

    def everyone_knows(self, structure, group, inner):
        encoding = inner.encoding
        relation = encoding.group_relation(group, "union")
        return SymbolicWorldSet(encoding, self._box(encoding, relation, inner.node))

    def distributed_knows(self, structure, group, inner):
        encoding = inner.encoding
        relation = encoding.group_relation(group, "intersection")
        return SymbolicWorldSet(encoding, self._box(encoding, relation, inner.node))

    def _common_node(self, encoding, relation, inner_node):
        bdd = encoding.bdd
        # Least fixed point: worlds from which some ~phi world is reachable
        # in >= 0 steps of the union relation.  Canonicity turns the
        # convergence test into a node-id comparison.
        tainted = bdd.diff(encoding.domain, inner_node)
        iterations = 0
        while True:
            iterations += 1
            if _res.ACTIVE:
                bud = _res.current_budget()
                if bud is not None:
                    bud.tick("fixpoint.iter", iterations=iterations - 1, manager=bdd)
            if _obs.ENABLED:
                _obs.event(
                    "fixpoint.iter",
                    loop="common_knowledge",
                    backend=self.name,
                    iteration=iterations,
                    node=tainted,
                )
            grown = bdd.or_(tainted, self._diamond(encoding, relation, tainted))
            if grown == tainted:
                break
            tainted = grown
        if _obs.ENABLED:
            _obs.counter("fixpoint.iterations", iterations)
            _obs.event(
                "fixpoint",
                loop="common_knowledge",
                backend=self.name,
                iterations=iterations,
            )
        # C[G] phi fails exactly at the worlds with a successor in `tainted`
        # (a path of length >= 1 to a ~phi world).
        return self._avoid(encoding, relation, tainted)

    def common_knows(self, structure, group, inner):
        encoding = inner.encoding
        relation = encoding.group_relation(group, "union")
        return SymbolicWorldSet(
            encoding, self._common_node(encoding, relation, inner.node)
        )

    # -- batched epistemic operators ---------------------------------------------------
    #
    # One relation lookup for the whole batch, then scalar images through the
    # manager's shared ``ite``/``and_exists`` memo caches: operands that
    # share subdiagrams (guards over shared subformulas — the normal case in
    # ``Evaluator.extensions``) hit the same cache entries, so the marginal
    # cost of an operand is the work on its *distinct* part only.

    def knows_many(self, structure, agent, inners):
        if not inners:
            return []
        encoding = inners[0].encoding
        relation = encoding.agent_relation(agent)
        return [
            SymbolicWorldSet(encoding, self._box(encoding, relation, inner.node))
            for inner in inners
        ]

    def possible_many(self, structure, agent, inners):
        if not inners:
            return []
        encoding = inners[0].encoding
        relation = encoding.agent_relation(agent)
        return [
            SymbolicWorldSet(encoding, self._diamond(encoding, relation, inner.node))
            for inner in inners
        ]

    def everyone_knows_many(self, structure, group, inners):
        if not inners:
            return []
        encoding = inners[0].encoding
        relation = encoding.group_relation(group, "union")
        return [
            SymbolicWorldSet(encoding, self._box(encoding, relation, inner.node))
            for inner in inners
        ]

    def distributed_knows_many(self, structure, group, inners):
        if not inners:
            return []
        encoding = inners[0].encoding
        relation = encoding.group_relation(group, "intersection")
        return [
            SymbolicWorldSet(encoding, self._box(encoding, relation, inner.node))
            for inner in inners
        ]

    def common_knows_many(self, structure, group, inners):
        if not inners:
            return []
        encoding = inners[0].encoding
        relation = encoding.group_relation(group, "union")
        return [
            SymbolicWorldSet(
                encoding, self._common_node(encoding, relation, inner.node)
            )
            for inner in inners
        ]

    # -- reachability ------------------------------------------------------------------

    def reachable(self, structure, start_worlds, agents=None):
        if agents is None:
            agents = structure.agents
        encoding = encoding_for(structure)
        bdd = encoding.bdd
        relation = encoding.group_relation(tuple(agents), "union")
        seen = self.from_worlds(structure, start_worlds).node
        iterations = 0
        while True:
            iterations += 1
            if _res.ACTIVE:
                bud = _res.current_budget()
                if bud is not None:
                    bud.tick("fixpoint.iter", iterations=iterations - 1, manager=bdd)
            if _obs.ENABLED:
                _obs.event(
                    "fixpoint.iter",
                    loop="reachable",
                    backend=self.name,
                    iteration=iterations,
                    node=seen,
                )
            # Forward image: exists x. R(x, x') & seen(x), then x' -> x.
            image = bdd.and_exists(relation, seen, encoding.current_levels)
            grown = bdd.or_(seen, encoding.unprime(image))
            if grown == seen:
                break
            seen = grown
        if _obs.ENABLED:
            _obs.counter("fixpoint.iterations", iterations)
            _obs.event(
                "fixpoint", loop="reachable", backend=self.name, iterations=iterations
            )
        return SymbolicWorldSet(encoding, seen)

    # -- observability -----------------------------------------------------------------

    def cache_info(self, structure):
        encoding = structure.engine_cache.get("bdd_encoding")
        if encoding is None:
            return {}
        return encoding.cache_info()

    def clear_cache(self, structure):
        encoding = structure.engine_cache.get("bdd_encoding")
        if encoding is not None:
            encoding.clear_operation_caches()
