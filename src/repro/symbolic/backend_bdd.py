"""The symbolic (BDD) world-set backend.

:class:`SymbolicBackend` (registered as ``"bdd"``) implements the full
:class:`repro.engine.backend.SetBackend` protocol with world-sets
represented as ROBDDs over the structure's symbolic encoding
(:mod:`repro.symbolic.encode`):

* boolean algebra is the memoised ``ite``/apply of the kernel
  (:mod:`repro.symbolic.bdd`);
* every modal operator is a box over the encoding's existential image
  ``pre_image(group, mode, node)`` — the worlds with some group-successor
  in ``node`` — complemented inside the valid-code domain: ``knows`` and
  ``possible`` over the singleton group, ``everyone_knows`` over the
  group's union, ``distributed_knows`` over its intersection;
* ``common_knows`` and ``reachable`` are BDD fixed points over
  ``pre_image`` / ``post_image``: canonicity makes the convergence test a
  node-id comparison;
* the batch operators are the generic loop of
  :class:`~repro.engine.backend.SetBackend`: each operand runs against the
  manager's shared memo caches, so operands with overlapping subdiagrams —
  the common case for a guard suite over shared subformulas — pay for
  shared work once.

The backend knows no relation.  How an image is computed is the
encoding's business: a model view's :class:`~repro.symbolic.model.StateSetEncoding`
projects onto the agents' observable variables (two states are
indistinguishable exactly when they agree on them), the dense-index
:class:`~repro.symbolic.encode.SymbolicEncoding` of an enumerated Kripke
structure — whose accessibility may be any relation — takes a relational
product through its relation BDDs.

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
(recomputable) operation caches on request — node ids and cached
evaluator extensions all stay valid across a :meth:`clear_cache`.
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
    """World-sets as ROBDD nodes; modal operators as boxes over the
    encoding's images."""

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

    def _box(self, encoding, group, mode, inner_node):
        """Valid worlds all of whose group-successors lie inside the set
        coded by ``inner_node``: those with no successor outside it."""
        bdd = encoding.bdd
        bad = bdd.diff(encoding.domain, inner_node)
        return bdd.diff(encoding.domain, encoding.pre_image(group, mode, bad))

    def knows(self, structure, agent, inner):
        encoding = inner.encoding
        return SymbolicWorldSet(encoding, self._box(encoding, (agent,), "union", inner.node))

    def possible(self, structure, agent, inner):
        encoding = inner.encoding
        return SymbolicWorldSet(encoding, encoding.pre_image((agent,), "union", inner.node))

    def everyone_knows(self, structure, group, inner):
        encoding = inner.encoding
        return SymbolicWorldSet(encoding, self._box(encoding, group, "union", inner.node))

    def distributed_knows(self, structure, group, inner):
        encoding = inner.encoding
        return SymbolicWorldSet(
            encoding, self._box(encoding, group, "intersection", inner.node)
        )

    def common_knows(self, structure, group, inner):
        encoding = inner.encoding
        bdd = encoding.bdd
        # Least fixed point: worlds from which some ~phi world is reachable
        # in >= 0 steps of the union relation.  Canonicity turns the
        # convergence test into a node-id comparison.
        tainted = bdd.diff(encoding.domain, inner.node)
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
            grown = bdd.or_(tainted, encoding.pre_image(group, "union", tainted))
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
        return SymbolicWorldSet(
            encoding,
            bdd.diff(encoding.domain, encoding.pre_image(group, "union", tainted)),
        )

    # -- reachability ------------------------------------------------------------------

    def reachable(self, structure, start_worlds, agents=None):
        if agents is None:
            agents = structure.agents
        agents = tuple(agents)
        encoding = encoding_for(structure)
        bdd = encoding.bdd
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
            grown = bdd.or_(seen, encoding.post_image(agents, "union", seen))
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
