"""Pluggable world-set backends.

Every epistemic computation in the library bottoms out in algebra over
*world-sets* — subsets of the (finite) world universe of an
:class:`repro.kripke.structure.EpistemicStructure`.  A :class:`SetBackend`
fixes one concrete machine representation for those subsets together with
the handful of primitive operations the evaluator needs:

* boolean algebra (union, intersection, difference, complement);
* the modal images ``knows``/``possible`` (universal/existential
  quantification over per-agent accessibility);
* the group operators ``everyone_knows``/``distributed_knows`` (union /
  intersection of relations) and the transitive-closure based
  ``common_knows``;
* ``reachable`` — closure of a set of worlds under accessibility, used for
  generated substructures;
* batched forms of the modal and group operators (``knows_many``,
  ``possible_many``, ``everyone_knows_many``, ``common_knows_many``,
  ``distributed_knows_many``) that apply one operator to many operand
  world-sets against the same relation.  :class:`SetBackend` provides a
  generic scalar-loop fallback, so every backend supports the batch API;
  the BDD backend runs a batch against its shared operation caches.

Two backends ship with the library:

:class:`BitsetBackend`
    Represents a world-set as a Python big integer: world ``i`` (in the
    dense index order assigned at structure construction) corresponds to bit
    ``1 << i``.  Per-agent accessibility becomes an array of masks, boolean
    algebra becomes ``&``/``|``, the modal operators become per-world mask
    tests and common knowledge becomes a backward fixed-point over masks
    instead of a breadth-first search per world.  This is the fast default.

:class:`repro.symbolic.backend_bdd.SymbolicBackend`
    The symbolic backend (``"bdd"``): world-sets as ROBDD nodes over a
    ``ceil(log2 |W|)``-variable encoding of the dense world index, modal
    operators as relational products against relation BDDs, group/common
    knowledge and reachability as BDD fixed points.  Its cost scales with
    BDD size rather than ``|W|``; the kernel is pure Python and is loaded
    on first request.

Backends are registered through :func:`register_backend`, which takes a
*factory* (instantiated on first request), so a backend costs nothing
until used.  Neither backend is the semantic reference: both are checked
against the definitional oracle :mod:`repro.oracle`, which shares no code
with them.

Backends are stateless; all per-structure derived data (masks, proposition
extensions, group relations) is memoised in ``structure.engine_cache``,
which lives and dies with the (immutable) structure, so no invalidation is
ever needed.
"""

import os
from contextlib import contextmanager

from repro import obs as _obs
from repro.util.errors import EngineError

# -- per-structure derived data -----------------------------------------------------
#
# All helpers below memoise in ``structure.engine_cache`` under keys namespaced
# by a short tag, so the backends and the evaluator can share one dict.


def _group_key(group):
    return frozenset(group)


def accessibility_masks(structure, agent):
    """Return agent ``agent``'s accessibility as a list of bitmasks.

    Entry ``i`` is the mask of worlds accessible from ``structure.worlds[i]``.
    """
    cache = structure.engine_cache
    key = ("acc_masks", agent)
    masks = cache.get(key)
    if masks is None:
        index_of = structure.index_of
        masks = []
        for world in structure.worlds:
            mask = 0
            for successor in structure.accessible(agent, world):
                mask |= 1 << index_of(successor)
            masks.append(mask)
        cache[key] = masks
    return masks


def group_masks(structure, group, mode):
    """Return the per-world masks of a group relation (union or intersection).

    The intersection over an *empty* group is the full relation (every world
    sees every world), matching
    :meth:`repro.kripke.structure.EpistemicStructure.group_relation`.
    """
    cache = structure.engine_cache
    key = ("group_masks", _group_key(group), mode)
    masks = cache.get(key)
    if masks is None:
        n = len(structure)
        per_agent = [accessibility_masks(structure, agent) for agent in group]
        if mode == "union":
            masks = [0] * n
            for agent_masks in per_agent:
                masks = [m | a for m, a in zip(masks, agent_masks)]
        elif mode == "intersection":
            if not per_agent:
                full = (1 << n) - 1
                masks = [full] * n
            else:
                masks = list(per_agent[0])
                for agent_masks in per_agent[1:]:
                    masks = [m & a for m, a in zip(masks, agent_masks)]
        else:
            raise EngineError(f"unknown group relation mode {mode!r}")
        cache[key] = masks
    return masks


def proposition_masks(structure):
    """Return the mapping ``proposition name -> bitmask of worlds``."""
    cache = structure.engine_cache
    masks = cache.get("prop_masks")
    if masks is None:
        masks = {}
        for index, world in enumerate(structure.worlds):
            bit = 1 << index
            for name in structure.labels(world):
                masks[name] = masks.get(name, 0) | bit
        cache["prop_masks"] = masks
    return masks


def _bits(mask):
    """Yield the indices of the set bits of ``mask`` (ascending)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _box_mask(masks, forbidden):
    """Universal modal image: the worlds whose successor mask avoids
    ``forbidden`` entirely (``[R] phi`` with ``forbidden = ~extension``)."""
    result = 0
    bit = 1
    for mask in masks:
        if not (mask & forbidden):
            result |= bit
        bit <<= 1
    return result


def _diamond_mask(masks, inner):
    """Existential modal image: the worlds with some successor in ``inner``."""
    result = 0
    bit = 1
    for mask in masks:
        if mask & inner:
            result |= bit
        bit <<= 1
    return result


class SetBackend:
    """Protocol of a world-set backend.

    A backend turns subsets of a structure's worlds into an opaque
    *world-set* value (``ws`` below) and implements the primitive operations
    the :class:`repro.engine.evaluator.Evaluator` composes.  Implementations
    must be stateless: any derived per-structure data belongs in
    ``structure.engine_cache``.
    """

    name = "abstract"

    # -- conversions ---------------------------------------------------------------

    def from_worlds(self, structure, worlds):
        raise NotImplementedError

    def to_frozenset(self, structure, ws):
        raise NotImplementedError

    def universe(self, structure):
        raise NotImplementedError

    def empty(self, structure):
        raise NotImplementedError

    # -- boolean algebra ------------------------------------------------------------

    def union(self, a, b):
        raise NotImplementedError

    def intersection(self, a, b):
        raise NotImplementedError

    def difference(self, a, b):
        raise NotImplementedError

    def complement(self, structure, ws):
        raise NotImplementedError

    # -- queries --------------------------------------------------------------------

    def contains(self, structure, ws, world):
        raise NotImplementedError

    def is_empty(self, ws):
        raise NotImplementedError

    def size(self, ws):
        raise NotImplementedError

    def equals(self, a, b):
        """Return ``True`` iff two world-sets (of the same structure) are
        equal.  The default ``==`` is correct for representations with value
        equality (int bitmasks, canonical BDD nodes); a backend whose ``==``
        is not set equality must override it."""
        return a == b

    # -- epistemic operators ----------------------------------------------------------

    def prop_extension(self, structure, name):
        raise NotImplementedError

    def knows(self, structure, agent, inner):
        """Worlds whose full ``agent``-accessibility lies inside ``inner``."""
        raise NotImplementedError

    def possible(self, structure, agent, inner):
        """Worlds with some ``agent``-accessible world inside ``inner``."""
        raise NotImplementedError

    def everyone_knows(self, structure, group, inner):
        raise NotImplementedError

    def common_knows(self, structure, group, inner):
        raise NotImplementedError

    def distributed_knows(self, structure, group, inner):
        raise NotImplementedError

    # -- batched epistemic operators ---------------------------------------------------
    #
    # Each ``*_many`` method applies one modal operator to a whole *batch* of
    # operand world-sets against the same agent/group relation and returns the
    # list of results in operand order.  The default implementations below are
    # the generic scalar-loop fallback, correct for every backend; a backend
    # whose representation supports a true multi-operand pass overrides them
    # (the BDD backend resolves the relation once per batch).
    # ``Evaluator.extensions`` groups the epistemic nodes
    # of a formula batch by ``(operator, agent/group)`` and dispatches each
    # group through exactly one of these calls.

    def knows_many(self, structure, agent, inners):
        """Batched :meth:`knows` over a list of operand world-sets."""
        return [self.knows(structure, agent, inner) for inner in inners]

    def possible_many(self, structure, agent, inners):
        """Batched :meth:`possible` over a list of operand world-sets."""
        return [self.possible(structure, agent, inner) for inner in inners]

    def everyone_knows_many(self, structure, group, inners):
        """Batched :meth:`everyone_knows` over a list of operand world-sets."""
        return [self.everyone_knows(structure, group, inner) for inner in inners]

    def common_knows_many(self, structure, group, inners):
        """Batched :meth:`common_knows` over a list of operand world-sets."""
        return [self.common_knows(structure, group, inner) for inner in inners]

    def distributed_knows_many(self, structure, group, inners):
        """Batched :meth:`distributed_knows` over a list of operand world-sets."""
        return [self.distributed_knows(structure, group, inner) for inner in inners]

    # -- reachability ------------------------------------------------------------------

    def reachable(self, structure, start_worlds, agents=None):
        """Closure of ``start_worlds`` under the union of the given agents'
        relations (all agents by default), including the start worlds."""
        raise NotImplementedError

    # -- observability -----------------------------------------------------------------

    def cache_info(self, structure):
        """Sizes of the backend's per-structure caches, as a dict.

        The bitset backend keeps only derived data that is proportional to
        the structure (masks) and reports nothing; backends with
        *operation* caches that grow with use — the BDD backend's shared
        ``ite``/apply memo tables — override this so long-lived evaluators
        are observable (see :meth:`Evaluator.cache_info`)."""
        return {}

    def clear_cache(self, structure):
        """Drop the backend's recomputable per-structure operation caches.

        A no-op by default; the BDD backend clears its manager's operation
        memos (never the unique table, so world-set values stay valid).
        Never required for correctness."""

    def __repr__(self):
        return f"{type(self).__name__}()"


class BitsetBackend(SetBackend):
    """World-sets as Python big-int bitmasks over the dense world index.

    Bit ``i`` stands for ``structure.worlds[i]``.  Set algebra is machine-word
    arithmetic, the modal operators are per-world mask tests against the
    memoised accessibility-mask arrays, and common knowledge is a backward
    least fixed point (``worlds from which a ~phi world is reachable``)
    computed for *all* worlds at once instead of one BFS per world.
    """

    name = "bitset"

    def from_worlds(self, structure, worlds):
        index_of = structure.index_of
        mask = 0
        for world in worlds:
            mask |= 1 << index_of(world)
        return mask

    def to_frozenset(self, structure, ws):
        world_at = structure.worlds
        return frozenset(world_at[i] for i in _bits(ws))

    def universe(self, structure):
        return (1 << len(structure)) - 1

    def empty(self, structure):
        return 0

    def union(self, a, b):
        return a | b

    def intersection(self, a, b):
        return a & b

    def difference(self, a, b):
        return a & ~b

    def complement(self, structure, ws):
        return self.universe(structure) & ~ws

    def contains(self, structure, ws, world):
        return bool((ws >> structure.index_of(world)) & 1)

    def is_empty(self, ws):
        return ws == 0

    def size(self, ws):
        return ws.bit_count()

    def prop_extension(self, structure, name):
        return proposition_masks(structure).get(name, 0)

    def knows(self, structure, agent, inner):
        masks = accessibility_masks(structure, agent)
        return _box_mask(masks, self.universe(structure) & ~inner)

    def possible(self, structure, agent, inner):
        return _diamond_mask(accessibility_masks(structure, agent), inner)

    def everyone_knows(self, structure, group, inner):
        # E[G] phi holds at w iff the union of the group's accessibilities
        # from w lies inside the extension of phi.
        masks = group_masks(structure, group, "union")
        return _box_mask(masks, self.universe(structure) & ~inner)

    def common_knows(self, structure, group, inner):
        masks = group_masks(structure, group, "union")
        bad = self.universe(structure) & ~inner
        # Least fixed point: worlds from which some ~phi world is reachable
        # in >= 0 steps of the union relation.
        tainted = bad
        iterations = 0
        while True:
            iterations += 1
            added = _diamond_mask(masks, tainted) & ~tainted
            if not added:
                break
            tainted |= added
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
        return _box_mask(masks, tainted)

    def distributed_knows(self, structure, group, inner):
        masks = group_masks(structure, group, "intersection")
        return _box_mask(masks, self.universe(structure) & ~inner)

    def reachable(self, structure, start_worlds, agents=None):
        if agents is None:
            agents = structure.agents
        masks = group_masks(structure, tuple(agents), "union")
        seen = self.from_worlds(structure, start_worlds)
        frontier = seen
        iterations = 0
        while frontier:
            iterations += 1
            if _obs.ENABLED:
                _obs.event(
                    "fixpoint.iter",
                    loop="reachable",
                    backend=self.name,
                    iteration=iterations,
                    frontier=frontier.bit_count(),
                )
            successors = 0
            for i in _bits(frontier):
                successors |= masks[i]
            frontier = successors & ~seen
            seen |= frontier
        if _obs.ENABLED:
            _obs.counter("fixpoint.iterations", iterations)
            _obs.event(
                "fixpoint", loop="reachable", backend=self.name, iterations=iterations
            )
        return seen




# -- backend registry and default selection ------------------------------------------
#
# The registry maps names to *factories* rather than instances, so a backend
# whose implementation lives in a heavier subsystem (the BDD backend) costs
# nothing until it is first requested: its module is imported and its
# instance constructed lazily by :func:`backend_by_name`.


class _BackendEntry:
    __slots__ = ("factory", "instance")

    def __init__(self, factory):
        self.factory = factory
        self.instance = None


_REGISTRY = {}


def register_backend(name, factory, replace=False):
    """Register a world-set backend under ``name``.

    Parameters
    ----------
    name:
        The registry key; what :func:`resolve_backend` and the
        ``REPRO_SET_BACKEND`` environment variable accept.
    factory:
        Zero-argument callable returning a :class:`SetBackend` instance.
        Called at most once, on first request (lazy instantiation) — heavy
        imports belong inside the factory, not at registration time.
    replace:
        Allow overwriting an existing registration (default ``False``).
    """
    if not replace and name in _REGISTRY:
        raise EngineError(f"set backend {name!r} is already registered")
    _REGISTRY[name] = _BackendEntry(factory)


def unregister_backend(name):
    """Remove a registered backend (primarily for tests and plugins).

    The process default backend cannot be unregistered.
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        raise EngineError(f"unknown set backend {name!r}")
    if "_default_backend" in globals() and _default_backend is entry.instance:
        raise EngineError(f"cannot unregister the current default backend {name!r}")
    del _REGISTRY[name]


def available_backends():
    """Return the names of the registered backends, sorted."""
    return sorted(_REGISTRY)


def backend_by_name(name):
    """Return the backend called ``name``, instantiating it on first use."""
    entry = _REGISTRY.get(name)
    if entry is None:
        raise EngineError(
            f"unknown set backend {name!r}; available: {available_backends()}"
        )
    if entry.instance is None:
        entry.instance = entry.factory()
    return entry.instance


def resolve_backend(backend):
    """Coerce ``None`` (the default), a name or a backend instance into a
    backend instance."""
    if backend is None:
        return _default_backend
    if isinstance(backend, str):
        return backend_by_name(backend)
    if isinstance(backend, SetBackend):
        return backend
    raise EngineError(f"cannot interpret {backend!r} as a set backend")


def get_default_backend():
    """Return the process-wide default backend (bitset unless overridden)."""
    return _default_backend


def set_default_backend(backend):
    """Set the process-wide default backend; returns the previous default.

    ``backend`` may be a name (``"bitset"``, ``"bdd"``) or a
    :class:`SetBackend` instance.
    """
    global _default_backend
    previous = _default_backend
    _default_backend = resolve_backend(backend)
    return previous


@contextmanager
def use_backend(backend):
    """Context manager that temporarily switches the default backend."""
    previous = set_default_backend(backend)
    try:
        yield get_default_backend()
    finally:
        set_default_backend(previous)


# -- built-in registrations ----------------------------------------------------------


def _bdd_factory():
    # Deferred import: the symbolic kernel and encoding modules are only
    # loaded when the backend is first requested.
    from repro.symbolic.backend_bdd import SymbolicBackend

    return SymbolicBackend()


register_backend(BitsetBackend.name, BitsetBackend)
register_backend("bdd", _bdd_factory)

_default_backend = backend_by_name(os.environ.get("REPRO_SET_BACKEND", BitsetBackend.name))
