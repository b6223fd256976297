"""Symbolic (BDD) encoding of an :class:`~repro.kripke.structure.EpistemicStructure`.

Worlds are encoded by their *dense index* — the same construction-order
index that is the contract between a structure and the bit-level engine
backends — written in binary over ``bits = max(1, ceil(log2 |W|))`` boolean
variables.  Two copies of each variable exist, *current* and *primed*, in a
separated order::

    level p          current copy of position p
    level bits + p   primed copy of position p

where position ``p = 0`` carries the most significant index bit.  The
separated order (every current variable above every primed one) is what the
relation construction relies on: a relation BDD is assembled bottom-up from
one whole primed successor-*set* BDD per world, and those leaves — which
span all primed levels — must sit strictly below the current index
variables being merged on top of them (the kernel's order invariant rejects
any other arrangement).  The swap ``current <-> primed`` is a uniform shift
by ``bits`` and therefore order-preserving, so :meth:`BDD.rename`
implements both directions.

A *world-set* is a BDD over the current variables only; it is built from
(and converted back to) the same big-int bitmasks the bitset backend uses
(:meth:`SymbolicEncoding.set_from_mask` / :meth:`mask_from_set`), by
splitting the mask in half per index bit — structurally shared subtrees
land on the same hash-consed node, so e.g. the full-universe mask costs
O(bits) nodes, not O(|W|).  Indices ``>= |W|`` (the unused codes of a
non-power-of-two universe) are simply ``False`` in every set built this
way; :attr:`SymbolicEncoding.domain` is the set of *valid* codes and is
conjoined wherever a complement could otherwise leak invalid codes in.

Per-agent accessibility becomes a relation BDD ``R_a(x, x')`` — true iff
the world coded by the current variables ``a``-accesses the world coded by
the primed ones — assembled bottom-up from one primed successor-set BDD per
world.  Group relations (union for E/C, intersection for D, with the same
empty-group conventions as everywhere in the library) are derived from
those, and the modal images ``pre_image``/``post_image`` the backend asks
for are relational products through them.  (Enumerated structures may
carry any relation; the enumeration-free views of
:mod:`repro.symbolic.model` need none — their images are projections.)
All encodings are memoised: the :class:`SymbolicEncoding` itself
(with its private :class:`~repro.symbolic.bdd.BDD` manager) lives in
``structure.engine_cache`` like ``accessibility_masks`` does, so it is
built once per structure and shared by every evaluator.
"""

from repro.symbolic.bdd import BDD, FALSE, TRUE

__all__ = ["SymbolicEncoding", "encoding_for"]


class SymbolicEncoding:
    """The symbolic coding of one structure: manager, variables, relations."""

    __slots__ = (
        "structure",
        "bits",
        "bdd",
        "current_levels",
        "primed_levels",
        "_to_primed",
        "_to_current",
        "_set_memo",
        "_mask_memo",
        "domain",
        "domain_primed",
    )

    def __init__(self, structure):
        n = len(structure)
        self.structure = structure
        self.bits = max(1, (n - 1).bit_length())
        self.bdd = BDD(2 * self.bits)
        self.current_levels = tuple(range(self.bits))
        self.primed_levels = tuple(range(self.bits, 2 * self.bits))
        self._to_primed = tuple(zip(self.current_levels, self.primed_levels))
        self._to_current = tuple(zip(self.primed_levels, self.current_levels))
        self._set_memo = {}
        self._mask_memo = {}
        full = (1 << n) - 1
        self.domain = self.set_from_mask(full)
        self.domain_primed = self.set_from_mask(full, primed=True)

    # -- world-sets <-> bitmasks -------------------------------------------------------

    def set_from_mask(self, mask, primed=False):
        """The BDD (over current — or primed — variables) of the world-set
        given as a big-int bitmask over the dense index."""
        return self._set_from_mask(mask, 0, primed)

    def _set_from_mask(self, mask, position, primed):
        if position == self.bits:
            return TRUE if mask & 1 else FALSE
        key = (mask, position, primed)
        cached = self._set_memo.get(key)
        if cached is not None:
            return cached
        half = 1 << (self.bits - 1 - position)
        low_mask = mask & ((1 << half) - 1)
        high_mask = mask >> half
        level = self.bits + position if primed else position
        result = self.bdd._node(
            level,
            self._set_from_mask(low_mask, position + 1, primed),
            self._set_from_mask(high_mask, position + 1, primed),
        )
        self._set_memo[key] = result
        return result

    def mask_from_set(self, node):
        """The big-int bitmask of a world-set BDD (current variables only)."""
        return self._mask_from_set(node, 0)

    def _mask_from_set(self, node, position):
        if position == self.bits:
            return 1 if node == TRUE else 0
        key = (node, position)
        cached = self._mask_memo.get(key)
        if cached is not None:
            return cached
        low, high = self.bdd._cofactors(node, position)
        half = 1 << (self.bits - 1 - position)
        result = self._mask_from_set(low, position + 1) | (
            self._mask_from_set(high, position + 1) << half
        )
        self._mask_memo[key] = result
        return result

    def world(self, index, primed=False):
        """The minterm BDD of the single world with the given dense index."""
        return self.set_from_mask(1 << index, primed=primed)

    # -- boundary protocol -------------------------------------------------------------
    #
    # The four methods below (plus ``domain``, ``count``, the images
    # ``pre_image``/``post_image`` and the cache hooks) are the *encoding
    # protocol* the ``"bdd"`` backend talks to.  Any object that implements
    # them can stand in for this class — in particular the variable-level
    # encoding of :mod:`repro.symbolic.model`, whose world universe is never
    # enumerated and whose images are observation projections; here they are
    # thin wrappers over the mask codec and the relation BDDs of the
    # dense-index encoding.

    def worlds_node(self, worlds):
        """The world-set BDD of an iterable of world identifiers."""
        index_of = self.structure.index_of
        mask = 0
        for world in worlds:
            mask |= 1 << index_of(world)
        return self.set_from_mask(mask)

    def node_worlds(self, node):
        """The frozenset of world identifiers of a world-set BDD."""
        world_at = self.structure.worlds
        mask = self.mask_from_set(node)
        result = []
        while mask:
            low = mask & -mask
            result.append(world_at[low.bit_length() - 1])
            mask ^= low
        return frozenset(result)

    def node_contains(self, node, world):
        """Point query by world identifier."""
        return self.contains_index(node, self.structure.index_of(world))

    def prop_node(self, name):
        """The world-set BDD of a proposition's extension."""
        from repro.engine.backend import proposition_masks

        return self.set_from_mask(proposition_masks(self.structure).get(name, 0))

    def contains_index(self, node, index):
        """Point query: is the world with the given dense index in the set?"""
        bdd = self.bdd
        bits = self.bits
        while node > TRUE:
            position = bdd.level_of(node)
            if (index >> (bits - 1 - position)) & 1:
                node = bdd.high(node)
            else:
                node = bdd.low(node)
        return node == TRUE

    def count(self, node):
        """The number of worlds in a world-set BDD (current variables only).

        ``sat_count`` ranges over both variable copies; a current-only set
        leaves the ``bits`` primed variables free, so each world contributes
        exactly ``2 ** bits`` assignments.
        """
        return self.bdd.sat_count(node) >> self.bits

    # -- current <-> primed ------------------------------------------------------------

    def prime(self, node):
        """Rename a current-variable BDD onto the primed variables."""
        return self.bdd.rename(node, self._to_primed)

    def unprime(self, node):
        """Rename a primed-variable BDD onto the current variables."""
        return self.bdd.rename(node, self._to_current)

    # -- relations ---------------------------------------------------------------------

    def agent_relation(self, agent):
        """The relation BDD ``R_agent(current, primed)``, memoised.

        Built bottom-up: one primed successor-set BDD per world, then a
        balanced merge over the current index bits — O(|W|) node
        constructions, with hash-consing sharing equal successor sets (the
        common case for observational indistinguishability relations).
        """
        cache = self.structure.engine_cache
        key = ("bdd_rel", agent)
        relation = cache.get(key)
        if relation is None:
            from repro.engine.backend import accessibility_masks

            masks = accessibility_masks(self.structure, agent)
            relation = self._relation_from_rows(
                [self.set_from_mask(mask, primed=True) for mask in masks]
            )
            cache[key] = relation
        return relation

    def _relation_from_rows(self, rows):
        width = 1 << self.bits
        nodes = list(rows) + [FALSE] * (width - len(rows))
        node_ = self.bdd._node
        for position in range(self.bits - 1, -1, -1):
            nodes = [
                node_(position, nodes[i], nodes[i + 1])
                for i in range(0, len(nodes), 2)
            ]
        return nodes[0]

    def group_relation(self, group, mode):
        """The union / intersection relation BDD of a group, memoised.

        As everywhere in the library: the union over an empty group is the
        empty relation, the intersection over an empty group is the *full*
        (valid-code) relation.
        """
        cache = self.structure.engine_cache
        key = ("bdd_group", frozenset(group), mode)
        relation = cache.get(key)
        if relation is None:
            bdd = self.bdd
            members = [self.agent_relation(agent) for agent in group]
            if mode == "union":
                relation = FALSE
                for member in members:
                    relation = bdd.or_(relation, member)
            elif mode == "intersection":
                if not members:
                    relation = bdd.and_(self.domain, self.domain_primed)
                else:
                    relation = members[0]
                    for member in members[1:]:
                        relation = bdd.and_(relation, member)
            else:
                from repro.util.errors import EngineError

                raise EngineError(f"unknown group relation mode {mode!r}")
            cache[key] = relation
        return relation

    # -- modal images ------------------------------------------------------------------

    def pre_image(self, group, mode, node):
        """The worlds with some group-successor in ``node``:
        ``exists x'. R(x, x') & node(x')`` — one relational product."""
        return self.bdd.and_exists(
            self.group_relation(group, mode), self.prime(node), self.primed_levels
        )

    def post_image(self, group, mode, node):
        """The group-successors of the worlds in ``node``: ``exists x.
        R(x, x') & node(x)``, renamed back onto the current variables.  An
        enumerated structure's accessibility need not be symmetric, so this
        is a product of its own."""
        image = self.bdd.and_exists(
            self.group_relation(group, mode), node, self.current_levels
        )
        return self.unprime(image)

    def clear_operation_caches(self):
        """Drop every recomputable memo: the manager's operation caches and
        the encoding's mask <-> BDD codec memos.  All node ids (cached
        relations, world-set values, evaluator extensions) stay valid."""
        self.bdd.clear_operation_caches()
        self._set_memo.clear()
        self._mask_memo.clear()

    def cache_info(self):
        """Encoding-level cache sizes merged with the manager's, keyed by
        the canonical schema of :mod:`repro.obs.registry` (``memo.sets``,
        ``memo.masks``, ``memo.relations``)."""
        cache = self.structure.engine_cache
        info = dict(self.bdd.cache_info())
        info["memo.sets"] = len(self._set_memo)
        info["memo.masks"] = len(self._mask_memo)
        info["memo.relations"] = sum(
            1 for key in cache if isinstance(key, tuple) and key[0] in ("bdd_rel", "bdd_group")
        )
        return info

    def __repr__(self):
        return (
            f"SymbolicEncoding(|W|={len(self.structure)}, bits={self.bits}, "
            f"|nodes|={self.bdd.cache_info()['unique.nodes']})"
        )


def encoding_for(structure):
    """Return the memoised :class:`SymbolicEncoding` of ``structure``.

    One encoding (and hence one BDD manager) exists per structure, stored in
    ``structure.engine_cache``; the structure is immutable, so the encoding
    never needs invalidation.
    """
    cache = structure.engine_cache
    encoding = cache.get("bdd_encoding")
    if encoding is None:
        encoding = SymbolicEncoding(structure)
        cache["bdd_encoding"] = encoding
    return encoding
