"""A self-contained pure-Python ROBDD kernel.

A :class:`BDD` manager owns a universe of boolean variables identified by
*variable indices* ``0 .. num_vars - 1`` and represents boolean functions
over them as reduced ordered binary decision diagrams.  Nodes are
hash-consed through a unique table, so two structurally equal functions are
always the *same* integer node id — equality, tautology and unsatisfiability
checks are id comparisons, which is what the symbolic world-set backend's
fixed points rely on.

Variables versus levels
-----------------------

A variable index is a stable name; a *level* is the variable's current
position in the order (level 0 is tested first on every path).  The two
coincide when the manager is created and stay equal until
:meth:`BDD.reorder` runs, so code that never reorders can keep treating the
two interchangeably.  All public operations — :meth:`restrict`,
:meth:`exists`, :meth:`rename`, :meth:`evaluate`, :meth:`support`,
:meth:`sat_all` — speak *variable indices*, which keeps every client-held
quantification set and rename mapping valid across reorders.
:meth:`var_of` reports the variable a node tests; :meth:`level_of` its
current depth.

The kernel provides:

* the Shannon operator :meth:`BDD.ite` (if-then-else), memoised, from which
  all binary connectives (:meth:`and_`, :meth:`or_`, :meth:`xor`,
  :meth:`implies`, :meth:`iff`, :meth:`diff`) and negation (:meth:`not_`)
  derive;
* cofactor :meth:`restrict` and existential/universal quantification
  (:meth:`exists`, :meth:`forall`) over arbitrary variable sets;
* order-preserving variable renaming (:meth:`rename`) — the
  unprimed ↔ primed swap of the relational encodings — which *validates*
  order preservation and raises :class:`~repro.util.errors.VariableOrderError`
  (a ``ValueError``) instead of silently producing a mis-ordered diagram;
* the combined relational product :meth:`and_exists`
  (``exists V. f & g`` in one pass, the workhorse of image computation);
* satisfying-assignment counting (:meth:`sat_count`) and path enumeration
  (:meth:`sat_all`) over the variable order, plus point evaluation
  (:meth:`evaluate`);
* dynamic variable reordering: :meth:`reorder` runs a pass of Rudell
  *group sifting* built on an in-place adjacent-level swap primitive that
  preserves every node id (see below), :meth:`enable_reordering` arms a
  growth trigger on the unique table, and :meth:`maybe_reorder` runs a
  pending reorder at a *safe point* (no kernel operation may be in flight).

Everything is plain Python — no third-party dependency — so the ``"bdd"``
world-set backend built on top of this module is always available.

Complement edges are deliberately omitted: negation is a memoised ``ite``
against the terminals, which keeps node identity simple (one id per
function, not per function-up-to-polarity) at the cost of some sharing.

Reordering invariants
---------------------

The swap primitive exchanges two *adjacent* levels entirely in place: a
node testing the upper variable whose children do not test the lower one is
untouched; a *dependent* node is rewritten — same id, new ``(var, low,
high)`` triple — to test the lower variable over freshly consed children.
Because every node keeps the boolean function it denotes, node ids held by
clients (cached extensions, compiled relations, fixed-point iterates)
remain valid across any number of swaps, and distinct nodes keep distinct
functions, so rewritten unique-table keys never collide.  Dead nodes are
rewritten along with live ones — the kernel has no garbage collector, so
"dead" only means unreferenced, never invalid.  The *operation* caches are
dropped after a reorder (their level-keyed entries go stale); the unique
table itself is never cleared.

Sifting measures diagram size over the nodes *live from a caller-supplied
root set* (tracked incrementally with reference counts during swaps).
Without roots every table node is pessimistically treated as live, which
makes the metric monotone in allocations and sifting largely a no-op — pass
the roots you care about.

Keep-groups declared through :meth:`enable_reordering` (e.g. the
interleaved current/primed bit pairs of the relational encodings) move as
units and are never split or internally permuted, which keeps the
prime/unprime rename mappings order-preserving by construction.

Two memoisation layers exist and are observable through
:meth:`cache_info`: the *unique table* (structural identity of nodes; never
cleared, node ids stay valid for the manager's lifetime) and the *operation
caches* (``ite`` and quantify/rename/count memos), which
:meth:`clear_operation_caches` drops without invalidating any node id —
that is the "boundable" half a long-lived evaluator can safely release.

The operation caches are additionally *bounded*: each is capped at
``cache_ceiling`` entries (:data:`DEFAULT_CACHE_CEILING` unless overridden
at construction) and cleared when it overflows, so long-running loops —
hundreds of rounds of symbolic KBP construction against one shared manager
— cannot grow the memo tables without bound.  Overflows only cost
recomputation, never correctness, and are observable: :meth:`cache_info`
reports the high-water mark of each cache and the number of
overflow-triggered clears.
"""

from repro import obs as _obs
from repro.obs.registry import register_manager
from repro.resilience import faults as _faults
from repro.util.errors import EngineError, VariableOrderError

FALSE = 0
TRUE = 1

DEFAULT_CACHE_CEILING = 1 << 20
"""Default per-cache entry ceiling of a manager's operation caches."""

DEFAULT_REORDER_THRESHOLD = 1 << 12
"""Default unique-table size at which an armed manager first requests a
reorder (the trigger doubles after every reorder)."""


class BDD:
    """A manager for ROBDDs over a fixed number of ordered variables.

    Node ids are small integers private to one manager; the terminals are
    ``FALSE == 0`` and ``TRUE == 1``.  All operations are memoised in the
    manager, so repeated subcomputations — within one call or across a whole
    batch of calls — are paid for once.
    """

    __slots__ = (
        "num_vars",
        "cache_ceiling",
        "_var",
        "_low",
        "_high",
        "_unique",
        "_var2level",
        "_level2var",
        "_ite_cache",
        "_op_cache",
        "_ite_high_water",
        "_op_high_water",
        "_ite_hits",
        "_ite_misses",
        "_op_hits",
        "_op_misses",
        "_cache_clears",
        "_gc_passes",
        "_gc_purged",
        "_var_nodes",
        "_group_order",
        "_reorder_enabled",
        "_reorder_threshold",
        "_auto_trigger",
        "_reorder_pending",
        "_in_reorder",
        "_reorder_count",
        "_swap_count",
        "_last_reorder",
        "_live_ref",
        "_live_size",
        "_budget",
        "_budget_check_at",
        "__weakref__",
    )

    def __init__(self, num_vars, cache_ceiling=DEFAULT_CACHE_CEILING):
        if num_vars < 0:
            raise EngineError("a BDD manager needs a non-negative variable count")
        if cache_ceiling is not None and cache_ceiling < 1:
            raise EngineError("cache_ceiling must be a positive entry count or None")
        self.num_vars = num_vars
        self.cache_ceiling = cache_ceiling
        # Terminals live below every variable: their pseudo-variable is
        # ``num_vars``, which both permutation arrays map to itself.
        self._var = [num_vars, num_vars]
        self._low = [-1, -1]
        self._high = [-1, -1]
        self._unique = {}
        self._var2level = list(range(num_vars + 1))
        self._level2var = list(range(num_vars + 1))
        self._ite_cache = {}
        self._op_cache = {}
        self._ite_high_water = 0
        self._op_high_water = 0
        self._ite_hits = 0
        self._ite_misses = 0
        self._op_hits = 0
        self._op_misses = 0
        self._cache_clears = 0
        self._gc_passes = 0
        self._gc_purged = 0
        self._var_nodes = None
        self._group_order = None
        self._reorder_enabled = False
        self._reorder_threshold = DEFAULT_REORDER_THRESHOLD
        self._auto_trigger = None
        self._reorder_pending = False
        self._in_reorder = False
        self._reorder_count = 0
        self._swap_count = 0
        self._last_reorder = None
        self._live_ref = None
        self._live_size = 0
        # Armed by repro.resilience (directly or via the registry hook that
        # register_manager runs): _budget points at the governing Budget and
        # _budget_check_at is the node id at which its next kernel-level
        # check fires.  None means ungoverned — the only per-node cost.
        self._budget = None
        self._budget_check_at = 0
        register_manager(self)

    def _bound_ite_cache(self):
        """Account one ``ite`` memo miss (stores happen exactly on misses)
        and clear the memo when it overflows its ceiling (clearing only
        forces recomputation; no node id is invalidated)."""
        self._ite_misses += 1
        if self.cache_ceiling is not None and len(self._ite_cache) >= self.cache_ceiling:
            self._ite_high_water = max(self._ite_high_water, len(self._ite_cache))
            self._ite_cache.clear()
            self._cache_clears += 1
            if _obs.ENABLED:
                _obs.event("bdd.cache_clear", cache="ite", clears=self._cache_clears)

    def _bound_op_cache(self):
        """Account one op-memo miss and clear the quantify/rename/count
        memo when it overflows."""
        self._op_misses += 1
        if self.cache_ceiling is not None and len(self._op_cache) >= self.cache_ceiling:
            self._op_high_water = max(self._op_high_water, len(self._op_cache))
            self._op_cache.clear()
            self._cache_clears += 1
            if _obs.ENABLED:
                _obs.event("bdd.cache_clear", cache="op", clears=self._cache_clears)

    # -- node primitives ---------------------------------------------------------

    def _node(self, var, low, high):
        """Return the (hash-consed) node ``(var, low, high)``; reduced —
        a node whose branches coincide is its branch.

        The order invariant (children test strictly deeper *levels*) is
        enforced here rather than assumed: a violation silently corrupts
        every diagram sharing the node, so it must be impossible."""
        if low == high:
            return low
        v2l = self._var2level
        level = v2l[var]
        if v2l[self._var[low]] <= level or v2l[self._var[high]] <= level:
            raise VariableOrderError(
                f"variable-order violation: node at level {level} over children "
                f"at levels {v2l[self._var[low]]}/{v2l[self._var[high]]}"
            )
        key = (var, low, high)
        found = self._unique.get(key)
        if found is None:
            found = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = found
            if self._var_nodes is not None:
                self._var_nodes[var].append(found)
            if (
                self._auto_trigger is not None
                and found >= self._auto_trigger
                and not self._in_reorder
            ):
                # Never reorder mid-operation: only raise the flag here and
                # let a safe point (maybe_reorder) run the sift.  Skipped
                # entirely while a sift is rewriting levels: swaps create
                # nodes through _node between their table mutations, and an
                # obs sink raising out of the growth event there would
                # interrupt a half-applied swap (reorder() only recovers
                # from interruptions *between* swaps).  The reorder's exit
                # path re-arms the trigger itself.
                self._reorder_pending = True
                self._auto_trigger <<= 1
                if _obs.ENABLED:
                    _obs.event(
                        "bdd.unique_growth", nodes=found, trigger=self._auto_trigger
                    )
            budget = self._budget
            if budget is not None and found >= self._budget_check_at:
                # Cooperative governance: deadline/cancellation/hard node
                # ceiling, re-checked every check_interval fresh nodes so a
                # runaway single operation is bounded in time and space.
                # The node is fully consed first, so the table stays
                # consistent across the raise.
                budget._kernel_check(self)
        return found

    def var(self, var):
        """The function of the single variable ``var``."""
        self._check_var(var)
        return self._node(var, FALSE, TRUE)

    def nvar(self, var):
        """The negation of the variable ``var``."""
        self._check_var(var)
        return self._node(var, TRUE, FALSE)

    def _check_var(self, var):
        if not 0 <= var < self.num_vars:
            raise EngineError(
                f"variable index {var!r} out of range [0, {self.num_vars})"
            )

    def var_of(self, u):
        """The variable tested at node ``u`` (``num_vars`` for the
        terminals).  Stable across reorders."""
        return self._var[u]

    def level_of(self, u):
        """The current level (depth in the order) of the variable tested at
        node ``u`` (``num_vars`` for the terminals).  Equals :meth:`var_of`
        until the manager reorders."""
        return self._var2level[self._var[u]]

    def level_of_var(self, var):
        """The current level of variable ``var``."""
        self._check_var(var)
        return self._var2level[var]

    def variable_order(self):
        """The current order: the variable index at each level, top down."""
        return tuple(self._level2var[: self.num_vars])

    def low(self, u):
        """The else-branch of node ``u``."""
        return self._low[u]

    def high(self, u):
        """The then-branch of node ``u``."""
        return self._high[u]

    def _cofactors(self, u, level):
        """Both cofactors of ``u`` with respect to the variable at ``level``
        (``u`` itself twice when ``u`` does not test that level)."""
        if self._var2level[self._var[u]] == level:
            return self._low[u], self._high[u]
        return u, u

    # -- ite and the derived connectives -------------------------------------------

    def ite(self, f, g, h):
        """The Shannon operator ``if f then g else h``, memoised."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            self._ite_hits += 1
            return cached
        var_ = self._var
        v2l = self._var2level
        level = min(v2l[var_[f]], v2l[var_[g]], v2l[var_[h]])
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        h0, h1 = self._cofactors(h, level)
        result = self._node(
            self._level2var[level], self.ite(f0, g0, h0), self.ite(f1, g1, h1)
        )
        self._ite_cache[key] = result
        self._bound_ite_cache()
        return result

    def not_(self, f):
        return self.ite(f, FALSE, TRUE)

    def and_(self, f, g):
        return self.ite(f, g, FALSE)

    def or_(self, f, g):
        return self.ite(f, TRUE, g)

    def xor(self, f, g):
        return self.ite(f, self.not_(g), g)

    def implies(self, f, g):
        return self.ite(f, g, TRUE)

    def iff(self, f, g):
        return self.ite(f, g, self.not_(g))

    def diff(self, f, g):
        """Set difference ``f & !g``."""
        return self.ite(f, self.not_(g), FALSE)

    # -- cofactor and quantification -------------------------------------------------

    def restrict(self, u, var, value):
        """The cofactor of ``u`` with variable ``var`` fixed to ``value``."""
        self._check_var(var)
        return self._restrict(u, var, bool(value))

    def _restrict(self, u, var, value):
        v2l = self._var2level
        node_var = self._var[u]
        if v2l[node_var] > v2l[var]:
            return u
        if node_var == var:
            return self._high[u] if value else self._low[u]
        key = ("restrict", u, var, value)
        cached = self._op_cache.get(key)
        if cached is not None:
            self._op_hits += 1
            return cached
        result = self._node(
            node_var,
            self._restrict(self._low[u], var, value),
            self._restrict(self._high[u], var, value),
        )
        self._op_cache[key] = result
        self._bound_op_cache()
        return result

    def _normalize_levels(self, variables):
        """The *current levels* of the given variable indices, sorted.

        Quantification recurses over levels (the structural order), while
        callers speak stable variable indices; the translation happens once
        per public call, so the cached inner recursions stay consistent
        between reorders (every reorder drops the operation caches)."""
        levels = set()
        for var in variables:
            self._check_var(var)
            levels.add(self._var2level[var])
        return tuple(sorted(levels))

    def exists(self, u, variables):
        """Existential quantification of ``u`` over ``variables``."""
        levels = self._normalize_levels(variables)
        if not levels:
            return u
        return self._exists(u, levels)

    def _exists(self, u, levels):
        node_level = self._var2level[self._var[u]]
        if node_level > levels[-1]:
            return u
        key = ("exists", u, levels)
        cached = self._op_cache.get(key)
        if cached is not None:
            self._op_hits += 1
            return cached
        low = self._exists(self._low[u], levels)
        high = self._exists(self._high[u], levels)
        if node_level in levels:
            result = self.or_(low, high)
        else:
            result = self._node(self._var[u], low, high)
        self._op_cache[key] = result
        self._bound_op_cache()
        return result

    def forall(self, u, variables):
        """Universal quantification of ``u`` over ``variables``."""
        return self.not_(self.exists(self.not_(u), variables))

    def and_exists(self, f, g, variables):
        """The combined relational product ``exists variables. f & g``.

        Computing the conjunction and the quantification in one recursion
        never materialises the intermediate ``f & g`` BDD and short-circuits
        to ``TRUE`` as soon as one quantified branch is satisfiable — the
        key primitive behind the symbolic backend's modal images.
        """
        levels = self._normalize_levels(variables)
        if not levels:
            return self.and_(f, g)
        return self._and_exists(f, g, levels)

    def _and_exists(self, f, g, levels):
        if f == FALSE or g == FALSE:
            return FALSE
        if f == TRUE and g == TRUE:
            return TRUE
        if f == TRUE:
            return self._exists(g, levels)
        if g == TRUE:
            return self._exists(f, levels)
        if f > g:  # conjunction is commutative: canonicalise the cache key
            f, g = g, f
        v2l = self._var2level
        level = min(v2l[self._var[f]], v2l[self._var[g]])
        if level > levels[-1]:
            return self.and_(f, g)
        key = ("and_exists", f, g, levels)
        cached = self._op_cache.get(key)
        if cached is not None:
            self._op_hits += 1
            return cached
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        if level in levels:
            result = self._and_exists(f0, g0, levels)
            if result != TRUE:
                result = self.or_(result, self._and_exists(f1, g1, levels))
        else:
            result = self._node(
                self._level2var[level],
                self._and_exists(f0, g0, levels),
                self._and_exists(f1, g1, levels),
            )
        self._op_cache[key] = result
        self._bound_op_cache()
        return result

    # -- renaming ---------------------------------------------------------------------

    def rename(self, u, mapping):
        """Rename the variables of ``u`` according to ``mapping``.

        ``mapping`` is a sequence of ``(old_var, new_var)`` pairs (or a
        dict).  The mapping must be *order-preserving* on the support of
        ``u`` — relative variable order may not change, which the
        unprimed ↔ primed swaps of interleaved relational encodings satisfy
        by construction (and keep satisfying under reordering, since the
        pairs move as keep-groups).  A violation raises
        :class:`~repro.util.errors.VariableOrderError` (a ``ValueError``)
        rather than silently producing a mis-ordered diagram.
        """
        if isinstance(mapping, dict):
            mapping = tuple(sorted(mapping.items()))
        else:
            mapping = tuple(mapping)
        for old, new in mapping:
            self._check_var(old)
            self._check_var(new)
        return self._rename(u, mapping, dict(mapping))

    def _rename(self, u, mapping, mapping_dict):
        if u <= TRUE:
            return u
        key = ("rename", u, mapping)
        cached = self._op_cache.get(key)
        if cached is not None:
            self._op_hits += 1
            return cached
        node_var = self._var[u]
        new_var = mapping_dict.get(node_var, node_var)
        low = self._rename(self._low[u], mapping, mapping_dict)
        high = self._rename(self._high[u], mapping, mapping_dict)
        v2l = self._var2level
        new_level = v2l[new_var]
        if v2l[self._var[low]] <= new_level or v2l[self._var[high]] <= new_level:
            raise VariableOrderError(
                f"rename mapping {mapping!r} is not order-preserving on the "
                f"support of node {u} (variable {node_var} -> {new_var})"
            )
        result = self._node(new_var, low, high)
        self._op_cache[key] = result
        self._bound_op_cache()
        return result

    # -- evaluation, counting, enumeration ----------------------------------------------

    def evaluate(self, u, assignment):
        """Evaluate ``u`` at a point.  ``assignment`` maps variable indices
        to truth values (a dict, or a sequence indexed by variable)."""
        while u > TRUE:
            if assignment[self._var[u]]:
                u = self._high[u]
            else:
                u = self._low[u]
        return u == TRUE

    def sat_count(self, u):
        """The number of satisfying assignments of ``u`` over *all*
        ``num_vars`` variables of the manager."""
        return self._sat_count(u) << self._var2level[self._var[u]]

    def _sat_count(self, u):
        # Counts assignments to the variables at levels >= level_of(u).
        if u <= TRUE:
            return u
        key = ("count", u)
        cached = self._op_cache.get(key)
        if cached is not None:
            self._op_hits += 1
            return cached
        v2l = self._var2level
        low, high = self._low[u], self._high[u]
        level = v2l[self._var[u]]
        result = (self._sat_count(low) << (v2l[self._var[low]] - level - 1)) + (
            self._sat_count(high) << (v2l[self._var[high]] - level - 1)
        )
        self._op_cache[key] = result
        self._bound_op_cache()
        return result

    def sat_all(self, u):
        """Yield the satisfying *paths* of ``u`` as dicts ``var -> bool``.

        Variables absent from a yielded dict are unconstrained (each path
        stands for ``2 ** missing`` full assignments); enumeration follows
        the variable order, so the output is deterministic for a fixed
        order.
        """
        if u == FALSE:
            return
        if u == TRUE:
            yield {}
            return
        var = self._var[u]
        for value, child in ((False, self._low[u]), (True, self._high[u])):
            for partial in self.sat_all(child):
                path = {var: value}
                path.update(partial)
                yield path

    def support(self, u):
        """The set of variable indices ``u`` actually depends on."""
        seen = set()
        variables = set()
        stack = [u]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            variables.add(self._var[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return variables

    def size(self, u):
        """The number of distinct internal nodes reachable from ``u``."""
        seen = set()
        stack = [u]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return len(seen)

    # -- dynamic variable reordering ----------------------------------------------------

    def enable_reordering(self, groups=None, threshold=None):
        """Arm growth-triggered dynamic reordering.

        ``groups`` is an optional iterable of variable-index tuples that
        must stay adjacent, in the given internal order (keep-groups — the
        current/primed bit pairs of a relational encoding).  ``threshold``
        is the unique-table size at which the manager first *requests* a
        reorder; the request is only a flag (:attr:`reorder_pending`), the
        sift itself runs when a client calls :meth:`maybe_reorder` at a safe
        point.  The trigger re-arms at ``max(threshold, 2 * table)`` after
        every reorder.
        """
        if threshold is not None:
            if threshold < 1:
                raise EngineError("reorder threshold must be a positive node count")
            self._reorder_threshold = threshold
        if groups is not None:
            self._set_groups(groups)
        self._reorder_enabled = True
        self._auto_trigger = max(self._reorder_threshold, len(self._var) + 1)

    def disable_reordering(self):
        """Disarm the growth trigger (a pending request is dropped)."""
        self._reorder_enabled = False
        self._auto_trigger = None
        self._reorder_pending = False

    @property
    def reorder_enabled(self):
        return self._reorder_enabled

    @property
    def reorder_pending(self):
        """True when the growth trigger fired and a safe-point
        :meth:`maybe_reorder` call would run a sift."""
        return self._reorder_pending

    def variable_groups(self):
        """The keep-groups in current level order (singletons for ungrouped
        variables); ``None`` until groups are declared or a reorder ran."""
        if self._group_order is None:
            return None
        return tuple(self._group_order)

    def declare_groups(self, groups):
        """Declare keep-groups without arming the growth trigger.

        :meth:`enable_reordering` both declares groups and arms automatic
        sifting; this declares only, so an *explicit* :meth:`reorder` —
        e.g. the mitigation ladder of :mod:`repro.resilience` on a manager
        whose owner never opted into dynamic reordering — still moves the
        relational current/primed pairs as units and keeps the prime
        renames order-preserving.
        """
        self._set_groups(groups)

    @property
    def live_nodes(self):
        """The current unique-table entry count — the live node population
        a :class:`repro.resilience.Budget` node ceiling governs.  (The node
        arrays never shrink; ``cache_info()['unique.nodes']`` reports that
        monotone peak instead.)"""
        return len(self._unique)

    def _set_groups(self, groups):
        group_of = {}
        for group in groups:
            group = tuple(group)
            if not group:
                continue
            for var in group:
                self._check_var(var)
                if var in group_of:
                    raise EngineError(
                        f"variable {var} appears in more than one keep-group"
                    )
                group_of[var] = group
            levels = [self._var2level[var] for var in group]
            if levels != list(range(levels[0], levels[0] + len(group))):
                raise EngineError(
                    f"keep-group {group!r} must occupy adjacent levels in order "
                    f"(found levels {levels!r})"
                )
        order = []
        level = 0
        while level < self.num_vars:
            var = self._level2var[level]
            group = group_of.get(var, (var,))
            if group[0] != var:
                raise EngineError(
                    f"keep-group {group!r} does not start at its top level"
                )
            order.append(group)
            level += len(group)
        self._group_order = order

    def maybe_reorder(self, roots=None):
        """Run a pending reorder, if any, and return whether one ran.

        This is the *safe point* API: callers invoke it between kernel
        operations (fixed-point loop iterations, construction rounds), never
        from within a recursion, because a swap rewrites nodes that in-flight
        operations may hold in local variables.
        """
        if not self._reorder_pending or not self._reorder_enabled or self._in_reorder:
            return False
        self.reorder(roots)
        return True

    def reorder(self, roots=None):
        """Run one pass of Rudell group sifting; returns ``(before, after)``
        live node counts.

        ``roots`` is an iterable of node ids whose reachable nodes define
        the *live* diagram the sift minimises; liveness is tracked
        incrementally with reference counts as swaps rewrite edges.  Live
        node ids survive: a swap rewrites dependent nodes in place, so every
        live id keeps denoting the same boolean function.

        Nodes *not* reachable from the roots are garbage-collected — their
        unique-table entries are purged and they are never rewritten again,
        so their ids become invalid (this is what keeps a sift's cost
        proportional to the live diagram instead of compounding: a dead node
        rewritten at every swap would spawn fresh dead cofactor nodes each
        time).  Callers must therefore root every node they intend to keep
        using.  With ``roots=None`` every current table node is a root —
        nothing pre-existing can die, ids stay universally valid, and only
        the transient nodes created by the sift itself are collected.

        The operation caches are dropped afterwards (their level-keyed
        entries are stale); ``ite`` results would remain valid but are
        dropped too for uniformity.
        """
        if self._in_reorder:
            raise EngineError("reorder() re-entered — not a safe point")
        if self._group_order is None:
            self._group_order = [
                (self._level2var[level],) for level in range(self.num_vars)
            ]
        before = None
        swaps_before = self._swap_count
        sift_span = _obs.span("bdd.reorder")
        sift_span.__enter__()
        try:
            live_ref, live_size = self._trace_live(roots)
            if roots is not None:
                # Garbage-collect: only reachable nodes keep unique entries
                # (and with them the ability to be returned by ``_node`` or
                # rewritten by swaps).  Zombie slots stay in the arrays but
                # are invalid.
                purged = 0
                for key, u in list(self._unique.items()):
                    if u not in live_ref:
                        del self._unique[key]
                        purged += 1
                self._gc_passes += 1
                self._gc_purged += purged
                if _obs.ENABLED:
                    _obs.event("bdd.gc", purged=purged, live=live_size)
            self._build_var_index()
            before = live_size
            self._live_ref = live_ref
            self._live_size = live_size
            self._in_reorder = True
            try:
                var_group = {}
                for group in self._group_order:
                    for var in group:
                        var_group[var] = group
                sizes = {}
                for u in live_ref:
                    group = var_group.get(self._var[u])
                    if group is not None:
                        sizes[group] = sizes.get(group, 0) + 1
                for group in sorted(
                    self._group_order, key=lambda g: sizes.get(g, 0), reverse=True
                ):
                    if sizes.get(group, 0) == 0:
                        continue
                    self._sift_group(group)
            except BaseException:
                # An interruption (cancellation, injected fault, kernel
                # error) between elementary swaps can leave a keep-group
                # physically split across levels, which would break the
                # order-preservation of the prime renames.  Levels and
                # reference counts are consistent at swap granularity, so
                # adjacency can be restored with the same primitive.
                self._repair_group_adjacency()
                raise
        finally:
            self._in_reorder = False
            self._live_ref = None
            self._var_nodes = None
            # The operation caches' level-keyed entries are stale the moment
            # any level moved (and, after a GC, may reference purged nodes),
            # so they are dropped on *every* exit path; likewise a pending
            # request must not survive an aborted pass, else the next safe
            # point would immediately re-enter it.
            self.clear_operation_caches()
            self._reorder_pending = False
            if self._reorder_enabled:
                self._auto_trigger = max(self._reorder_threshold, 2 * len(self._var))
            sift_span.__exit__(None, None, None)
        after = self._live_size
        self._reorder_count += 1
        self._last_reorder = (before, after)
        if _obs.ENABLED:
            _obs.event(
                "bdd.reorder",
                before=before,
                after=after,
                swaps=self._swap_count - swaps_before,
                trigger=self._auto_trigger,
            )
        return before, after

    def _repair_group_adjacency(self):
        """Recover keep-group adjacency after an interrupted sift.

        A group move is a sequence of elementary swaps; an exception in the
        middle leaves the two groups interleaved (each with its internal
        order intact, since swaps never permute within a group).  Walking
        the groups top-down and bubbling every member up to the block under
        its leader restores contiguity from any between-swaps state.  Runs
        with fault injection suppressed — the repair itself must not be
        re-interrupted — and rebuilds the group order from the repaired
        levels.
        """
        from repro.resilience import faults as _faults

        v2l = self._var2level
        with _faults.suppressed():
            for group in sorted(
                (g for g in self._group_order if len(g) > 1),
                key=lambda g: min(v2l[var] for var in g),
            ):
                top = min(v2l[var] for var in group)
                for offset, var in enumerate(group):
                    target = top + offset
                    level = v2l[var]
                    while level > target:
                        self._swap_levels(level - 1)
                        level -= 1
        group_of = {}
        for group in self._group_order:
            for var in group:
                group_of[var] = group
        order = []
        level = 0
        while level < self.num_vars:
            var = self._level2var[level]
            group = group_of.get(var, (var,))
            order.append(group)
            level += len(group)
        self._group_order = order

    def _build_var_index(self):
        """Per-variable lists of the *live* nodes (exactly the unique-table
        entries — dead nodes were just purged from it), the work-lists the
        swap primitive processes.  Rebuilt at every reorder, dropped after."""
        index = [[] for _ in range(self.num_vars)]
        var_ = self._var
        for u in self._unique.values():
            index[var_[u]].append(u)
        self._var_nodes = index

    def _trace_live(self, roots):
        """Reference counts over the nodes reachable from ``roots`` (every
        unique-table entry a root when ``roots`` is None — zombie slots of
        earlier reorders stay dead); a root mark counts as one reference, so
        externally held nodes never die during swaps."""
        low_, high_ = self._low, self._high
        if roots is None:
            root_set = list(self._unique.values())
        else:
            root_set = {r for r in roots if r > TRUE}
        visited = set()
        stack = [r for r in root_set if r > TRUE]
        while stack:
            u = stack.pop()
            if u in visited:
                continue
            visited.add(u)
            for child in (low_[u], high_[u]):
                if child > TRUE and child not in visited:
                    stack.append(child)
        live_ref = {}
        for r in root_set:
            if r > TRUE:
                live_ref[r] = live_ref.get(r, 0) + 1
        for u in visited:
            for child in (low_[u], high_[u]):
                if child > TRUE:
                    live_ref[child] = live_ref.get(child, 0) + 1
        return live_ref, len(visited)

    def _live_incref(self, u):
        if u <= TRUE:
            return
        count = self._live_ref.get(u, 0)
        self._live_ref[u] = count + 1
        if count == 0:
            self._live_size += 1
            self._live_incref(self._low[u])
            self._live_incref(self._high[u])

    def _live_decref(self, u):
        """Drop one reference; a node dying (count reaching zero) releases
        its children and is *purged* — its unique entry goes away, so it can
        neither be returned by ``_node`` again nor rewritten by later swaps
        (its frozen triple may become mis-ordered as levels keep moving)."""
        if u <= TRUE:
            return
        count = self._live_ref[u] - 1
        self._live_ref[u] = count
        if count == 0:
            self._live_size -= 1
            key = (self._var[u], self._low[u], self._high[u])
            if self._unique.get(key) == u:
                del self._unique[key]
            self._live_decref(self._low[u])
            self._live_decref(self._high[u])

    def _swap_levels(self, level):
        """Swap the variables at ``level`` and ``level + 1`` in place.

        Live nodes at the upper level whose children do not test the lower
        variable are untouched; *dependent* live nodes are rewritten in
        place — keeping their id, hence their function — to test the lower
        variable over (possibly fresh) children testing the upper one.
        Distinct functions stay distinct, so the rewritten unique-table keys
        never collide.  Dead nodes (purged by :meth:`_live_decref`) are
        skipped entirely: reference counts are exact over the live diagram,
        so nothing reachable ever points at a skipped node.
        """
        if _faults.ARMED:
            # Chaos hook: an injected raise lands here, *between* swaps —
            # each individual swap is exception-atomic by construction.
            _faults.fire("bdd.swap")
        l2v = self._level2var
        upper = l2v[level]
        lower = l2v[level + 1]
        var_, low_, high_ = self._var, self._low, self._high
        unique = self._unique
        live_ref = self._live_ref
        old_nodes = self._var_nodes[upper]
        keep = self._var_nodes[upper] = []
        moved = self._var_nodes[lower]
        l2v[level], l2v[level + 1] = lower, upper
        self._var2level[upper] = level + 1
        self._var2level[lower] = level
        for u in old_nodes:
            if live_ref.get(u, 0) == 0:
                # Died since it was listed (a transient of an earlier swap,
                # already purged from the unique table) — drop it.
                continue
            f0 = low_[u]
            f1 = high_[u]
            t0 = var_[f0] == lower
            t1 = var_[f1] == lower
            if not (t0 or t1):
                # Independent of the lower variable: the node keeps testing
                # the upper one, one level further down.
                keep.append(u)
                continue
            del unique[(upper, f0, f1)]
            if t0:
                f00, f01 = low_[f0], high_[f0]
            else:
                f00 = f01 = f0
            if t1:
                f10, f11 = low_[f1], high_[f1]
            else:
                f10 = f11 = f1
            g0 = self._node(upper, f00, f10)
            g1 = self._node(upper, f01, f11)
            var_[u] = lower
            low_[u] = g0
            high_[u] = g1
            unique[(lower, g0, g1)] = u
            moved.append(u)
            # Incref the new children before releasing the old ones so a
            # shared node never transiently dies (death purges it).
            self._live_incref(g0)
            self._live_incref(g1)
            self._live_decref(f0)
            self._live_decref(f1)
        self._swap_count += 1

    def _swap_adjacent_groups(self, index):
        """Swap the keep-groups at positions ``index`` and ``index + 1`` of
        the group order via elementary level swaps (internal order of both
        groups preserved)."""
        order = self._group_order
        upper_group = order[index]
        lower_group = order[index + 1]
        top = self._var2level[upper_group[0]]
        size_upper = len(upper_group)
        for j in range(len(lower_group)):
            start = top + size_upper + j
            for lvl in range(start, top + j, -1):
                self._swap_levels(lvl - 1)
        order[index], order[index + 1] = lower_group, upper_group

    def _move_group(self, position, target):
        while position < target:
            self._swap_adjacent_groups(position)
            position += 1
        while position > target:
            self._swap_adjacent_groups(position - 1)
            position -= 1
        return position

    def _sift_group(self, group):
        """Sift one keep-group: try every position (closer end first, with a
        growth abort), then settle at the best one seen."""
        order = self._group_order
        start = order.index(group)
        last = len(order) - 1
        best_size = self._live_size
        best_pos = start
        max_size = 2 * best_size + 64
        position = start
        ends = (last, 0) if last - start <= start else (0, last)
        for end in ends:
            step = 1 if end > position else -1
            while position != end and self._live_size <= max_size:
                if step == 1:
                    self._swap_adjacent_groups(position)
                    position += 1
                else:
                    self._swap_adjacent_groups(position - 1)
                    position -= 1
                if self._live_size < best_size:
                    best_size = self._live_size
                    best_pos = position
                    max_size = 2 * best_size + 64
            position = self._move_group(position, start)
        self._move_group(position, best_pos)

    # -- observability -----------------------------------------------------------------

    def cache_info(self):
        """Sizes and accounting of the manager's memoisation layers, keyed
        by the canonical metric schema of :mod:`repro.obs.registry` (see
        the module docstring there for the full vocabulary).

        ``cache.*.high_water`` reports the largest size each operation
        cache ever reached (including the current size) and survives every
        clear; ``cache.*.hits``/``cache.*.misses`` account every memo
        lookup over the manager's lifetime; ``cache.clears`` counts
        overflow-triggered clears against ``cache.ceiling``;
        ``gc.passes``/``gc.purged`` the rooted-reorder collections; the
        ``reorder.*`` keys the dynamic-reordering state, which the nested
        ``reorder_stats`` dict also groups under short names.
        """
        info = {
            "unique.nodes": len(self._var) - 2,
            "cache.ite.size": len(self._ite_cache),
            "cache.op.size": len(self._op_cache),
            "cache.ite.high_water": max(self._ite_high_water, len(self._ite_cache)),
            "cache.op.high_water": max(self._op_high_water, len(self._op_cache)),
            "cache.ite.hits": self._ite_hits,
            "cache.ite.misses": self._ite_misses,
            "cache.op.hits": self._op_hits,
            "cache.op.misses": self._op_misses,
            "cache.clears": self._cache_clears,
            "cache.ceiling": self.cache_ceiling,
            "gc.passes": self._gc_passes,
            "gc.purged": self._gc_purged,
            "reorder.enabled": self._reorder_enabled,
            "reorder.pending": self._reorder_pending,
            "reorder.count": self._reorder_count,
            "reorder.swaps": self._swap_count,
            "reorder.last_size": self._last_reorder,
            "reorder.trigger": self._auto_trigger,
        }
        info["reorder_stats"] = {
            "enabled": self._reorder_enabled,
            "pending": self._reorder_pending,
            "reorders": self._reorder_count,
            "swaps": self._swap_count,
            "last_size": self._last_reorder,
            "trigger": self._auto_trigger,
        }
        return info

    def clear_operation_caches(self):
        """Drop the ``ite`` and quantify/rename/count memos.

        The unique table is untouched, so every node id remains valid;
        subsequent operations just recompute their memo entries.  This is
        the safe way to bound a long-lived manager's cache footprint.
        """
        self._ite_high_water = max(self._ite_high_water, len(self._ite_cache))
        self._op_high_water = max(self._op_high_water, len(self._op_cache))
        self._ite_cache.clear()
        self._op_cache.clear()

    def __repr__(self):
        return f"BDD(num_vars={self.num_vars}, |nodes|={len(self._var) - 2})"
