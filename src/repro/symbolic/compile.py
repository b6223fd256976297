"""Compile variable models straight to BDDs — no state enumeration.

This module is the lower half of the enumeration-free construction pipeline
(:mod:`repro.symbolic.model` is the upper half): a
:class:`VariableEncoding` fixes a per-variable binary encoding of a
:class:`~repro.modeling.state_space.StateSpace` over a private
:class:`~repro.symbolic.bdd.BDD` manager and compiles the whole
:mod:`repro.modeling.expressions` algebra to BDDs over it.  Nothing in this
module ever iterates ``StateSpace.states()``: every set of states is built
from the *structure* of the expressions describing it, so its cost is a
function of diagram size, not of ``∏|domain|``.

Encoding layout
---------------

Every variable ``v`` gets ``bits(v) = max(1, ceil(log2 |dom(v)|))`` boolean
variables; a value's code is its index in the (ordered) domain tuple, most
significant bit first.  Each boolean variable exists in a *current* and a
*primed* copy, interleaved — for the global bit position ``p`` (counted
across variables in state-space order)::

    level 2p       current copy of bit p
    level 2p + 1   primed  copy of bit p

The interleaving keeps every relational building block small: the equality
``v = v'`` is a chain of adjacent level pairs (linear in ``bits(v)``; the
frame of the transition relation is a conjunction of such chains), and
both renaming directions (``level ± 1`` uniformly) are
order-preserving, so :meth:`~repro.symbolic.bdd.BDD.rename` implements the
current ↔ primed swap.  Codes ``>= |dom|`` of a non-power-of-two domain are
invalid; :meth:`VariableEncoding.domain_node` is the set of valid codes and
plays the role the dense-index encoding's ``domain`` plays for complements.

Expression compilation
----------------------

Boolean expressions compile by structural recursion
(:meth:`VariableEncoding.truth_node`); arithmetic compiles by *value-range
case splits* (:meth:`VariableEncoding.values_map`): the compiled form of an
arithmetic expression is a finite map ``value -> BDD`` whose guards
partition the (valid) state space — a ``VarRef`` splits into its domain's
value cubes, a ``BinaryOp`` combines the operand splits pairwise and merges
equal results, an ``Ite`` guards its branch splits with the compiled
condition.  Comparisons then reduce to a disjunction over the satisfying
value pairs, i.e. the comparison is *bit-blasted* through the value cubes
rather than evaluated per state.  The case-split tables are as big as the
expressions' value ranges, not as the state space; guards of distinct
variables share no levels, so the pairwise conjunctions stay cube-sized.

Both compilers memoise per expression *identity* (not structural equality:
``Expression.__eq__`` is overloaded to build comparisons, so expressions
must never be used as dict keys), which matches how models hold their
expressions — one shared object per constraint/effect.
"""

from repro.modeling.expressions import (
    BinaryOp,
    BoolOp,
    Comparison,
    Const,
    Expression,
    Ite,
    NotOp,
    VarRef,
)
from repro.modeling.state_space import State
from repro.modeling.variables import Variable
from repro.symbolic.bdd import BDD, FALSE, TRUE
from repro.util.errors import ModelError

__all__ = ["VariableEncoding", "EVALUATION_ERROR"]


class _EvaluationError:
    """Sentinel key of a value-range case split: the guard filed under it
    covers the states where evaluating the expression *raises* (``x % z``
    where ``z`` can be 0, say).  Effects tolerate such regions — they only
    matter if a round actually reaches them, exactly as the explicit
    transition function only raises on evaluated states — while guards and
    constraints reject them eagerly, as the explicit enumerator evaluates
    constraints on every assignment it visits."""

    def __repr__(self):
        return "EVALUATION_ERROR"


EVALUATION_ERROR = _EvaluationError()


class VariableEncoding:
    """The per-variable binary encoding of a state space over a BDD manager.

    One encoding owns one manager; every BDD built from the same state
    space shares its hash-consed nodes and memo caches.  All methods are
    memoised, so repeated compilation of the same (identical) expression or
    cube is free after the first call.
    """

    def __init__(self, state_space, cache_ceiling=None, variable_order=None):
        self.state_space = state_space
        if variable_order is None:
            self.variables = state_space.variables
        else:
            # A custom level order (a permutation of the space's variables):
            # BDD sizes are extremely order-sensitive — variables that
            # constrain each other should sit next to each other — and the
            # declaration order of a state space need not be a good one.
            names = [
                name.name if isinstance(name, Variable) else name
                for name in variable_order
            ]
            if sorted(names) != sorted(v.name for v in state_space.variables):
                raise ModelError(
                    "variable_order must be a permutation of the state space's variables"
                )
            self.variables = tuple(state_space.variable(name) for name in names)
        self._bits = {}
        self._offset = {}
        self._codes = {}
        bit_owner = []
        for variable in self.variables:
            bits = max(1, (len(variable.domain) - 1).bit_length())
            self._bits[variable.name] = bits
            self._offset[variable.name] = len(bit_owner)
            self._codes[variable.name] = {
                value: code for code, value in enumerate(variable.domain)
            }
            bit_owner.extend((variable.name, i, bits) for i in range(bits))
        self._bit_owner = tuple(bit_owner)
        self.total_bits = len(bit_owner)
        kwargs = {} if cache_ceiling is None else {"cache_ceiling": cache_ceiling}
        self.bdd = BDD(2 * self.total_bits, **kwargs)
        self.current_levels = tuple(2 * p for p in range(self.total_bits))
        self.primed_levels = tuple(2 * p + 1 for p in range(self.total_bits))
        self._to_primed = tuple(zip(self.current_levels, self.primed_levels))
        self._to_current = tuple(zip(self.primed_levels, self.current_levels))
        self._cube_memo = {}
        self._eq_memo = {}
        self._domain_memo = {}
        self._truth_memo = {}
        self._values_memo = {}
        self._value_errors = {}
        # id()-keyed memos need the expressions alive for the keys to stay
        # unambiguous; models hold their expressions anyway, this makes the
        # encoding safe on its own.
        self._keepalive = []

    # -- layout ------------------------------------------------------------------------

    def bits_of(self, name):
        """The number of encoding bits of the named variable."""
        return self._bits[name]

    def variable_levels(self, name, primed=False):
        """The levels of the named variable's bits (most significant first)."""
        base = self._offset[name]
        shift = 1 if primed else 0
        return tuple(2 * (base + i) + shift for i in range(self._bits[name]))

    def code_of(self, name, value):
        """The integer code of ``value`` in the named variable's domain."""
        try:
            return self._codes[name][value]
        except KeyError:
            raise ModelError(
                f"value {value!r} is not in the domain of variable {name!r}"
            ) from None

    def _resolve_name(self, variable):
        name = variable.name if isinstance(variable, Variable) else variable
        if name not in self._bits:
            raise ModelError(f"state space has no variable {name!r}")
        return name

    # -- cubes and domains -------------------------------------------------------------

    def value_node(self, variable, value, primed=False):
        """The cube BDD of ``variable == value`` (over one variable copy)."""
        name = self._resolve_name(variable)
        key = (name, value, primed)
        cached = self._cube_memo.get(key)
        if cached is not None:
            return cached
        code = self.code_of(name, value)
        bits = self._bits[name]
        base = self._offset[name]
        shift = 1 if primed else 0
        bdd = self.bdd
        # Build bottom-up in *current level* order: the declared bit order
        # equals it only until the manager reorders, so sort by live depth.
        literals = sorted(
            (
                (bdd.level_of_var(2 * (base + i) + shift), 2 * (base + i) + shift, i)
                for i in range(bits)
            ),
            reverse=True,
        )
        node = TRUE
        for _, var, i in literals:
            if (code >> (bits - 1 - i)) & 1:
                node = bdd._node(var, FALSE, node)
            else:
                node = bdd._node(var, node, FALSE)
        self._cube_memo[key] = node
        return node

    def variable_domain_node(self, variable, primed=False):
        """The set of *valid* codes of one variable (``TRUE`` when the
        domain size is a power of two)."""
        name = self._resolve_name(variable)
        key = (name, primed)
        cached = self._domain_memo.get(key)
        if cached is None:
            domain = self.state_space.variable(name).domain
            if len(domain) == 1 << self._bits[name]:
                cached = TRUE
            else:
                cached = FALSE
                for value in domain:
                    cached = self.bdd.or_(cached, self.value_node(name, value, primed))
            self._domain_memo[key] = cached
        return cached

    def domain_node(self, primed=False):
        """The set of valid codes of the whole space (one variable copy)."""
        key = ("*", primed)
        cached = self._domain_memo.get(key)
        if cached is None:
            cached = TRUE
            for variable in reversed(self.variables):
                cached = self.bdd.and_(
                    self.variable_domain_node(variable, primed), cached
                )
            self._domain_memo[key] = cached
        return cached

    def state_node(self, state, primed=False):
        """The minterm BDD of one full :class:`State`."""
        node = TRUE
        for variable in reversed(self.variables):
            node = self.bdd.and_(
                self.value_node(variable.name, state[variable.name], primed), node
            )
        return node

    def cube_node(self, assignment, primed=False):
        """The cube BDD of a partial assignment — an iterable of
        ``(name, value)`` pairs or a mapping (e.g. an agent's local state as
        produced by :meth:`State.restrict`)."""
        pairs = assignment.items() if hasattr(assignment, "items") else assignment
        node = TRUE
        for name, value in pairs:
            node = self.bdd.and_(self.value_node(name, value, primed), node)
        return node

    def equality_node(self, variable):
        """The relation BDD ``v = v'`` — the building block of frame
        conditions in transition relations; linear in ``bits(v)`` thanks to
        the interleaved level layout."""
        name = self._resolve_name(variable)
        cached = self._eq_memo.get(name)
        if cached is None:
            node_ = self.bdd._node
            base = self._offset[name]
            # Deepest (current level) pair first; each (current, primed)
            # pair stays adjacent-in-order under reordering because the
            # pairs are the manager's keep-groups, so the per-bit gadget
            # shape is order-safe — only the chaining order can change.
            pairs = sorted(
                (2 * (base + i) for i in range(self._bits[name])),
                key=self.bdd.level_of_var,
                reverse=True,
            )
            node = TRUE
            for current in pairs:
                node = node_(
                    current,
                    node_(current + 1, node, FALSE),
                    node_(current + 1, FALSE, node),
                )
            self._eq_memo[name] = cached = node
        return cached

    # -- renaming and evaluation -------------------------------------------------------

    def prime(self, node):
        """Rename a current-variable BDD onto the primed copies."""
        return self.bdd.rename(node, self._to_primed)

    def unprime(self, node):
        """Rename a primed-variable BDD onto the current copies."""
        return self.bdd.rename(node, self._to_current)

    def evaluate_node(self, node, state, primed_state=None):
        """Evaluate a BDD at a point given by one (or two) states.

        ``state`` supplies the current-variable bits; ``primed_state`` the
        primed ones (for relation BDDs).  Either may be a :class:`State` or
        any mapping from variable name to value.
        """
        bdd = self.bdd
        owner = self._bit_owner
        while node > TRUE:
            var = bdd.var_of(node)
            name, i, bits = owner[var >> 1]
            source = primed_state if var & 1 else state
            if source is None:
                raise ModelError("relation BDD evaluated without a primed state")
            code = self.code_of(name, source[name])
            if (code >> (bits - 1 - i)) & 1:
                node = bdd.high(node)
            else:
                node = bdd.low(node)
        return node == TRUE

    def count(self, node):
        """The number of states of a current-variable set BDD (the primed
        copies are unconstrained and divided back out)."""
        return self.bdd.sat_count(node) >> self.total_bits

    def iter_states(self, node):
        """Yield the :class:`State` objects of a current-variable set BDD.

        Deterministic (domain order per variable, state-space variable
        order outermost); cost is proportional to the number of solutions —
        call it only on sets known to be small, this is the enumerating
        boundary the compilation pipeline otherwise avoids.
        """
        for assignment in self.iter_assignments(node, None):
            yield State(assignment)

    def iter_assignments(self, node, names):
        """Yield the satisfying assignments of a set BDD over the named
        variables as ``{name: value}`` dicts (all variables when ``names``
        is ``None``).  The BDD must not depend on any other variable — pass
        projections (see ``SymbolicContextModel.project``) for partial
        views."""
        if names is None:
            order = self.variables
        else:
            wanted = set(names)
            order = tuple(v for v in self.variables if v.name in wanted)
        yield from self._iter_assignments(node, order, 0, {})

    def _iter_assignments(self, node, order, index, partial):
        if node == FALSE:
            return
        if index == len(order):
            if node != TRUE:
                raise ModelError(
                    "set BDD depends on variables outside the enumerated ones"
                )
            yield dict(partial)
            return
        variable = order[index]
        levels = self.variable_levels(variable.name)
        bdd = self.bdd
        for value in variable.domain:
            code = self.code_of(variable.name, value)
            restricted = node
            for i, level in enumerate(levels):
                bit = (code >> (len(levels) - 1 - i)) & 1
                restricted = bdd._restrict(restricted, level, bool(bit))
                if restricted == FALSE:
                    break
            if restricted != FALSE:
                partial[variable.name] = value
                yield from self._iter_assignments(restricted, order, index + 1, partial)
                del partial[variable.name]

    # -- dynamic reordering ------------------------------------------------------------

    def reorder_groups(self):
        """The keep-groups for dynamic reordering: one ``(current, primed)``
        level pair per encoding bit.  Sifting whole pairs keeps the
        interleaving — and with it the :meth:`prime`/:meth:`unprime` renames
        and the :meth:`equality_node` gadgets — valid under any order."""
        return tuple((2 * p, 2 * p + 1) for p in range(self.total_bits))

    def enable_reordering(self, threshold=None):
        """Arm the manager's growth-triggered sifting with the encoding's
        pair keep-groups (see :meth:`repro.symbolic.bdd.BDD.enable_reordering`)."""
        self.bdd.enable_reordering(groups=self.reorder_groups(), threshold=threshold)

    def reorder_roots(self):
        """The nodes the encoding itself holds (memoised cubes, equalities,
        domains, compiled expressions) — the encoding's contribution to the
        live root set a reorder's size metric tracks."""
        roots = []
        roots.extend(self._cube_memo.values())
        roots.extend(self._eq_memo.values())
        roots.extend(self._domain_memo.values())
        roots.extend(self._truth_memo.values())
        for table in self._values_memo.values():
            roots.extend(table.values())
        return roots

    # -- expression compilation --------------------------------------------------------

    def truth_node(self, expression):
        """Compile a boolean :class:`Expression` to the BDD of the states
        satisfying it (truthiness matches ``State.satisfies``)."""
        key = id(expression)
        cached = self._truth_memo.get(key)
        if cached is None:
            cached = self._truth(expression)
            self._truth_memo[key] = cached
            self._keepalive.append(expression)
        return cached

    def _truth(self, expression):
        bdd = self.bdd
        if isinstance(expression, Comparison):
            compare = expression._FUNCTIONS[expression.op]
            left_table = self.values_map(expression.left)
            right_table = self.values_map(expression.right)
            self._reject_value_errors(expression, left_table, right_table)
            node = FALSE
            for left_value, left_guard in left_table.items():
                for right_value, right_guard in right_table.items():
                    if compare(left_value, right_value):
                        node = bdd.or_(node, bdd.and_(left_guard, right_guard))
            return node
        if isinstance(expression, BoolOp):
            if expression.op == "and":
                node = TRUE
                for operand in expression.operands:
                    node = bdd.and_(node, self.truth_node(operand))
            else:
                node = FALSE
                for operand in expression.operands:
                    node = bdd.or_(node, self.truth_node(operand))
            return node
        if isinstance(expression, NotOp):
            return bdd.not_(self.truth_node(expression.operand))
        if isinstance(expression, Expression):
            # Value-typed expression in a boolean position (a bare boolean
            # VarRef, an Ite, an arithmetic expression): true where its
            # value is truthy, exactly as ``State.satisfies`` reads it.
            table = self.values_map(expression)
            self._reject_value_errors(expression, table)
            node = FALSE
            for value, guard in table.items():
                if value:
                    node = bdd.or_(node, guard)
            return node
        raise ModelError(f"cannot compile {expression!r} as a boolean expression")

    def _reject_value_errors(self, expression, *tables):
        """Boolean positions must be total: a guard or constraint whose
        evaluation can raise on some domain combination cannot be compiled
        (the explicit enumerator evaluates it on every assignment and would
        raise too)."""
        for table in tables:
            if EVALUATION_ERROR in table:
                errors = sorted(map(repr, self._value_errors.values()))
                detail = f" (first error: {errors[0]})" if errors else ""
                raise ModelError(
                    f"cannot compile {expression} as a boolean expression: "
                    f"evaluating a subexpression raises for some domain "
                    f"values{detail}"
                )

    def values_map(self, expression):
        """Compile an :class:`Expression` to its value-range case split:
        a ``{value: guard BDD}`` map whose guards are disjoint and cover the
        valid states (the compiled form of arithmetic)."""
        key = id(expression)
        cached = self._values_memo.get(key)
        if cached is None:
            cached = self._values(expression)
            self._values_memo[key] = cached
            self._keepalive.append(expression)
        return cached

    def _values(self, expression):
        bdd = self.bdd
        if isinstance(expression, Const):
            return {expression.value: TRUE}
        if isinstance(expression, VarRef):
            name = self._resolve_name(expression.variable)
            space_variable = self.state_space.variable(name)
            if space_variable != expression.variable:
                raise ModelError(
                    f"variable {name!r} of the expression differs from the "
                    f"state space's variable of that name"
                )
            return {
                value: self.value_node(name, value) for value in space_variable.domain
            }
        if isinstance(expression, BinaryOp):
            combine = expression._FUNCTIONS[expression.op]
            result = {}
            for left_value, left_guard in self.values_map(expression.left).items():
                for right_value, right_guard in self.values_map(expression.right).items():
                    guard = bdd.and_(left_guard, right_guard)
                    if guard == FALSE:
                        continue
                    if left_value is EVALUATION_ERROR or right_value is EVALUATION_ERROR:
                        value = EVALUATION_ERROR
                    else:
                        try:
                            value = combine(left_value, right_value)
                        except Exception as error:
                            # The explicit path raises only when a state in
                            # this guard's region is *evaluated*; file the
                            # region under the error sentinel so effects can
                            # stay lazy about it (boolean positions reject it
                            # through _reject_value_errors).
                            self._value_errors[id(expression)] = error
                            value = EVALUATION_ERROR
                    result[value] = bdd.or_(result.get(value, FALSE), guard)
            return result
        if isinstance(expression, Ite):
            condition = self.truth_node(expression.condition)
            result = {}
            for branch, guard_node in (
                (expression.then, condition),
                (expression.otherwise, bdd.not_(condition)),
            ):
                for value, value_guard in self.values_map(branch).items():
                    guard = bdd.and_(guard_node, value_guard)
                    if guard != FALSE:
                        result[value] = bdd.or_(result.get(value, FALSE), guard)
            return result
        if isinstance(expression, (Comparison, BoolOp, NotOp)):
            node = self.truth_node(expression)
            return {True: node, False: self.bdd.not_(node)}
        raise ModelError(f"cannot compile {expression!r} as a value expression")

    # -- observability -----------------------------------------------------------------

    def cache_info(self):
        """Encoding-level memo sizes merged with the manager's, keyed by
        the canonical schema of :mod:`repro.obs.registry` (``memo.cubes``,
        ``memo.expressions``)."""
        info = dict(self.bdd.cache_info())
        info["memo.cubes"] = len(self._cube_memo)
        info["memo.expressions"] = len(self._truth_memo) + len(self._values_memo)
        return info

    def __repr__(self):
        return (
            f"VariableEncoding({len(self.variables)} variables, "
            f"bits={self.total_bits}, |nodes|={self.bdd.cache_info()['unique.nodes']})"
        )
