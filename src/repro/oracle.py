"""A definitional oracle: the paper's semantics, written down directly.

This module is a small, deliberately slow checker that shares no code with
the evaluation engines.  It reads formulas through their AST
(:mod:`repro.logic.formula`) and contexts through their callbacks
(``initial_states``, ``agents``, ``local_state``, ``labelling``,
``joint_actions``, ``transition``), and nothing else: no set backend, no
evaluator, no guard table, no spec lowering.  The test-suite and
:func:`repro.spec.fuzz.differential_check` use it as the independent
reference every engine path is compared against.

It provides four things:

* :func:`holds` — truth of a formula at a world, by recursion over the
  AST, with ``K``/``M``/``E``/``D``/``C`` quantifying over an
  ``accessible(agent, world)`` callable;
* :func:`reachable` — the states of ``I_rep(P)``, by naive closure of the
  initial states under ``context.joint_actions`` and ``context.transition``;
* :func:`guard_value` — a guard's value on an agent's local-state class
  over a set of states: ``True``, ``False``, or ``None`` when the guard is
  not local there;
* :func:`implements` — ``P = Pg^{I_rep(P)}``: the protocol equals the
  protocol the program derives over its own reachable states, on every
  local state arising there.

Protocols are callables ``protocol(agent, local_state) -> actions``; pass
``joint_protocol.actions`` for a :class:`repro.systems.protocols.JointProtocol`.
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
from repro.util.errors import FormulaError

__all__ = ["closure", "holds", "extension", "reachable", "guard_value", "implements"]


def closure(start, successors):
    """The set of items reachable from ``start`` (included) by repeatedly
    applying ``successors(item) -> iterable of items``."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        for item in successors(frontier.pop()):
            if item not in seen:
                seen.add(item)
                frontier.append(item)
    return frozenset(seen)


def holds(formula, world, accessible, labels):
    """``world |= formula``, where ``accessible(agent, world)`` is the set of
    worlds the agent considers possible and ``labels(world)`` the
    propositions true at the world."""

    def sat(f, w):
        if isinstance(f, TrueFormula):
            return True
        if isinstance(f, FalseFormula):
            return False
        if isinstance(f, Prop):
            return f.name in labels(w)
        if isinstance(f, Not):
            return not sat(f.operand, w)
        if isinstance(f, And):
            return all(sat(g, w) for g in f.operands)
        if isinstance(f, Or):
            return any(sat(g, w) for g in f.operands)
        if isinstance(f, Implies):
            return not sat(f.antecedent, w) or sat(f.consequent, w)
        if isinstance(f, Iff):
            return sat(f.left, w) == sat(f.right, w)
        if isinstance(f, Knows):
            return all(sat(f.operand, v) for v in accessible(f.agent, w))
        if isinstance(f, Possible):
            return any(sat(f.operand, v) for v in accessible(f.agent, w))
        if isinstance(f, EveryoneKnows):
            return all(sat(f.operand, v) for v in step(f.group, w))
        if isinstance(f, DistributedKnows):
            common = frozenset.intersection(
                *(frozenset(accessible(agent, w)) for agent in f.group)
            )
            return all(sat(f.operand, v) for v in common)
        if isinstance(f, CommonKnows):
            # Every world at the end of a path of length >= 1 through the
            # union of the group's relations.
            reached = closure(step(f.group, w), lambda v: step(f.group, v))
            return all(sat(f.operand, v) for v in reached)
        raise FormulaError(f"the oracle cannot evaluate {f!r}")

    def step(group, w):
        return {v for agent in group for v in accessible(agent, w)}

    return sat(formula, world)


def extension(formula, worlds, accessible, labels):
    """The worlds of ``worlds`` at which ``formula`` holds."""
    return frozenset(w for w in worlds if holds(formula, w, accessible, labels))


def _knowledge(context, states):
    """``accessible``/``labels`` of the epistemic structure over ``states``:
    an agent considers possible exactly the states with its local state."""
    classes = {}
    for state in states:
        for agent in context.agents:
            key = (agent, context.local_state(agent, state))
            classes.setdefault(key, set()).add(state)

    def accessible(agent, state):
        return classes[(agent, context.local_state(agent, state))]

    return classes, accessible, context.labelling


def guard_value(context, states, agent, local_state, guard):
    """The guard's value on the states of ``states`` where ``agent`` has
    ``local_state``: ``True`` (all), ``False`` (none) or ``None`` (some)."""
    classes, accessible, labels = _knowledge(context, states)
    return _class_value(classes.get((agent, local_state), ()), guard, accessible, labels)


def _class_value(members, guard, accessible, labels):
    values = [holds(guard, state, accessible, labels) for state in members]
    if all(values):
        return True
    if not any(values):
        return False
    return None


def reachable(context, protocol):
    """The reachable states of ``I_rep(P)`` for ``protocol(agent, local)``."""

    def successors(state):
        chosen = {
            agent: protocol(agent, context.local_state(agent, state))
            for agent in context.agents
        }
        return (
            context.transition(state, joint)
            for joint in context.joint_actions(state, chosen)
        )

    return closure(context.initial_states, successors)


def implements(context, program, protocol):
    """``True`` iff ``protocol`` equals ``Pg^{I_rep(P)}`` on every local state
    of ``I_rep(P)``: at each class it performs exactly the actions of the
    clauses whose guard holds there (the fallback when none does).  A guard
    that is not local on some class makes the protocol no implementation.
    ``program`` must have a clause list for every agent of the context."""
    classes, accessible, labels = _knowledge(context, reachable(context, protocol))
    for (agent, local_state), members in classes.items():
        agent_program = program.program(agent)
        derived = set()
        for clause in agent_program.clauses:
            value = _class_value(members, clause.guard, accessible, labels)
            if value is None:
                return False
            if value:
                derived.add(clause.action)
        if not derived and agent_program.fallback is not None:
            derived.add(agent_program.fallback)
        if frozenset(protocol(agent, local_state)) != derived:
            return False
    return True
