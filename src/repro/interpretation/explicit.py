"""The explicit carrier: interpretation over enumerated states.

States are enumerated, protocols are tables keyed by local state, and
reachable sets are frozensets.  This module supplies the explicit ops of
the representation-neutral algorithms; :mod:`repro.interpretation.symbolic`
supplies the BDD ops of the same algorithms.

* :class:`ExplicitConstructionOps` — one round of the depth-stratified
  construction of :func:`repro.interpretation.iteration.construct_by_rounds`;
* :class:`ExplicitIterationOps` — represent/derive/signature for
  :func:`repro.interpretation.iteration.iterate_interpretation`;
* :func:`check_implementation_explicit` — the fixed-point test behind
  :func:`repro.interpretation.synthesis.check_implementation`: generate the
  system, re-derive the protocol over it, and compare the two action sets
  at every arising local state;
* :class:`ExplicitSynthesisOps` — candidate sets of states for
  :func:`repro.interpretation.synthesis.run_candidate_search`.

Guards are evaluated through
:func:`repro.interpretation.functional.guard_table`, which evaluates *all*
clause guards of *all* agents in one batched pass through the active
:mod:`repro.engine` backend and answers each per-local-state test with two
world-set operations against the agent's indistinguishability classes.
"""

from repro.interpretation.functional import (
    StateSetView,
    _fallback_set,
    derive_protocol,
    guard_table,
)
from repro.interpretation.synthesis import ImplementationReport, _state_key
from repro.systems.interpreted_system import InterpretedSystem, represent
from repro.systems.protocols import JointProtocol, Protocol
from repro.systems.transition_system import TransitionSystem
from repro.util.errors import InterpretationError, IterationLimitError
from repro.util.helpers import stable_sort_key


def _protocol_signature(joint_protocol, context, states):
    """A canonical, hashable description of a protocol's behaviour on the
    local states arising from ``states``.

    The local states are ordered by :func:`repro.util.helpers.stable_sort_key`
    rather than by ``repr``: with the default (address-embedding) ``repr``,
    equal local states recreated across iterations would sort differently,
    so signatures of behaviourally identical protocols could disagree and
    fixed-point/cycle detection would become nondeterministic.

    Protocols materialised by the symbolic path carry their behaviour as
    canonical class-BDD ids (``selection_nodes``); over a symbolic context
    the signature is read straight off those ids — no local state is ever
    materialised.  (Node ids identify class BDDs globally, so equal
    signatures mean equal behaviour; the tag keeps them disjoint from
    enumerated signatures.)
    """
    nodes = getattr(joint_protocol, "selection_nodes", None)
    if nodes is not None and getattr(context, "is_symbolic_model", False):
        return tuple(
            (agent, ("bdd-classes", nodes.get(agent, ()))) for agent in context.agents
        )
    signature = []
    for agent in context.agents:
        locals_here = sorted(context.local_states_of(agent, states), key=stable_sort_key)
        signature.append(
            (
                agent,
                tuple(
                    (local, tuple(sorted(map(str, joint_protocol.actions(agent, local)))))
                    for local in locals_here
                ),
            )
        )
    return tuple(signature)


class _ExplicitOps:
    """What every explicit ops object shares: no BDD manager, so the node
    ceiling, the reorder rung and the reorder safe points do not apply."""

    backend = "explicit"
    manager = None
    groups = None

    def __init__(self, program, context, require_local, max_states):
        self.program = program
        self.context = context
        self.require_local = require_local
        self.max_states = max_states

    def reorder_roots(self, *live):
        return []

    def safe_point(self, roots):
        pass


class ExplicitConstructionOps(_ExplicitOps):
    """The explicit round of the depth-stratified construction.

    Committed state: ``depths`` (state -> depth), ``order`` (discovery
    order), ``transitions``, ``tables`` (agent -> local state -> frozen
    action set) and ``frontier`` (the states of the deepest round).  A round
    collects its decisions, transitions and new states in fresh containers
    and merges them into the committed ones only after its last transition,
    so a raise anywhere in the round leaves the previous round intact.
    """

    kind = "construct_by_rounds"

    def __init__(self, program, context, require_local, max_states):
        super().__init__(program, context, require_local, max_states)
        initial = list(dict.fromkeys(context.initial_states))
        self.depths = dict.fromkeys(initial, 0)
        self.order = initial
        self.transitions = []
        self.tables = {agent: {} for agent in context.agents}
        self.frontier = list(initial)

    def snapshot(self):
        return {
            "depths": dict(self.depths),
            "order": list(self.order),
            "transitions": list(self.transitions),
            "tables": {agent: dict(table) for agent, table in self.tables.items()},
            "frontier": list(self.frontier),
        }

    def restore(self, partial):
        # Own copies, so the partial stays reusable.
        self.depths = dict(partial.depths)
        self.order = list(partial.order)
        self.transitions = list(partial.transitions)
        self.tables = {agent: dict(table) for agent, table in partial.tables.items()}
        self.frontier = list(partial.frontier)

    def is_open(self):
        return bool(self.frontier)

    def round_stats(self):
        return {"frontier": len(self.frontier), "states": len(self.order)}

    def round(self):
        context = self.context
        depths = self.depths
        tables = self.tables
        depth = depths[self.frontier[0]] + 1
        room = self.max_states - len(depths)
        # One batched guard evaluation per round: every clause guard of every
        # agent is computed over the round's view in one engine pass, and the
        # per-local-state decisions below are plain world-set operations.
        guards = guard_table(StateSetView(context, self.order), self.program)
        decisions = {agent: {} for agent in context.agents}
        found = {}
        transitions = []
        for state in self.frontier:
            chosen = {}
            for agent in context.agents:
                local_state = context.local_state(agent, state)
                enabled = tables[agent].get(local_state)
                if enabled is None:
                    enabled = decisions[agent].get(local_state)
                    if enabled is None:
                        enabled = decisions[agent][local_state] = guards.enabled_actions(
                            agent, local_state, require_local=self.require_local
                        )
                chosen[agent] = enabled
            for joint_action in context.joint_actions(state, chosen):
                target = context.transition(state, joint_action)
                transitions.append((state, joint_action, target))
                if target not in depths and target not in found:
                    if len(found) >= room:
                        raise IterationLimitError(
                            f"round-by-round construction exceeded max_states={self.max_states}",
                            reason="states",
                            site="construct.round",
                            diagnostics={"max_states": self.max_states},
                        )
                    found[target] = depth
        for agent, table in decisions.items():
            tables[agent].update(table)
        depths.update(found)
        self.order.extend(found)
        self.transitions.extend(transitions)
        self.frontier = list(found)

    def result(self, rounds):
        protocols = {
            agent: Protocol(agent, table, default=_fallback_set(self.program, agent))
            for agent, table in self.tables.items()
        }
        transition_system = TransitionSystem(
            self.context, self.order, self.transitions, self.depths
        )
        return JointProtocol(protocols), InterpretedSystem(self.context, transition_system)

    def verify(self, protocol):
        try:
            return check_implementation_explicit(
                protocol,
                self.program,
                self.context,
                require_local=self.require_local,
                max_states=self.max_states,
            ).is_implementation
        except InterpretationError:
            # A guard turned non-local over the completed system: the frozen
            # decisions cannot be a fixed point.
            return False


class ExplicitIterationOps(_ExplicitOps):
    """Explicit primitives of the functional iteration: an iterate is a
    joint protocol, representing it generates the reachable transition
    system, and two systems are the same iterate's when their states and
    transitions agree."""

    kind = "iterate_interpretation"

    def seed(self, protocol):
        return protocol

    def represent(self, protocol):
        return represent(self.context, protocol, max_states=self.max_states), protocol

    def signature(self, protocol, system):
        return _protocol_signature(protocol, self.context, system.states)

    def derive(self, system):
        return derive_protocol(self.program, system, require_local=self.require_local)

    def system_key(self, system):
        return (
            frozenset(system.states),
            frozenset(system.transition_system.transition_relation()),
        )

    def result(self, protocol, system):
        return protocol, system


def check_implementation_explicit(
    joint_protocol, program, context, require_local=True, max_states=100000
):
    """The enumerating fixed-point test: generate the system, re-derive the
    protocol over it, and compare the two action sets at every arising local
    state."""
    system = represent(context, joint_protocol, max_states=max_states)
    derived = derive_protocol(program, system, require_local=require_local)
    differences = []
    for agent in context.agents:
        for local_state in sorted(system.local_states(agent), key=stable_sort_key):
            candidate_actions = joint_protocol.actions(agent, local_state)
            derived_actions = derived.actions(agent, local_state)
            if candidate_actions != derived_actions:
                differences.append((agent, local_state, candidate_actions, derived_actions))
    return ImplementationReport(not differences, system, derived, differences)


class ExplicitSynthesisOps:
    """Enumerated-state primitives for
    :func:`repro.interpretation.synthesis.run_candidate_search`: the
    universe and the candidates are frozensets of states (an ``all_states``
    override is de-duplicated into one), the free states are ordered by
    their structural sort key, derivation tabulates protocols over a
    :class:`StateSetView`, and generation is
    :func:`repro.systems.interpreted_system.represent`."""

    def __init__(self, program, context, all_states=None, require_local=True, max_states=100000):
        self.program = program
        self.context = context
        self.require_local = require_local
        self.max_states = max_states
        self.universe = None if all_states is None else frozenset(all_states)
        self.initial_set = frozenset(context.initial_states)

    def free_count(self, universe):
        return len(universe - self.initial_set)

    def free_states(self, universe):
        return sorted(universe - self.initial_set, key=_state_key)

    def candidate(self, extra):
        return self.initial_set | frozenset(extra)

    def derive(self, candidate):
        view = StateSetView(self.context, sorted(candidate, key=stable_sort_key))
        return derive_protocol(self.program, view, require_local=self.require_local)

    def represent(self, protocol):
        system = represent(self.context, protocol, max_states=self.max_states)
        return system, frozenset(system.states)

    def matches(self, reachable, candidate):
        return reachable == candidate

    def key(self, reachable):
        return reachable
