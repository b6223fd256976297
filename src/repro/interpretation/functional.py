"""The interpretation functional ``Pg^I``.

Given a knowledge-based program ``Pg`` and any *view* of a system (reachable
states plus local-state indistinguishability and labelling), the functional
evaluates every guard at every local state of every agent and produces the
standard protocol that performs, at each local state, exactly the actions of
the enabled clauses (or the fallback action when none is enabled).

Two kinds of view are supported:

* a full :class:`repro.systems.interpreted_system.InterpretedSystem`
  (generated by a protocol) — the case appearing in the definition of
  implementation;
* a :class:`StateSetView`, i.e. an arbitrary set of global states of a
  context assumed reachable — used by the exhaustive implementation search
  and by iteration seeds ("assume everything reachable").

Guard evaluation is *batched*: :func:`guard_table` computes the extensions
of every distinct clause guard of every agent in one pass through the
engine's batched evaluator (epistemic subformulas grouped per operator and
agent/group and dispatched through the backend's ``*_many`` operators) and
then decides each ``(agent, local state, clause)`` entry with two world-set
operations against the agent's indistinguishability classes
(:func:`repro.engine.evaluator.uniform_value`).  The independent reference
for these decisions is :func:`repro.oracle.guard_value`.
"""

from repro import obs as _obs
from repro.engine import evaluator_for, uniform_value
from repro.kripke.builders import structure_from_local_states
from repro.symbolic.bdd import TRUE
from repro.systems.actions import NOOP_NAME
from repro.systems.context import LocalStateIndexMixin
from repro.systems.protocols import JointProtocol, Protocol
from repro.util.errors import InterpretationError, ModelError, ProgramError

__all__ = [
    "StateSetView",
    "GuardTable",
    "guard_table",
    "derive_protocol",
]


class StateSetView(LocalStateIndexMixin):
    """A hypothetical system: a context together with a set of states assumed
    reachable.

    The view exposes the same knowledge-evaluation interface as
    :class:`repro.systems.interpreted_system.InterpretedSystem` (``states``,
    ``extension``, ``local_states``, ``states_with_local_state``), so the
    functional can be applied to it.  The view is immutable, so its
    :attr:`evaluator` cache never needs invalidation: repeated guard queries
    against the same view (the common case in the interpretation loops) are
    answered from the persistent subformula cache.
    """

    def __init__(self, context, states):
        states = tuple(states)
        if not states:
            raise ModelError("a state-set view needs at least one state")
        self.context = context
        self._states = states
        labelling = {state: context.labelling(state) for state in states}
        self.structure = structure_from_local_states(
            states, context.local_state, labelling, context.agents
        )

    @property
    def states(self):
        return self._states

    @property
    def agents(self):
        return self.context.agents

    @property
    def evaluator(self):
        """The persistent formula evaluator over the view's structure."""
        return evaluator_for(self.structure)

    def extension(self, formula):
        return self.evaluator.extension(formula)

    def holds(self, state, formula):
        return state in self.extension(formula)

    def local_states(self, agent):
        return self.context.local_states_of(agent, self._states)

    def __repr__(self):
        return f"StateSetView({self.context.name!r}, |S|={len(self._states)})"


class GuardTable:
    """The guards x local-state-class uniformity table of a program over a view.

    Built by :func:`guard_table`.  The first guard query evaluates *every*
    distinct clause guard of the program in one batched pass through the
    view's persistent evaluator
    (:meth:`repro.engine.evaluator.Evaluator.extensions_ws` — epistemic
    nodes grouped by operator and agent/group, one backend ``*_many`` call
    per group), instead of one scalar engine pass per ``(local state,
    clause)`` pair; a table that is never consulted (a construction round
    with no new local states) costs nothing.  Uniformity per
    indistinguishability class is then
    :func:`repro.engine.evaluator.uniform_value` against the agent's
    local-state indicator sets (the witness classes in backend
    representation), answered lazily and memoised.
    """

    def __init__(self, view, program):
        self.view = view
        self.program = program
        context_agents = frozenset(view.context.agents)
        guards = []
        seen = set()
        for agent_program in program:
            # The functional only consults the context's agents; guards of
            # extra program agents are never queried and may mention
            # relations the view's structure does not carry, so they must
            # not enter the batched pass.
            if agent_program.agent not in context_agents:
                continue
            for clause in agent_program.clauses:
                if clause.guard not in seen:
                    seen.add(clause.guard)
                    guards.append(clause.guard)
        self._guards = guards
        self._evaluator = view.evaluator
        # The batched pass is deferred to the first guard query: rounds of
        # ``construct_by_rounds`` whose local states are all already decided
        # build a table but never consult it, and must not pay for one.
        self._extensions = None
        self._witness_sets = {}
        self._values = {}

    # -- guard values ----------------------------------------------------------------

    def value(self, agent, local_state, guard):
        """Return the guard's uniform value on the agent's witness class:
        ``True``/``False`` when it holds at all/none of the states with this
        local state, ``None`` when it differs between them (non-local guard).

        A local state no state of the view carries raises
        :class:`InterpretationError`.
        """
        key = (agent, local_state, guard)
        try:
            return self._values[key]
        except KeyError:
            pass
        # The batched guard pass runs first, so a budget raise inside a
        # round is noticed at its evaluator safe point.
        extension = self._guard_extension(guard)
        witnesses = self._witness_ws(agent, local_state)
        backend = self._evaluator.backend
        if backend.is_empty(witnesses):
            raise InterpretationError(
                f"no state in the view has local state {local_state!r} for agent {agent!r}"
            )
        value = uniform_value(backend, witnesses, extension)
        self._values[key] = value
        return value

    def holds(self, agent, local_state, guard, require_local=True):
        """Decide the guard at the local state.  A non-local guard raises
        :class:`InterpretationError` under ``require_local`` (the paper
        requires tests to be local); otherwise it is read existentially (the
        clause is enabled if its guard holds at some state with this local
        state), which resolves the test by environment nondeterminism."""
        value = self.value(agent, local_state, guard)
        if value is not None:
            return value
        if require_local:
            raise InterpretationError(
                f"guard {guard} of agent {agent!r} is not local: its value differs on "
                f"indistinguishable states with local state {local_state!r}"
            )
        return True

    # -- clause selection --------------------------------------------------------------

    def enabled_actions(self, agent, local_state, require_local=True):
        """Return the actions of the enabled clauses of ``agent`` at the
        local state (the fallback action when none is enabled; the no-op for
        agents the program does not mention)."""
        try:
            agent_program = self.program.program(agent)
        except ProgramError:  # agent without a program idles
            return frozenset({NOOP_NAME})
        enabled = [
            clause.action
            for clause in agent_program.clauses
            if self.holds(agent, local_state, clause.guard, require_local=require_local)
        ]
        if not enabled:
            if agent_program.fallback is None:
                raise InterpretationError(
                    f"no clause of agent {agent!r} is enabled at local state "
                    f"{local_state!r} and the program has no fallback action"
                )
            enabled = [agent_program.fallback]
        return frozenset(enabled)

    def fallback_actions(self, agent):
        """The action set for local states outside the view: the agent's
        fallback (``None`` when the program has none), the no-op for agents
        without a program."""
        try:
            fallback = self.program.program(agent).fallback
        except ProgramError:
            return frozenset({NOOP_NAME})
        if fallback is None:
            return None
        return frozenset({fallback})

    # -- internals ---------------------------------------------------------------------

    def _guard_extensions(self):
        extensions = self._extensions
        if extensions is None:
            with _obs.span("guard_table.batch", guards=len(self._guards)):
                computed = self._evaluator.extensions_ws(self._guards)
            if _obs.ENABLED:
                _obs.counter("guard_table.batches")
                _obs.counter("guard_table.guards", len(self._guards))
            extensions = self._extensions = dict(zip(self._guards, computed))
        return extensions

    def _guard_extension(self, guard):
        extensions = self._guard_extensions()
        if guard not in extensions:
            # A guard outside the program (ad-hoc query): evaluate it through
            # the same representation the table uses.
            extensions[guard] = self._evaluator.extension_ws(guard)
        return extensions[guard]

    def _witness_ws(self, agent, local_state):
        """The agent's class of ``local_state`` as a backend world-set."""
        key = (agent, local_state)
        ws = self._witness_sets.get(key)
        if ws is None:
            ws = self._witness_sets[key] = self._evaluator.backend.from_worlds(
                self._evaluator.structure,
                self.view.states_with_local_state(agent, local_state),
            )
        return ws

    def __repr__(self):
        return (
            f"GuardTable({self.view!r}, {len(self._guards)} guards, "
            f"{len(self._values)} values)"
        )


def _fallback_set(program, agent):
    """The action set ``agent`` performs where its protocol decides
    nothing: the program's fallback, or the no-op for an agent without a
    program or without a fallback."""
    try:
        fallback = program.program(agent).fallback
    except ProgramError:
        fallback = NOOP_NAME
    return frozenset({fallback if fallback is not None else NOOP_NAME})


def _mentioned_actions(program, agent):
    try:
        actions = frozenset(program.program(agent).actions())
    except ProgramError:
        actions = frozenset()
    return actions or frozenset({NOOP_NAME})


def _uniform_protocol(program, context, actions_of):
    """A joint protocol performing ``actions_of(program, agent)`` at every
    local state.  It also carries that behaviour as class BDDs
    (``selection_nodes``, every action over the constant-true class set), so
    the symbolic carrier can seed from it or check it without enumerating
    a local state."""
    protocols = {}
    nodes = {}
    for agent in context.agents:
        actions = actions_of(program, agent)
        protocols[agent] = Protocol(agent, lambda local_state, acts=actions: acts)
        nodes[agent] = tuple(sorted((str(action), TRUE) for action in actions))
    joint = JointProtocol(protocols)
    joint.selection_nodes = nodes
    return joint


def liberal_protocol(program, context):
    """The seed protocol that allows, at every local state, *all* actions the
    agent's program ever mentions (over-approximating every implementation's
    behaviour, analogous to starting from "all states reachable")."""
    return _uniform_protocol(program, context, _mentioned_actions)


def restrictive_protocol(program, context):
    """The seed protocol that performs only the fallback action everywhere
    (under-approximating behaviour, analogous to starting from "nothing
    reachable beyond the initial states")."""
    return _uniform_protocol(program, context, _fallback_set)


def guard_table(view, program):
    """Return the (memoised) :class:`GuardTable` of ``program`` over ``view``.

    One table is kept per (view, program identity) pair on the view, so
    repeated functional applications against the same view — the inner loop
    of :func:`derive_protocol`, :func:`repro.interpretation.iteration.construct_by_rounds`
    and :func:`repro.interpretation.synthesis.enumerate_implementations` — share
    one batched guard evaluation.

    A view may provide its own table implementation through a
    ``make_guard_table(program)`` hook — the symbolic state-set views of
    :mod:`repro.symbolic.model` return a
    :class:`~repro.symbolic.model.SymbolicGuardTable` whose uniformity
    decisions are BDD projections over whole class sets instead of
    per-local-state witness scans.
    """
    try:
        tables = view._guard_tables
    except AttributeError:
        tables = view._guard_tables = {}
    table = tables.get(program)
    if table is None:
        maker = getattr(view, "make_guard_table", None)
        table = tables[program] = maker(program) if maker else GuardTable(view, program)
    return table


def derive_protocol(program, view, require_local=True, fallback_on_unknown=True):
    """Apply the functional: return the standard joint protocol ``Pg^view``.

    Parameters
    ----------
    program:
        A :class:`repro.programs.knowledge_based.KnowledgeBasedProgram`.
    view:
        An :class:`repro.systems.interpreted_system.InterpretedSystem` or
        :class:`StateSetView`.
    require_local:
        Enforce the paper's locality requirement on guards (see
        :meth:`GuardTable.holds`).
    fallback_on_unknown:
        The derived protocol is tabulated on the local states occurring in
        the view.  For other local states it performs the agent's fallback
        action when this flag is set (the convention used for behavioural
        comparison); otherwise looking them up raises an error.

    Returns
    -------
    JointProtocol
        Performing, at each local state, the actions of the enabled clauses
        or the fallback action if none is enabled.

    Guard evaluation goes through :func:`guard_table`: all clause guards of
    all agents are evaluated in one batched engine pass and each
    ``(local state, clause)`` decision is two world-set operations against
    the agent's indistinguishability classes.

    Symbolic views and systems (``is_symbolic_view``) dispatch to
    :func:`repro.interpretation.symbolic.derive_protocol_symbolic`, which
    decides whole class sets per agent (one ``enabled_sets`` call) instead
    of looping over enumerated local states — the functional then costs BDD
    operations, not ``|local states|`` lookups.
    """
    if getattr(view, "is_symbolic_view", False):
        from repro.interpretation.symbolic import derive_protocol_symbolic

        return derive_protocol_symbolic(
            program,
            view,
            require_local=require_local,
            fallback_on_unknown=fallback_on_unknown,
        )
    context = view.context
    table = guard_table(view, program)
    protocols = {}
    for agent in context.agents:
        agent_table = {
            local_state: table.enabled_actions(
                agent, local_state, require_local=require_local
            )
            for local_state in view.local_states(agent)
        }
        default = table.fallback_actions(agent)
        protocols[agent] = Protocol(
            agent, agent_table, default=default if fallback_on_unknown else None
        )
    return JointProtocol(protocols)
