"""Contexts: everything about a multi-agent setting except the agents' program.

A context is the paper's ``gamma = (P_e, G_0, tau, Psi)``:

* ``P_e`` — the environment's protocol, a function from global states to the
  non-empty set of environment actions it may perform;
* ``G_0`` — the set of initial global states;
* ``tau`` — the transition function mapping a global state and a joint
  action to the next global state;
* ``Psi`` — an admissibility condition on runs (e.g. channel fairness).

In addition the context records, for each agent, the *local-state
projection* (what part of a global state the agent sees), the set of actions
available to the agent, and the propositional labelling ``pi`` of global
states used to interpret formulas.  Packaging the interpretation with the
context keeps the implementation close to the paper's notion of an
*interpreted context* ``(gamma, pi)``.
"""

from repro.systems.actions import JointAction, NOOP_NAME
from repro.util.errors import ModelError, ProgramError


class Context:
    """An interpreted context ``(gamma, pi)`` over a finite global state space.

    Parameters
    ----------
    name:
        Human-readable identifier used in reports.
    agents:
        Ordered list of agent names.
    initial_states:
        Iterable of (hashable) initial global states.
    transition:
        ``transition(state, joint_action) -> state``; must be total on the
        joint actions offered by the environment protocol and the agents'
        action sets.
    local_state:
        ``local_state(agent, state) -> hashable`` — the agent's view.
    labelling:
        ``labelling(state) -> iterable of proposition names``.
    agent_actions:
        Mapping ``agent -> iterable of action labels`` available to the
        agent.  Every agent must offer at least one action; by convention the
        no-op action :data:`repro.systems.actions.NOOP_NAME` is included in
        all the library's example contexts.
    env_actions:
        ``env_actions(state) -> iterable of environment actions`` (the
        environment protocol ``P_e``).  Defaults to the single dummy action
        ``None``.
    admissibility:
        Optional predicate on finite runs (sequences of global states) used
        to prune inadmissible behaviours when enumerating runs; ``None``
        accepts everything.  This models the paper's ``Psi`` for the bounded
        analyses performed by the library.

    The callbacks are called afresh on every query: a ``Context`` memoises
    nothing, because hand-written callbacks are not guaranteed to be pure.
    Contexts built by :func:`repro.systems.variable_context.variable_context`
    are, and memoise ``transition``, ``local_state`` and ``labelling`` in
    their own closures.
    """

    def __init__(
        self,
        name,
        agents,
        initial_states,
        transition,
        local_state,
        labelling,
        agent_actions,
        env_actions=None,
        admissibility=None,
    ):
        agents = tuple(agents)
        if not agents:
            raise ModelError("a context needs at least one agent")
        if len(set(agents)) != len(agents):
            raise ModelError("duplicate agent names in context")
        initial_states = tuple(initial_states)
        if not initial_states:
            raise ModelError("a context needs at least one initial state")

        self.name = name
        self._agents = agents
        self._initial_states = initial_states
        self._transition = transition
        self._local_state = local_state
        self._labelling = labelling
        self._agent_actions = {
            agent: tuple(actions) for agent, actions in dict(agent_actions).items()
        }
        missing = set(agents) - set(self._agent_actions)
        if missing:
            raise ModelError(f"no action set given for agents {sorted(missing)}")
        for agent, actions in self._agent_actions.items():
            if not actions:
                raise ModelError(f"agent {agent!r} has an empty action set")
        self._env_actions = env_actions if env_actions is not None else (lambda state: (None,))
        self._admissibility = admissibility

    # -- accessors ---------------------------------------------------------------

    @property
    def agents(self):
        return self._agents

    @property
    def initial_states(self):
        return self._initial_states

    def agent_actions(self, agent):
        """Return the tuple of actions available to ``agent``."""
        try:
            return self._agent_actions[agent]
        except KeyError:
            raise ModelError(f"unknown agent {agent!r}") from None

    def env_actions(self, state):
        """Return the environment actions offered at ``state`` (``P_e``)."""
        actions = tuple(self._env_actions(state))
        if not actions:
            raise ModelError(f"environment protocol offers no action at state {state!r}")
        return actions

    def local_state(self, agent, state):
        """Return agent ``agent``'s local state at the global state."""
        if agent not in self._agent_actions:
            raise ModelError(f"unknown agent {agent!r}")
        return self._local_state(agent, state)

    def labelling(self, state):
        """Return the frozenset of propositions true at ``state``."""
        return frozenset(self._labelling(state))

    def transition(self, state, joint_action):
        """Apply the transition function ``tau``."""
        return self._transition(state, joint_action)

    def is_admissible(self, run_states):
        """Check the admissibility condition ``Psi`` on a finite run prefix."""
        if self._admissibility is None:
            return True
        return bool(self._admissibility(run_states))

    # -- convenience -------------------------------------------------------------

    def joint_actions(self, state, chosen):
        """Enumerate the joint actions at ``state`` given, per agent, the set
        of actions the agent's protocol allows (``chosen[agent]``)."""
        env_choices = self.env_actions(state)
        agent_choices = []
        for agent in self._agents:
            actions = tuple(chosen[agent])
            if not actions:
                raise ProgramError(
                    f"protocol of agent {agent!r} selects no action at state {state!r}"
                )
            agent_choices.append(actions)
        result = []
        for env in env_choices:
            result.extend(
                JointAction(env, dict(zip(self._agents, combo)))
                for combo in _cartesian(agent_choices)
            )
        return result

    def successors(self, state, chosen):
        """Return the set of successor states under the allowed choices."""
        return {self.transition(state, joint) for joint in self.joint_actions(state, chosen)}

    def noop_joint_action(self):
        """Return the joint action in which every agent performs the no-op
        (requires every agent to offer :data:`NOOP_NAME`)."""
        for agent in self._agents:
            if NOOP_NAME not in self.agent_actions(agent):
                raise ModelError(f"agent {agent!r} has no {NOOP_NAME!r} action")
        return JointAction(None, {agent: NOOP_NAME for agent in self._agents})

    def local_states_of(self, agent, states):
        """Return the set of local states of ``agent`` over the given global
        states."""
        return {self.local_state(agent, state) for state in states}

    def states_by_local_state(self, agent, states):
        """Group ``states`` by ``agent``-local state.

        Returns ``{local state: frozenset of global states}`` — the
        indistinguishability classes of ``agent`` over the given states.
        """
        grouped = {}
        for state in states:
            grouped.setdefault(self.local_state(agent, state), []).append(state)
        return {local: frozenset(members) for local, members in grouped.items()}

    def __repr__(self):
        return (
            f"Context({self.name!r}, agents={list(self._agents)}, "
            f"|G0|={len(self._initial_states)})"
        )


class LocalStateIndexMixin:
    """Memoised grouping of a knowledge view's states by agent-local state.

    Shared by every object that pairs a ``context`` with a fixed collection
    of ``states`` (interpreted systems, state-set views): ``_locals_of``
    lazily builds the per-agent indistinguishability index, and
    ``states_with_local_state`` answers the induced lookups — the states an
    agent considers possible at one of its local states.
    """

    def _locals_of(self, agent):
        try:
            index_map = self._local_index
        except AttributeError:
            index_map = self._local_index = {}
        index = index_map.get(agent)
        if index is None:
            index = self.context.states_by_local_state(agent, self.states)
            index_map[agent] = index
        return index

    def states_with_local_state(self, agent, local_state):
        """Return the view's states whose ``agent``-local state equals the
        given one."""
        return self._locals_of(agent).get(local_state, frozenset())


def _cartesian(choice_lists):
    """Yield tuples choosing one element from each list (deterministic order)."""
    if not choice_lists:
        yield ()
        return
    head, *tail = choice_lists
    for item in head:
        for rest in _cartesian(tail):
            yield (item,) + rest
