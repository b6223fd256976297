"""Build contexts from finite-domain variable models.

This is the front-end used to state all the paper's examples: a context is
described by

* a :class:`repro.modeling.state_space.StateSpace` of variables;
* per-agent *observable variables* (inducing the local-state projection:
  the local state is the restriction of the assignment to the observables);
* per-agent actions given as named :class:`repro.modeling.state_space.Assignment`
  effects (a ``noop`` action is added automatically unless present);
* an initial-state constraint (boolean expression) or explicit state list;
* optional environment actions with their own effects and an environment
  protocol selecting which are available in which state;
* an optional global constraint restricting the state space.

The transition function applies the environment effect first and then every
agent's effect, all reading the *pre-round* state (so effects within a round
do not observe each other); writes to the same variable by different
participants must be avoided by the modeller and are reported as errors.

A variable context computes each derived fact once: the transition
function, the local-state projection and the labelling are pure functions of
the global state (and joint action), so their closures memoise every answer
for the lifetime of the context.  This is why the model's tables are frozen
when the context is built (see :class:`VariableContextSpec`) and why an
``extra_labels`` callback must be a pure function of the state.  The generic
:class:`repro.systems.context.Context` memoises nothing, since hand-written
callbacks need not be pure.
"""

from types import MappingProxyType

from repro.modeling.expressions import Expression
from repro.modeling.state_space import Assignment, StateSpace
from repro.modeling.variables import Variable
from repro.systems.actions import Action, NOOP_NAME
from repro.systems.context import Context
from repro.util.errors import ModelError, ProgramError


class VariableContextSpec:
    """The ingredients of a variable-based context, kept for introspection.

    Instances are produced by :func:`variable_context` and attached to the
    resulting :class:`repro.systems.context.Context` as ``context.spec`` so
    that tools (e.g. the implementation search) can enumerate states and
    actions symbolically.  Besides the materialised ``initial_states``, the
    spec records the *raw* ingredients — the initial-state constraint
    expression, the global constraint, any custom environment protocol,
    admissibility predicate and extra-label function — so that
    :func:`repro.symbolic.model.compile_context` can rebuild the context as
    BDDs without enumerating anything.

    ``observables``, ``actions`` (with every per-agent action table) and
    ``env_effects`` are read-only views: they are the very tables the
    context's memoised closures read, so they must not change after the
    context is built.
    """

    def __init__(
        self,
        state_space,
        observables,
        actions,
        env_effects,
        initial_states,
        initial_condition=None,
        global_constraint=None,
        env_protocol=None,
        admissibility=None,
        extra_labels=None,
    ):
        self.state_space = state_space
        self.observables = MappingProxyType(observables)
        self.actions = MappingProxyType(
            {agent: MappingProxyType(table) for agent, table in actions.items()}
        )
        self.env_effects = MappingProxyType(env_effects)
        self.initial_states = initial_states
        self.initial_condition = initial_condition
        self.global_constraint = global_constraint
        self.env_protocol = env_protocol
        self.admissibility = admissibility
        self.extra_labels = extra_labels

    def action(self, agent, name):
        """Return agent ``agent``'s :class:`Action` called ``name``."""
        try:
            return self.actions[agent][name]
        except KeyError:
            raise ProgramError(f"agent {agent!r} has no action {name!r}") from None


def _resolve_variable_names(state_space, names):
    resolved = []
    for name in names:
        if isinstance(name, Variable):
            name = name.name
        if name not in state_space:
            raise ModelError(f"unknown observable variable {name!r}")
        resolved.append(name)
    return tuple(sorted(set(resolved)))


def _normalise_actions(actions):
    """Normalise an action table to ``{agent: {name: Action}}``."""
    table = {}
    for agent, agent_actions in actions.items():
        resolved = {}
        for name, effect in dict(agent_actions).items():
            if isinstance(effect, Action):
                action = effect
            elif isinstance(effect, Assignment):
                action = Action(name, effect)
            elif isinstance(effect, dict):
                action = Action(name, Assignment(effect))
            else:
                raise ProgramError(
                    f"effect of action {name!r} of agent {agent!r} must be an "
                    f"Assignment, Action or dict, got {effect!r}"
                )
            resolved[name] = action
        if NOOP_NAME not in resolved:
            resolved[NOOP_NAME] = Action(NOOP_NAME, Assignment({}))
        table[agent] = resolved
    return table


def variable_context(
    name,
    state_space,
    observables,
    actions,
    initial,
    env_effects=None,
    env_protocol=None,
    global_constraint=None,
    admissibility=None,
    extra_labels=None,
):
    """Build a :class:`repro.systems.context.Context` from a variable model.

    Parameters
    ----------
    name:
        Identifier for reports.
    state_space:
        The :class:`StateSpace` of all variables.
    observables:
        Mapping ``agent -> iterable of variables/names`` the agent observes.
    actions:
        Mapping ``agent -> {action name -> effect}`` where the effect is an
        :class:`Assignment`, an :class:`Action` or a plain ``{var: expr}``
        dict.  A ``noop`` action is added when missing.
    initial:
        Either a boolean :class:`Expression` selecting the initial states or
        an explicit iterable of :class:`State` objects.
    env_effects:
        Optional mapping ``env action name -> Assignment`` of environment
        effects; the default environment has the single action ``None`` with
        no effect.
    env_protocol:
        Optional ``state -> iterable of env action names``; defaults to
        offering every environment action everywhere.
    global_constraint:
        Optional boolean expression; states violating it are excluded from
        the state space (both as initial states and as transition targets —
        a transition into an excluded state is a modelling error).
    admissibility:
        Optional predicate on finite state sequences (the paper's ``Psi``).
    extra_labels:
        Optional ``state -> iterable of extra proposition names`` merged into
        the variable labelling (useful for derived predicates).  It must be
        a pure function of the state: each state's labelling is computed
        once and memoised, as are its local states and transitions.

    Returns
    -------
    Context
        With the attribute ``spec`` set to a :class:`VariableContextSpec`.
    """
    if not isinstance(state_space, StateSpace):
        raise ModelError("state_space must be a StateSpace instance")

    agents = tuple(observables)
    observable_names = {
        agent: _resolve_variable_names(state_space, names) for agent, names in observables.items()
    }
    action_table = _normalise_actions(actions)
    missing = set(agents) - set(action_table)
    for agent in sorted(missing):
        action_table[agent] = {NOOP_NAME: Action(NOOP_NAME, Assignment({}))}

    env_effects = {
        env_name: (effect if isinstance(effect, Assignment) else Assignment(effect))
        for env_name, effect in dict(env_effects or {}).items()
    }
    if not env_effects:
        env_effects = {None: Assignment({})}

    custom_env_protocol = env_protocol
    if env_protocol is None:
        all_env = tuple(env_effects)

        def env_protocol(state):  # noqa: F811 - intentional default closure
            return all_env

    allowed = None
    if global_constraint is not None:
        allowed = set(state_space.states(global_constraint))

    if isinstance(initial, Expression):
        initial_states = [
            state
            for state in state_space.states(initial)
            if allowed is None or state in allowed
        ]
    else:
        initial_states = list(initial)
        for state in initial_states:
            if allowed is not None and state not in allowed:
                raise ModelError(f"initial state {state} violates the global constraint")
    if not initial_states:
        raise ModelError("no initial states satisfy the initial condition")

    # Memos of the three pure callbacks below (see the module docstring).
    # Failing transitions are not stored, so a write conflict or a
    # constraint violation raises on every call.
    transitions = {}
    local_states = {}
    labellings = {}

    def apply_joint_action(state, joint_action):
        env_name = joint_action.env
        if env_name not in env_effects:
            raise ModelError(f"unknown environment action {env_name!r}")
        new_values = state.as_dict()
        writers = {}

        def merge(effect, who):
            changes = {name: expr.evaluate(state.as_dict()) for name, expr in effect.updates.items()}
            for variable_name, value in changes.items():
                if variable_name in writers and new_values[variable_name] != value:
                    raise ModelError(
                        f"write conflict on variable {variable_name!r}: "
                        f"{writers[variable_name]!r} and {who!r} disagree"
                    )
                writers[variable_name] = who
                new_values[variable_name] = state_space.variable(variable_name).check(value)

        merge(env_effects[env_name], f"env:{env_name}")
        for agent in agents:
            act_name = joint_action.action_of(agent)
            action = action_table[agent].get(act_name)
            if action is None:
                raise ProgramError(f"agent {agent!r} has no action {act_name!r}")
            merge(action.effect, f"{agent}:{act_name}")

        next_state = state_space.state(new_values)
        if allowed is not None and next_state not in allowed:
            raise ModelError(
                f"transition target {next_state} violates the global constraint "
                f"(from {state} via {joint_action})"
            )
        return next_state

    def transition(state, joint_action):
        key = (state, joint_action)
        next_state = transitions.get(key)
        if next_state is None:
            next_state = transitions[key] = apply_joint_action(state, joint_action)
        return next_state

    def local_state(agent, state):
        key = (agent, state)
        local = local_states.get(key)
        if local is None:
            local = local_states[key] = state.restrict(observable_names[agent])
        return local

    def labelling(state):
        labels = labellings.get(state)
        if labels is None:
            labels = set(state_space.labelling(state))
            if extra_labels is not None:
                labels |= set(extra_labels(state))
            labels = labellings[state] = frozenset(labels)
        return labels

    context = Context(
        name=name,
        agents=agents,
        initial_states=initial_states,
        transition=transition,
        local_state=local_state,
        labelling=labelling,
        agent_actions={agent: tuple(action_table[agent]) for agent in agents},
        env_actions=env_protocol,
        admissibility=admissibility,
    )
    context.spec = VariableContextSpec(
        state_space=state_space,
        observables=observable_names,
        actions=action_table,
        env_effects=env_effects,
        initial_states=tuple(initial_states),
        initial_condition=initial if isinstance(initial, Expression) else None,
        global_constraint=global_constraint,
        env_protocol=custom_env_protocol,
        admissibility=admissibility,
        extra_labels=extra_labels,
    )
    return context
