"""Enumeration-free symbolic models of variable contexts.

This is the upper half of the direct-compilation pipeline
(:mod:`repro.symbolic.compile` is the lower half): a
:class:`SymbolicContextModel` takes the *same ingredients* as
:func:`repro.systems.variable_context.variable_context` — state space,
per-agent observables, named :class:`~repro.modeling.state_space.Assignment`
effects, an initial-state constraint, environment effects, an optional
global constraint — and compiles them to BDDs without ever materialising a
single state:

* the **initial set** and **global constraint** compile through the
  expression compiler (:meth:`VariableEncoding.truth_node`);
* per-agent **observational equivalence** is the conjunction
  ``⋀ (obs = obs')`` of per-variable equality BDDs over the agent's
  observable variables;
* the **transition relation** is assembled from per-variable update
  functions of the named effects: for each participant (environment or
  agent) and each of its actions, the compiled relation constrains exactly
  the participant's written variables (``v' = e(x)`` through the value-range
  case split of ``e``) and frames the rest of the participant's write set;
  variables no participant writes are framed globally.  Write sets of
  distinct participants must be disjoint — the symbolic path rejects
  potentially conflicting writes at compile time, where the explicit
  transition function reports them state by state.

On top of the model sit three small adapters that plug the compiled BDDs
into the *existing* evaluation machinery:

:class:`SymbolicStructure`
    A duck-typed epistemic structure over a world set given as a BDD.  Its
    ``engine_cache`` is pre-seeded with a :class:`StateSetEncoding`, an
    implementation of the encoding protocol of
    :mod:`repro.symbolic.encode`, so the unmodified ``"bdd"``
    :class:`~repro.symbolic.backend_bdd.SymbolicBackend` and
    :class:`~repro.engine.evaluator.Evaluator` operate on it directly —
    modal operators, batching, fixed points and all.  The
    :class:`~repro.modeling.state_space.State`-level conversions
    (``from_worlds``/``to_frozenset``/``contains``) exist only at the API
    boundary and are lazy: nothing enumerates unless explicitly asked to.

:class:`SymbolicStateSetView`
    The enumeration-free analogue of
    :class:`repro.interpretation.functional.StateSetView`: a set of states
    assumed reachable, with knowledge evaluated over them.  It routes
    :func:`repro.interpretation.functional.guard_table` to a
    :class:`SymbolicGuardTable`.

:class:`SymbolicGuardTable`
    Decides program guards per *local-state class* without touching
    individual states: a local guard's extension is a union of observation
    classes, so projecting the extension (and its complement) onto the
    agent's observable variables yields the classes where the guard is
    true (false) in one quantification each — the per-class loop of the
    explicit table becomes two BDD operations per guard.

The round-based interpretation loop living on top of these is
:func:`repro.interpretation.iteration.construct_by_rounds`, run over
:class:`repro.interpretation.symbolic.SymbolicConstructionOps`.
"""

import os

from repro.engine import evaluator_for
from repro.interpretation.functional import GuardTable
from repro.modeling.expressions import Expression
from repro.modeling.state_space import Assignment, State, StateSpace, atom_name
from repro.symbolic.backend_bdd import SymbolicWorldSet
from repro.symbolic.bdd import FALSE, TRUE
from repro.symbolic.compile import VariableEncoding
from repro.systems.actions import NOOP_NAME
from repro.systems.variable_context import _normalise_actions, _resolve_variable_names
from repro.util.errors import InterpretationError, ModelError, ProgramError

__all__ = [
    "SymbolicContextModel",
    "SymbolicStructure",
    "SymbolicStateSetView",
    "SymbolicGuardTable",
    "compile_context",
]


class SymbolicContextModel:
    """A variable context compiled to BDDs, never enumerating states.

    Accepts the same arguments as
    :func:`repro.systems.variable_context.variable_context`; the Python-
    function escape hatches of the explicit path (custom environment
    protocols, admissibility predicates, extra label functions) cannot be
    compiled and are rejected.  Instances satisfy the small slice of the
    :class:`repro.systems.context.Context` interface the interpretation
    layer consults (``agents``, ``agent_actions``, ``local_state``,
    ``name``), so programs validate against a model with the usual
    ``program.check_against_context(model)``.
    """

    #: Dispatch marker for :func:`repro.interpretation.iteration.construct_by_rounds`.
    is_symbolic_model = True

    def __init__(
        self,
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
        cache_ceiling=None,
        variable_order=None,
        reorder=None,
    ):
        if not isinstance(state_space, StateSpace):
            raise ModelError("state_space must be a StateSpace instance")
        if env_protocol is not None:
            raise ModelError(
                "the symbolic path supports only the default environment "
                "protocol (every environment action offered everywhere)"
            )
        if admissibility is not None:
            raise ModelError("the symbolic path does not support admissibility predicates")
        if extra_labels is not None:
            raise ModelError("the symbolic path does not support extra label functions")

        self.name = name
        self.state_space = state_space
        # The raw (pre-compilation) ingredients, kept so the model can be
        # rebuilt as an explicit context when the universe is enumerable —
        # the last rung of the resilience fallback ladder.
        self._raw_initial = initial
        self._raw_global_constraint = global_constraint
        self.encoding = VariableEncoding(
            state_space, cache_ceiling=cache_ceiling, variable_order=variable_order
        )
        bdd = self.encoding.bdd

        self.agents = tuple(observables)
        if not self.agents:
            raise ModelError("a context needs at least one agent")
        self.observables = {
            agent: _resolve_variable_names(state_space, names)
            for agent, names in observables.items()
        }
        self.actions = _normalise_actions(actions)
        for agent in self.agents:
            if agent not in self.actions:
                self.actions[agent] = _normalise_actions({agent: {}})[agent]
        self.env_effects = {
            env_name: (effect if isinstance(effect, Assignment) else Assignment(effect))
            for env_name, effect in dict(env_effects or {}).items()
        }
        if not self.env_effects:
            self.env_effects = {None: Assignment({})}

        # Valid states: valid codes, restricted by the global constraint.
        self.domain = self.encoding.domain_node()
        if global_constraint is not None:
            self.domain = bdd.and_(self.domain, self.encoding.truth_node(global_constraint))
        self.domain_primed = self.encoding.prime(self.domain)

        # Initial set: compiled constraint, or explicit state cubes.
        if isinstance(initial, Expression):
            self.initial = bdd.and_(self.encoding.truth_node(initial), self.domain)
        else:
            self.initial = FALSE
            for state in initial:
                self.initial = bdd.or_(self.initial, self.encoding.state_node(state))
            if bdd.diff(self.initial, self.domain) != FALSE:
                raise ModelError("an initial state violates the global constraint")
        if self.initial == FALSE:
            raise ModelError("no initial states satisfy the initial condition")

        # Labelling: the canonical atom of every variable/value pair.
        self._atoms = {}
        for variable in state_space.variables:
            if variable.is_boolean:
                self._atoms[variable.name] = (variable.name, True)
            else:
                for value in variable.domain:
                    self._atoms[atom_name(variable, value)] = (variable.name, value)

        self._compile_transitions()
        self._obs_equivalence = {}
        self._non_obs_levels = {}
        self._views = {}

        # Dynamic reordering opt-in: the declared ``variable_order`` becomes a
        # hint and the kernel sifts itself when the unique table outgrows its
        # trigger.  ``reorder=None`` defers to the ``REPRO_BDD_REORDER``
        # environment variable (value ``"sift"``).
        if reorder is None:
            reorder = os.environ.get("REPRO_BDD_REORDER", "") == "sift"
        if reorder:
            self.encoding.enable_reordering()

    # -- transition compilation --------------------------------------------------------

    def _compile_transitions(self):
        """Build the per-participant effect relations and the global frame.

        Each participant's relation constrains only its own write set;
        disjointness of the write sets (checked here) makes the conjunction
        over participants the joint transition relation.
        """
        bdd = self.encoding.bdd
        participants = [("env", {name: effect for name, effect in self.env_effects.items()})]
        participants += [
            (agent, {name: action.effect for name, action in self.actions[agent].items()})
            for agent in self.agents
        ]
        space_names = {variable.name for variable in self.state_space.variables}
        write_sets = {}
        for who, effects in participants:
            writes = set()
            for effect in effects.values():
                writes |= effect.written_variables()
            unknown = writes - space_names
            if unknown:
                raise ModelError(
                    f"effects of {who!r} write unknown variables {sorted(unknown)}"
                )
            for other, other_writes in write_sets.items():
                clash = writes & other_writes
                if clash:
                    raise ModelError(
                        f"the symbolic path requires disjoint write sets: "
                        f"{who!r} and {other!r} both write {sorted(clash)}"
                    )
            write_sets[who] = writes

        def effect_relation(effect, writes):
            relation = TRUE
            illegal = FALSE
            for name in sorted(writes):
                if name in effect.updates:
                    update, bad = self._update_node(name, effect.updates[name])
                    relation = bdd.and_(relation, update)
                    illegal = bdd.or_(illegal, bad)
                else:
                    relation = bdd.and_(relation, self.encoding.equality_node(name))
            return relation, illegal

        self._agent_effects = {}
        for agent in self.agents:
            writes = write_sets[agent]
            table = {}
            for action_name, action in self.actions[agent].items():
                table[action_name] = effect_relation(action.effect, writes)
            self._agent_effects[agent] = table

        env_relation = FALSE
        self._env_illegal = []
        for env_name, effect in self.env_effects.items():
            relation, illegal = effect_relation(effect, write_sets["env"])
            env_relation = bdd.or_(env_relation, relation)
            if illegal != FALSE:
                self._env_illegal.append((env_name, illegal))
        self._env_relation = env_relation

        frame = TRUE
        untouched = space_names - set().union(*write_sets.values())
        for name in sorted(untouched, reverse=True):
            frame = bdd.and_(self.encoding.equality_node(name), frame)
        self._frame = frame

    def _update_node(self, name, expression):
        """The relation ``name' = expression(x)`` via the value-range case
        split, plus the set of states where the update is *ill-defined* —
        the computed value falls outside the variable's domain, or the
        evaluation itself raises (the ``EVALUATION_ERROR`` region of the
        case split, which is never in any domain).  The ill-defined set is
        checked against each round's sources, as the explicit transition
        function checks per evaluated state."""
        bdd = self.encoding.bdd
        variable = self.state_space.variable(name)
        relation = FALSE
        illegal = FALSE
        for value, guard in self.encoding.values_map(expression).items():
            if variable.contains(value):
                relation = bdd.or_(
                    relation,
                    bdd.and_(guard, self.encoding.value_node(name, value, primed=True)),
                )
            else:
                illegal = bdd.or_(illegal, guard)
        return relation, illegal

    # -- context interface -------------------------------------------------------------

    def agent_actions(self, agent):
        """The tuple of action names available to ``agent``."""
        try:
            return tuple(self.actions[agent])
        except KeyError:
            raise ModelError(f"unknown agent {agent!r}") from None

    def local_state(self, agent, state):
        """The agent's local state of a concrete state (the restriction of
        the assignment to the agent's observable variables)."""
        if agent not in self.actions:
            raise ModelError(f"unknown agent {agent!r}")
        return state.restrict(self.observables[agent])

    def local_states_of(self, agent, states):
        """The set of local states of ``agent`` over concrete states."""
        return {self.local_state(agent, state) for state in states}

    # -- compiled relations ------------------------------------------------------------

    def obs_equivalence(self, agent):
        """The observational-equivalence relation BDD of ``agent`` over the
        *full* code space: ``⋀ (v = v')`` for the agent's observables.
        (Views conjoin their state set on both sides.)"""
        cached = self._obs_equivalence.get(agent)
        if cached is None:
            if agent not in self.observables:
                raise ModelError(f"unknown agent {agent!r}")
            bdd = self.encoding.bdd
            cached = TRUE
            for name in reversed(self.observables[agent]):
                cached = bdd.and_(self.encoding.equality_node(name), cached)
            self._obs_equivalence[agent] = cached
        return cached

    def non_observable_levels(self, agent):
        """The current-variable levels of the variables ``agent`` does not
        observe (the quantification set of local-state projections)."""
        cached = self._non_obs_levels.get(agent)
        if cached is None:
            observed = set(self.observables[agent])
            levels = []
            for variable in self.state_space.variables:
                if variable.name not in observed:
                    levels.extend(self.encoding.variable_levels(variable.name))
            cached = tuple(levels)
            self._non_obs_levels[agent] = cached
        return cached

    def atom_node(self, name):
        """The (unrestricted) extension BDD of a labelling atom; ``FALSE``
        for names outside the variable labelling, matching the explicit
        backends' empty extension for unknown propositions."""
        pair = self._atoms.get(name)
        if pair is None:
            return FALSE
        variable_name, value = pair
        return self.encoding.value_node(variable_name, value)

    def explicit_context(self):
        """Rebuild this model as an explicit (enumerating)
        :class:`repro.systems.context.Context` from the same ingredients —
        the inverse of :func:`compile_context`.

        Only meaningful when the state space is small enough to enumerate;
        :func:`repro.interpretation.iteration.construct_by_rounds` uses it
        as the final mitigation rung when a symbolic construction exhausts
        its BDD node budget on an enumerable universe.
        """
        from repro.systems.variable_context import variable_context

        return variable_context(
            self.name,
            self.state_space,
            self.observables,
            self.actions,
            self._raw_initial,
            env_effects=self.env_effects,
            global_constraint=self._raw_global_constraint,
        )

    # -- dynamic reordering ------------------------------------------------------------

    def reorder_roots(self):
        """Every node the model and its memoised satellites (views, their
        evaluators, their guard tables) hold a reference to.  A reorder
        invalidates unreachable nodes (see :meth:`repro.symbolic.bdd.BDD.reorder`),
        so this set must cover every node a cached object may hand out
        again; it also steers the sift's live-size metric towards the
        diagrams that actually matter."""
        roots = list(self.encoding.reorder_roots())
        roots += (self.domain, self.domain_primed, self.initial, self._frame)
        roots.append(self._env_relation)
        roots += (illegal for _, illegal in self._env_illegal)
        for table in self._agent_effects.values():
            for relation, illegal in table.values():
                roots.append(relation)
                roots.append(illegal)
        roots += self._obs_equivalence.values()
        for states_node, view in self._views.items():
            roots.append(states_node)
            encoding = view.structure.encoding
            roots.append(encoding.domain_primed)
            roots += encoding._relations.values()
            for entry in view.structure.engine_cache.values():
                cache = getattr(entry, "cache", None)
                if isinstance(cache, dict):  # an Evaluator's formula memo
                    for world_set in cache.values():
                        node = getattr(world_set, "node", None)
                        if node is not None:
                            roots.append(node)
            for table in getattr(view, "_guard_tables", {}).values():
                for true_classes, false_classes in table._class_values.values():
                    roots.append(true_classes)
                    roots.append(false_classes)
        return roots

    def maybe_reorder(self, extra=None):
        """Safe point: run a pending growth-triggered sift, if any.  Called
        between (never inside) BDD operations by the transition engine and
        the symbolic fixed-point loops; returns ``True`` if a reorder ran.

        With ``extra=None`` the sift is pessimistic (``roots=None``: every
        node stays valid, only sift transients are collected) — the safe
        default when callers up the stack may hold nodes of their own.  A
        caller that can enumerate *everything* it holds passes those nodes
        as ``extra``; together with :meth:`reorder_roots` they then form the
        complete live set and unreachable junk is collected too."""
        bdd = self.encoding.bdd
        if not bdd.reorder_pending:
            return False
        if extra is None:
            return bdd.maybe_reorder(None)
        return bdd.maybe_reorder(self.reorder_roots() + list(extra))

    # -- transitions -------------------------------------------------------------------

    def successors(self, frontier, selection):
        """The successor set of ``frontier`` under the (partial) protocol
        ``selection`` — per agent, a map ``action -> class BDD`` over the
        agent's observable variables.

        Every frontier state must have at least one selected action per
        agent; effects whose computed value leaves a variable's domain and
        transitions into states violating the global constraint raise
        :class:`ModelError`, mirroring the explicit transition function.
        """
        self.maybe_reorder()
        bdd = self.encoding.bdd
        for env_name, illegal in self._env_illegal:
            if bdd.and_(frontier, illegal) != FALSE:
                raise ModelError(
                    f"environment effect {env_name!r} leaves a variable's domain "
                    f"or fails to evaluate at a reachable state"
                )
        relation = bdd.and_(self._frame, self._env_relation)
        for agent in self.agents:
            effects = self._agent_effects[agent]
            choice = FALSE
            covered = FALSE
            for action_name, classes in selection.get(agent, {}).items():
                if classes == FALSE:
                    continue
                entry = effects.get(action_name)
                if entry is None:
                    raise ProgramError(f"agent {agent!r} has no action {action_name!r}")
                effect_relation, illegal = entry
                if illegal != FALSE and bdd.and_(bdd.and_(classes, frontier), illegal) != FALSE:
                    raise ModelError(
                        f"effect of action {action_name!r} of agent {agent!r} "
                        f"leaves a variable's domain or fails to evaluate"
                    )
                choice = bdd.or_(choice, bdd.and_(classes, effect_relation))
                covered = bdd.or_(covered, classes)
            if bdd.diff(frontier, covered) != FALSE:
                raise ProgramError(
                    f"no action selected for agent {agent!r} at some frontier state"
                )
            relation = bdd.and_(relation, choice)
        image = bdd.and_exists(relation, frontier, self.encoding.current_levels)
        targets = self.encoding.unprime(image)
        if bdd.diff(targets, self.domain) != FALSE:
            raise ModelError(
                "a transition target violates the global constraint "
                f"(context {self.name!r})"
            )
        return targets

    # -- structures and views ----------------------------------------------------------

    def structure(self, states_node):
        """A :class:`SymbolicStructure` over the given world-set BDD."""
        return SymbolicStructure(self, states_node)

    def view(self, states_node):
        """The (memoised) :class:`SymbolicStateSetView` of a world-set BDD.

        Canonicity makes the node id a perfect memo key: the same state set
        always returns the same view, so its evaluator and guard tables are
        shared — consecutive construction rounds that discover nothing new
        (and the a-posteriori verification pass) reuse all cached guard
        extensions.
        """
        view = self._views.get(states_node)
        if view is None:
            view = SymbolicStateSetView(self, states_node)
            self._views[states_node] = view
        return view

    def initial_view(self):
        """The view of the initial states."""
        return self.view(self.initial)

    def __repr__(self):
        return (
            f"SymbolicContextModel({self.name!r}, agents={list(self.agents)}, "
            f"|space|={self.state_space.size()}, bits={self.encoding.total_bits})"
        )


class StateSetEncoding:
    """The encoding protocol of :mod:`repro.symbolic.encode`, realised by a
    model and a world-set BDD instead of a world list.

    ``domain`` is the state set itself — complements, box operators and
    empty-group conventions are automatically relative to the view's states,
    exactly as the bitset backend is relative to a structure's worlds.
    Relations conjoin the state set on both sides of the agent's
    observational equivalence, matching
    :func:`repro.kripke.builders.structure_from_local_states`.
    """

    def __init__(self, model, states_node):
        self.model = model
        self.base = model.encoding
        self.bdd = self.base.bdd
        self.bits = self.base.total_bits
        self.current_levels = self.base.current_levels
        self.primed_levels = self.base.primed_levels
        self.domain = states_node
        self.domain_primed = self.base.prime(states_node)
        self._relations = {}

    # -- current <-> primed ------------------------------------------------------------

    def prime(self, node):
        return self.base.prime(node)

    def unprime(self, node):
        return self.base.unprime(node)

    # -- boundary protocol (State-level conversions, lazy) -----------------------------

    def worlds_node(self, worlds):
        node = FALSE
        for state in worlds:
            node = self.bdd.or_(node, self.base.state_node(state))
        if self.bdd.diff(node, self.domain) != FALSE:
            raise ModelError("a world does not belong to the structure")
        return node

    def node_worlds(self, node):
        return frozenset(self.base.iter_states(node))

    def node_contains(self, node, world):
        return self.base.evaluate_node(node, world)

    def prop_node(self, name):
        return self.bdd.and_(self.model.atom_node(name), self.domain)

    def count(self, node):
        return self.base.count(node)

    # -- relations ---------------------------------------------------------------------

    def agent_relation(self, agent):
        relation = self._relations.get(agent)
        if relation is None:
            # Conjoin the equality constraint *before* the primed copy of the
            # state set: ``obs_eq ∧ S`` keeps the two variable copies
            # correlated (near-linear in the size of ``S``), whereas
            # ``S ∧ S'`` first would materialise an uncorrelated product of
            # the set with itself.
            relation = self.bdd.and_(self.model.obs_equivalence(agent), self.domain)
            relation = self.bdd.and_(relation, self.domain_primed)
            self._relations[agent] = relation
        return relation

    def group_relation(self, group, mode):
        key = (frozenset(group), mode)
        relation = self._relations.get(key)
        if relation is None:
            members = [self.agent_relation(agent) for agent in group]
            if mode == "union":
                relation = FALSE
                for member in members:
                    relation = self.bdd.or_(relation, member)
            elif mode == "intersection":
                if not members:
                    relation = self.bdd.and_(self.domain, self.domain_primed)
                else:
                    relation = members[0]
                    for member in members[1:]:
                        relation = self.bdd.and_(relation, member)
            else:
                from repro.util.errors import EngineError

                raise EngineError(f"unknown group relation mode {mode!r}")
            self._relations[key] = relation
        return relation

    # -- observability -----------------------------------------------------------------

    def clear_operation_caches(self):
        self.bdd.clear_operation_caches()

    def cache_info(self):
        info = self.base.cache_info()
        info["memo.relations"] = len(self._relations)
        return info


class SymbolicStructure:
    """A duck-typed epistemic structure whose world set is a BDD.

    Carries exactly what the ``"bdd"`` backend and the evaluator consult:
    ``engine_cache`` (pre-seeded with the :class:`StateSetEncoding`),
    ``agents``, and membership of :class:`State` objects.  Worlds are never
    enumerated unless a caller crosses the frozenset boundary explicitly.
    """

    def __init__(self, model, states_node):
        self.model = model
        self.states_node = states_node
        self.agents = model.agents
        self.engine_cache = {"bdd_encoding": StateSetEncoding(model, states_node)}

    @property
    def encoding(self):
        return self.engine_cache["bdd_encoding"]

    def __contains__(self, world):
        if not isinstance(world, State):
            return False
        try:
            return self.encoding.node_contains(self.states_node, world)
        except ModelError:
            return False

    def state_count(self):
        """The number of worlds (cheap: a memoised BDD count)."""
        return self.model.encoding.count(self.states_node)

    def iter_states(self):
        """Enumerate the worlds as :class:`State` objects (the boundary)."""
        return self.model.encoding.iter_states(self.states_node)

    def __repr__(self):
        return (
            f"SymbolicStructure({self.model.name!r}, |W|={self.state_count()}, "
            f"node={self.states_node})"
        )


class SymbolicStateSetView:
    """A hypothetical system over a symbolic state set.

    The enumeration-free counterpart of
    :class:`repro.interpretation.functional.StateSetView`: same knowledge
    interface, but states, witness classes and guard decisions are BDDs.
    Obtain instances through :meth:`SymbolicContextModel.view` (memoised by
    state-set node).
    """

    #: Dispatch marker for
    #: :func:`repro.interpretation.functional.derive_protocol`: views (and
    #: systems) carrying it are derived through
    #: :func:`repro.interpretation.symbolic.derive_protocol_symbolic` —
    #: per-class ``enabled_sets`` decisions instead of a per-local-state
    #: tabulation loop.
    is_symbolic_view = True

    def __init__(self, model, states_node):
        if states_node == FALSE:
            raise ModelError("a state-set view needs at least one state")
        self.model = model
        self.context = model
        self.states_node = states_node
        self.structure = SymbolicStructure(model, states_node)

    @property
    def agents(self):
        return self.model.agents

    @property
    def evaluator(self):
        """The persistent evaluator over the view's structure — always the
        ``"bdd"`` backend: the bitset backend would have to enumerate."""
        return evaluator_for(self.structure, "bdd")

    def extension_node(self, formula):
        """The extension of ``formula`` as a world-set BDD (no enumeration)."""
        return self.evaluator.extension_ws(formula).node

    def extension(self, formula):
        """The extension as a frozenset of states (the enumerating boundary)."""
        return self.evaluator.extension(formula)

    def holds(self, state, formula):
        return self.evaluator.holds(state, formula)

    def project(self, agent, node):
        """Project a state-set BDD onto ``agent``'s observable variables:
        the BDD of the agent's local-state classes meeting the set."""
        levels = self.model.non_observable_levels(agent)
        if not levels:
            return node
        return self.model.encoding.bdd.exists(node, levels)

    def state_count(self):
        return self.structure.state_count()

    def iter_states(self):
        return self.structure.iter_states()

    def local_states(self, agent):
        """The local states of ``agent`` occurring in the view, as the same
        sorted ``(name, value)`` tuples the explicit path produces.
        Enumerates the agent's classes — meant for small views (tests,
        protocol materialisation), not for the construction loop."""
        node = self.project(agent, self.states_node)
        names = self.model.observables[agent]
        return {
            tuple(sorted(assignment.items()))
            for assignment in self.model.encoding.iter_assignments(node, names)
        }

    def make_guard_table(self, program):
        """Hook for :func:`repro.interpretation.functional.guard_table`."""
        return SymbolicGuardTable(self, program)

    def __repr__(self):
        return f"SymbolicStateSetView({self.model.name!r}, |S|={self.state_count()})"


class SymbolicGuardTable(GuardTable):
    """A guard table whose uniformity decisions are BDD projections.

    Point queries (``value``/``holds``/``enabled_actions``) work on single
    local states like the base class, but against witness *cubes* instead of
    enumerated witness classes; :meth:`class_values` and
    :meth:`enabled_sets` decide a guard (a whole agent program) on *every*
    local-state class of a set at once — the primitive the symbolic round
    construction is built from.
    """

    def __init__(self, view, program):
        super().__init__(view, program)
        self._class_values = {}

    # -- per-class decisions (sets of classes at once) ---------------------------------

    def class_values(self, agent, guard):
        """Split the agent's local-state classes by the guard's value:
        returns ``(true_classes, false_classes)`` as BDDs over the agent's
        observable variables — the classes where the guard holds at *some*
        state, and those where it fails at *some* state.

        On a local guard the two projections partition the occupied
        classes; an overlapping class carries both guard values (the guard
        is not local there).  Locality enforcement is the caller's business
        (:meth:`enabled_sets` restricts it to the classes actually being
        decided, like the explicit path, which only ever checks the local
        states it is asked about)."""
        key = (agent, guard)
        cached = self._class_values.get(key)
        if cached is not None:
            return cached
        view = self.view
        bdd = view.model.encoding.bdd
        extension = self._guard_extension(guard).node
        true_classes = view.project(agent, extension)
        false_classes = view.project(agent, bdd.diff(view.states_node, extension))
        cached = (true_classes, false_classes)
        self._class_values[key] = cached
        return cached

    def enabled_sets(self, agent, classes_node, require_local=True):
        """The clause selection of ``agent`` on every class of
        ``classes_node`` at once: a map ``action -> class BDD`` assigning to
        each class the actions of its enabled clauses (the fallback action
        on classes where no clause is enabled).

        Non-locality of a guard *on one of the queried classes* raises
        :class:`InterpretationError` under ``require_local``; with the flag
        off such classes read the guard existentially (they count as
        enabled), matching
        :meth:`repro.interpretation.functional.GuardTable.holds`.
        Classes outside ``classes_node`` never influence the outcome — a
        guard may freely be non-local on classes decided (and frozen) in
        earlier rounds."""
        bdd = self.view.model.encoding.bdd
        try:
            agent_program = self.program.program(agent)
        except ProgramError:  # agent without a program idles
            return {NOOP_NAME: classes_node}
        selection = {}
        none_enabled = classes_node
        for clause in agent_program.clauses:
            true_classes, false_classes = self.class_values(agent, clause.guard)
            if require_local:
                overlap = bdd.and_(bdd.and_(true_classes, false_classes), classes_node)
                if overlap != FALSE:
                    raise InterpretationError(
                        f"guard {clause.guard} of agent {agent!r} is not local: its "
                        f"value differs on indistinguishable states"
                    )
            enabled = bdd.and_(true_classes, classes_node)
            if enabled != FALSE:
                selection[clause.action] = bdd.or_(
                    selection.get(clause.action, FALSE), enabled
                )
            none_enabled = bdd.diff(none_enabled, true_classes)
        if none_enabled != FALSE:
            if agent_program.fallback is None:
                raise InterpretationError(
                    f"no clause of agent {agent!r} is enabled at some local state "
                    f"and the program has no fallback action"
                )
            selection[agent_program.fallback] = bdd.or_(
                selection.get(agent_program.fallback, FALSE), none_enabled
            )
        return selection

    # -- per-local-state decisions (base-class API) ------------------------------------

    def _witness_ws(self, agent, local_state):
        """The agent's class of ``local_state`` as a BDD world-set: the
        local state's cube restricted to the view, never enumerated."""
        view = self.view
        encoding = view.model.encoding
        node = encoding.bdd.and_(encoding.cube_node(local_state), view.states_node)
        return SymbolicWorldSet(view.structure.encoding, node)


def compile_context(context):
    """Compile an explicit :class:`~repro.systems.context.Context` built by
    :func:`~repro.systems.variable_context.variable_context` into a
    :class:`SymbolicContextModel`, from the raw ingredients recorded on its
    ``spec``.  (For contexts too large to *build* explicitly, construct the
    model directly from the same parts instead.)"""
    spec = getattr(context, "spec", None)
    if spec is None:
        raise ModelError(
            "compile_context needs a context built by variable_context "
            "(carrying a VariableContextSpec)"
        )
    initial = spec.initial_condition
    if initial is None:
        initial = spec.initial_states
    return SymbolicContextModel(
        context.name,
        spec.state_space,
        spec.observables,
        spec.actions,
        initial,
        env_effects=spec.env_effects,
        env_protocol=spec.env_protocol,
        global_constraint=spec.global_constraint,
        admissibility=spec.admissibility,
        extra_labels=spec.extra_labels,
    )
