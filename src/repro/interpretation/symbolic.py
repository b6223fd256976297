"""The symbolic carrier: interpretation without enumerating states.

Every set is a BDD of a :class:`repro.symbolic.model.SymbolicContextModel`,
a protocol is a per-agent map ``action -> class BDD`` over the agent's
observable variables, and behavioural comparison is equality of canonical
node ids.  This module supplies the BDD ops of the representation-neutral
algorithms; :mod:`repro.interpretation.explicit` supplies the enumerating
ops of the same algorithms.

:class:`SymbolicConstructionOps`
    one round of the depth-stratified construction of
    :func:`repro.interpretation.iteration.construct_by_rounds`: the view of
    a round is a :class:`~repro.symbolic.model.SymbolicStateSetView` over
    the accumulated reachable-set BDD, so guard extensions are computed by
    the ``"bdd"`` backend as observation projections; the per-local-state
    decision loop of the explicit round becomes one
    :meth:`~repro.symbolic.model.SymbolicGuardTable.enabled_sets` call per
    agent (guard uniformity over a whole set of indistinguishability classes
    is two projections per guard); the frontier advances by one relational
    image through the compiled transition relation
    (:meth:`SymbolicContextModel.successors`).  The a-posteriori
    verification recomputes the frozen decisions against the final system
    and compares class BDDs — the fixed-point property ``P = Pg^{I_rep(P)}``
    on reachable local states.
:class:`SymbolicIterationOps`
    represent/derive/signature for
    :func:`repro.interpretation.iteration.iterate_interpretation`:
    representing an iterate is a relational-image reachability sweep
    (:func:`_reach`), deriving the next one is one ``enabled_sets`` call per
    agent over the occupied classes, and signatures are node ids.
:func:`check_implementation_symbolic`
    the fixed-point test: reach the candidate protocol's states by
    relational images (class-BDD selections via the protocol's
    ``selection_nodes``, or lazily evaluated per newly met class for
    arbitrary protocols), re-derive the program's selection over the
    resulting view, and compare candidate and derived protocols by node-id
    selection signatures over the occupied classes — behavioural equality
    without enumerating a single local state;
:class:`SymbolicSynthesisOps`
    the exhaustive search's primitives: candidates are subset BDDs of the
    candidate universe (by default the liberal-reachable set, computed by
    :func:`repro.interpretation.synthesis.run_candidate_search`)
    containing the initial states, and the fixed-point filter
    ``reach(P_R) = R`` is canonical node-id equality;
:func:`derive_protocol_symbolic`
    the functional ``Pg^view`` over a symbolic view, one ``enabled_sets``
    call per agent instead of a per-local-state loop.

Nothing enumerates: a round costs BDD operations whose size tracks the
diagrams, not ``∏|domain|``, which is what lets the construction run on
contexts whose state space the explicit engines cannot even iterate (muddy
children at 20 participants has ``≈ 5·10^14`` states; its reachable-set and
protocol BDDs have a few thousand nodes).
"""

from repro import obs as _obs
from repro.interpretation.functional import _fallback_set, guard_table
from repro.interpretation.synthesis import ImplementationReport
from repro.obs.registry import hit_rate
from repro.symbolic.bdd import FALSE, TRUE
from repro.systems.protocols import JointProtocol, Protocol
from repro.util.errors import InterpretationError, ModelError, ProgramError
from repro.util.helpers import stable_sort_key

__all__ = [
    "SymbolicConstructionOps",
    "SymbolicIterationOps",
    "SymbolicSynthesisOps",
    "check_implementation_symbolic",
    "derive_protocol_symbolic",
    "SymbolicImplementationReport",
    "SymbolicSystem",
]


class _SymbolicOps:
    """What the symbolic loop ops share: the model's manager, whose node
    ceiling the budget governs and whose sifts run at the loop's safe
    points."""

    backend = "bdd"

    def __init__(self, program, model, require_local):
        self.program = program
        self.model = model
        self.require_local = require_local
        self.manager = model.encoding.bdd
        self.groups = model.encoding.reorder_groups

    def safe_point(self, roots):
        # Loop boundaries are precise safe points: ``roots()`` enumerates
        # everything the loop holds, so a pending sift can collect
        # unreachable junk as well.
        if self.manager.reorder_pending:
            self.manager.maybe_reorder(roots())


class SymbolicConstructionOps(_SymbolicOps):
    """The BDD round of the depth-stratified construction.

    Committed state: ``seen`` (the reachable-set BDD so far), ``frontier``
    (the newest round's states), ``decided`` (per agent, the classes whose
    actions are frozen) and ``selection`` (per agent, ``action -> class
    BDD``).  A round builds new containers and swaps them in at its end;
    it never mutates the committed ones, so a snapshot can share them and a
    raise mid-round leaves the previous round intact.
    """

    kind = "construct_by_rounds_symbolic"

    def __init__(self, program, model, require_local):
        super().__init__(program, model, require_local)
        self.seen = self.frontier = model.initial
        self.decided = {agent: FALSE for agent in model.agents}
        self.selection = {agent: {} for agent in model.agents}

    def snapshot(self):
        return {
            "seen": self.seen,
            "frontier": self.frontier,
            "decided": self.decided,
            "selection": self.selection,
        }

    def restore(self, partial):
        # Node ids stay valid across the seam: they live in the model's
        # manager, whose unique table is never cleared.
        self.seen, self.frontier = partial.seen, partial.frontier
        self.decided, self.selection = partial.decided, partial.selection

    def is_open(self):
        return self.frontier != FALSE

    def round_stats(self):
        # Round-granularity telemetry is cheap relative to a round's BDD
        # work: two model counts and a read of the kernel's counters.
        bdd = self.manager
        return {
            "frontier": self.model.encoding.count(self.frontier),
            "states": self.model.encoding.count(self.seen),
            "cache_hit_rate": hit_rate(
                bdd._ite_hits + bdd._op_hits, bdd._ite_misses + bdd._op_misses
            ),
        }

    def reorder_roots(self):
        roots = self.model.reorder_roots() + [self.seen, self.frontier]
        roots += self.decided.values()
        for agent_selection in self.selection.values():
            roots += agent_selection.values()
        return roots

    def round(self):
        model = self.model
        bdd = self.manager
        view = model.view(self.seen)
        # One symbolic guard table per round's view: all clause guards are
        # evaluated over the accumulated states in one batched engine pass,
        # and each agent's newly appearing classes are decided at once.
        table = guard_table(view, self.program)
        decided = dict(self.decided)
        selection = {agent: dict(actions) for agent, actions in self.selection.items()}
        for agent in model.agents:
            new_classes = bdd.diff(model.project(agent, self.frontier), decided[agent])
            if new_classes == FALSE:
                continue
            enabled = table.enabled_sets(agent, new_classes, require_local=self.require_local)
            agent_selection = selection[agent]
            for action, classes in enabled.items():
                agent_selection[action] = bdd.or_(agent_selection.get(action, FALSE), classes)
            decided[agent] = bdd.or_(decided[agent], new_classes)
        frontier = bdd.diff(model.successors(self.frontier, selection), self.seen)
        seen = bdd.or_(self.seen, frontier)
        self.seen, self.frontier, self.decided, self.selection = seen, frontier, decided, selection

    def result(self, rounds):
        protocol = _materialise_protocol(self.program, self.model, self.selection, self.decided)
        system = SymbolicSystem(self.model, self.seen, rounds, selection=self.selection)
        return protocol, system

    def verify(self, protocol):
        """Recompute every decided class's clause selection against the
        final system and compare with the frozen decisions — the
        implementation fixed-point test, per class instead of per local
        state."""
        table = guard_table(self.model.view(self.seen), self.program)
        for agent in self.model.agents:
            try:
                final = table.enabled_sets(
                    agent, self.decided[agent], require_local=self.require_local
                )
            except InterpretationError:
                return False
            frozen = self.selection[agent]
            for action in set(final) | set(frozen):
                if final.get(action, FALSE) != frozen.get(action, FALSE):
                    return False
        return True


class SymbolicIterationOps(_SymbolicOps):
    """BDD primitives of the functional iteration.

    An iterate is a per-agent ``action -> class BDD`` map.  Fixed-point
    detection compares *selection signatures* — per agent, the sorted
    ``(action, node id)`` pairs of each action's class BDD restricted to the
    occupied classes; canonicity makes node-id equality exactly behavioural
    equality on the arising local states, so the test matches the explicit
    ``_protocol_signature`` without enumerating a single local state.

    The system key is the reachable-set node alone: the derived protocol is
    a deterministic function of the reachable set, and the next reachable
    set a deterministic function of the derived protocol, so a repeated
    state-set node means the iteration has entered a cycle (occasionally
    one iteration earlier than the explicit key, which also hashes the
    transitions).
    """

    kind = "iterate_interpretation_symbolic"

    def __init__(self, program, model, require_local):
        super().__init__(program, model, require_local)
        self._occupied = None

    def seed(self, protocol):
        if getattr(protocol, "selection_nodes", None) is None:
            raise InterpretationError(
                f"unknown seed {protocol!r}: the symbolic iteration accepts 'liberal', "
                f"'restrictive', or a joint protocol carrying its class BDDs "
                f"(selection_nodes)"
            )
        return _selection_of(protocol, self.model.agents)

    def reorder_roots(self, current, history):
        roots = self.model.reorder_roots()
        for agent_selection in current.values():
            roots += agent_selection.values()
        for signature in history:
            for _agent, entries in signature:
                roots += [node for _action, node in entries]
        return roots

    def represent(self, selection):
        states, rounds, used = _reach(self.program, self.model, selection)
        self._occupied = None
        return SymbolicSystem(self.model, states, rounds, selection=used), used

    def _classes(self, system):
        # Memoised for the iteration at hand only: ``represent`` resets it,
        # and no sift runs between it and the reads below.
        if self._occupied is None:
            self._occupied = _occupied_classes(self.model, system.states_node)
        return self._occupied

    def signature(self, selection, system):
        return _selection_signature(self.model, selection, self._classes(system))

    def derive(self, system):
        return _derive_selection(
            self.program, self.model, system.states_node, self._classes(system),
            self.require_local,
        )

    def system_key(self, system):
        return system.states_node

    def result(self, selection, system):
        protocol = _materialise_protocol(
            self.program, self.model, selection, _decided_union(self.model, selection)
        )
        return protocol, SymbolicSystem(
            self.model, system.states_node, system.rounds, selection=selection
        )


def _selection_of(protocol, agents):
    """The per-agent ``action -> class BDD`` map a protocol carries as
    ``selection_nodes``."""
    nodes = protocol.selection_nodes
    return {agent: dict(nodes.get(agent, ())) for agent in agents}


def _reach(program, model, selection):
    """The reachable set under ``selection``, as a BFS of relational images.

    Classes no selected action covers — they appear when a derived protocol
    (decided only on the *previous* system's occupied classes) reaches new
    territory — are assigned the agent's fallback action on first contact,
    the symbolic counterpart of the explicit ``fallback_on_unknown``
    convention.  Returns ``(states, rounds, selection)`` where ``selection``
    is the (possibly augmented) copy actually used.
    """
    bdd = model.encoding.bdd
    selection = {
        agent: dict(agent_selection) for agent, agent_selection in selection.items()
    }
    covered = _decided_union(model, selection)
    seen = model.initial
    frontier = model.initial
    rounds = 0
    while frontier != FALSE:
        rounds += 1
        for agent in model.agents:
            projected = model.project(agent, frontier)
            uncovered = bdd.diff(projected, covered[agent])
            if uncovered == FALSE:
                continue
            agent_selection = selection[agent]
            for action in _fallback_set(program, agent):
                agent_selection[action] = bdd.or_(
                    agent_selection.get(action, FALSE), uncovered
                )
            covered[agent] = bdd.or_(covered[agent], uncovered)
        targets = model.successors(frontier, selection)
        frontier = bdd.diff(targets, seen)
        seen = bdd.or_(seen, frontier)
    if _obs.ENABLED:
        _obs.event(
            "fixpoint", loop="reach", backend="bdd", iterations=rounds, result=seen
        )
    return seen, rounds, selection


def _occupied_classes(model, states):
    """Per agent, the local-state classes meeting ``states``."""
    return {agent: model.project(agent, states) for agent in model.agents}


def _derive_selection(program, model, states, occupied, require_local):
    """The functional over the view of ``states``: per agent, the clause
    selection of every occupied class, from one guard table."""
    table = guard_table(model.view(states), program)
    return {
        agent: table.enabled_sets(agent, occupied[agent], require_local=require_local)
        for agent in model.agents
    }


def _selection_signature(model, selection, occupied):
    """The canonical behaviour of ``selection`` on the ``occupied`` classes:
    per agent, the sorted ``(action, class-BDD id)`` pairs after restriction
    to the occupied classes (empty restrictions dropped).  Node-id equality
    of two signatures is exactly behavioural equality of the protocols on
    the local states arising from the same state set."""
    bdd = model.encoding.bdd
    signature = []
    for agent in model.agents:
        entries = []
        for action, classes in selection.get(agent, {}).items():
            node = bdd.and_(classes, occupied[agent])
            if node != FALSE:
                entries.append((str(action), node))
        signature.append((agent, tuple(sorted(entries))))
    return tuple(signature)


def _decided_union(model, selection):
    """The per-agent union of a selection's class BDDs — the classes on
    which the materialised protocol answers from the table rather than the
    fallback."""
    bdd = model.encoding.bdd
    decided = {}
    for agent in model.agents:
        node = FALSE
        for classes in selection.get(agent, {}).values():
            node = bdd.or_(node, classes)
        decided[agent] = node
    return decided


def _materialise_protocol(program, model, selection, decided, fallback_on_unknown=True):
    """Wrap the per-agent class BDDs as a standard joint protocol: a lookup
    evaluates each action's class BDD at the local state's observation
    point; local states outside the decided classes get the agent's
    fallback action when ``fallback_on_unknown`` is set (the convention of
    the explicit construction), otherwise looking them up raises — the two
    conventions of :func:`repro.interpretation.functional.derive_protocol`."""
    encoding = model.encoding
    protocols = {}
    for agent in model.agents:
        entries = tuple(
            (action, node) for action, node in selection[agent].items() if node != FALSE
        )
        fallback = _fallback_set(program, agent) if fallback_on_unknown else None
        decided_node = decided[agent]

        def lookup(
            local_state,
            agent=agent,
            entries=entries,
            fallback=fallback,
            decided_node=decided_node,
        ):
            point = dict(local_state)
            if not encoding.evaluate_node(decided_node, point):
                if fallback is None:
                    raise ProgramError(
                        f"protocol of agent {agent!r} has no action for "
                        f"local state {local_state!r}"
                    )
                return fallback
            return frozenset(
                action
                for action, node in entries
                if encoding.evaluate_node(node, point)
            )

        protocols[agent] = Protocol(agent, lookup)
    joint = JointProtocol(protocols)
    # Canonical class-BDD ids, the currency of the symbolic fixed-point
    # machinery: _protocol_signature's enumeration-free fast path reads
    # them, and the symbolic iteration accepts a protocol carrying them as
    # a seed.
    joint.selection_nodes = {
        agent: tuple(
            sorted(
                (str(action), node)
                for action, node in selection[agent].items()
                if node != FALSE
            )
        )
        for agent in model.agents
    }
    joint.decided_nodes = {agent: decided[agent] for agent in model.agents}
    return joint


# ---------------------------------------------------------------------------
# synthesis workers (the symbolic carrier of repro.interpretation.synthesis)
# ---------------------------------------------------------------------------


def derive_protocol_symbolic(program, view, require_local=True, fallback_on_unknown=True):
    """The functional ``Pg^view`` over a symbolic view or system.

    The symbolic twin of
    :func:`repro.interpretation.functional.derive_protocol` (which
    dispatches here on the view's ``is_symbolic_view`` marker): instead of
    tabulating ``enabled_actions`` per local state, one
    :meth:`~repro.symbolic.model.SymbolicGuardTable.enabled_sets` call per
    agent decides every occupied class at once, and the result is a
    materialised joint protocol carrying its class BDDs as
    ``selection_nodes``.
    """
    model = view.model
    states = view.states_node
    selection = _derive_selection(
        program, model, states, _occupied_classes(model, states), require_local
    )
    return _materialise_protocol(
        program,
        model,
        selection,
        _decided_union(model, selection),
        fallback_on_unknown=fallback_on_unknown,
    )


def _candidate_reach(model, program, joint_protocol):
    """Reach the states generated by an arbitrary candidate protocol.

    Protocols carrying their behaviour as class BDDs (``selection_nodes`` —
    every protocol the symbolic path materialises, and the uniform seeds of
    :mod:`repro.interpretation.iteration`) go straight through
    :func:`_reach`, no state ever enumerated.  Any other joint protocol is
    evaluated *lazily*: each round, the frontier's newly met local-state
    classes (per agent) are enumerated and the protocol is asked for its
    action set at exactly those points, accumulating the same
    ``action -> class BDD`` selection.  Cost is proportional to the number
    of distinct local states the candidate actually reaches — the quantity
    the explicit ``represent`` enumerates anyway — not to the state space.

    Returns ``(states, rounds, selection)``.
    """
    if getattr(joint_protocol, "selection_nodes", None) is not None:
        return _reach(program, model, _selection_of(joint_protocol, model.agents))
    encoding = model.encoding
    bdd = encoding.bdd
    selection = {agent: {} for agent in model.agents}
    covered = {agent: FALSE for agent in model.agents}
    seen = model.initial
    frontier = model.initial
    rounds = 0
    while frontier != FALSE:
        rounds += 1
        for agent in model.agents:
            new_classes = bdd.diff(model.project(agent, frontier), covered[agent])
            if new_classes == FALSE:
                continue
            names = model.observables[agent]
            agent_selection = selection[agent]
            for assignment in encoding.iter_assignments(new_classes, names):
                local_state = tuple(sorted(assignment.items()))
                cube = encoding.cube_node(local_state)
                for action in joint_protocol.actions(agent, local_state):
                    agent_selection[action] = bdd.or_(
                        agent_selection.get(action, FALSE), cube
                    )
            covered[agent] = bdd.or_(covered[agent], new_classes)
        targets = model.successors(frontier, selection)
        frontier = bdd.diff(targets, seen)
        seen = bdd.or_(seen, frontier)
    return seen, rounds, selection


class SymbolicImplementationReport(ImplementationReport):
    """An :class:`~repro.interpretation.synthesis.ImplementationReport`
    whose verdict was decided on class BDDs.

    ``differences`` is computed lazily on first access — the verdict is
    node-id signature equality and never enumerates local states; only
    reading the disagreements enumerates, and then only the classes inside
    the (usually tiny) symmetric-difference regions, never the agreeing
    bulk."""

    def __init__(
        self,
        is_implementation,
        system,
        derived_protocol,
        candidate_protocol,
        candidate_selection,
        derived_selection,
        occupied,
    ):
        super().__init__(is_implementation, system, derived_protocol, differences=None)
        self._candidate_protocol = candidate_protocol
        self._candidate_selection = candidate_selection
        self._derived_selection = derived_selection
        self._occupied = occupied

    @property
    def differences(self):
        if self._differences is None:
            self._differences = self._compute_differences()
        return self._differences

    def _compute_differences(self):
        model = self.system.model
        encoding = model.encoding
        bdd = encoding.bdd
        differences = []
        for agent in model.agents:
            occupied = self._occupied[agent]
            candidate = {
                action: bdd.and_(classes, occupied)
                for action, classes in self._candidate_selection.get(agent, {}).items()
            }
            derived = {
                action: bdd.and_(classes, occupied)
                for action, classes in self._derived_selection.get(agent, {}).items()
            }
            region = FALSE
            for action in set(candidate) | set(derived):
                c = candidate.get(action, FALSE)
                d = derived.get(action, FALSE)
                region = bdd.or_(region, bdd.or_(bdd.diff(c, d), bdd.diff(d, c)))
            if region == FALSE:
                continue
            names = model.observables[agent]
            locals_here = sorted(
                (
                    tuple(sorted(assignment.items()))
                    for assignment in encoding.iter_assignments(region, names)
                ),
                key=stable_sort_key,
            )
            for local_state in locals_here:
                point = dict(local_state)
                candidate_actions = frozenset(
                    action
                    for action, node in candidate.items()
                    if encoding.evaluate_node(node, point)
                )
                derived_actions = frozenset(
                    action
                    for action, node in derived.items()
                    if encoding.evaluate_node(node, point)
                )
                differences.append(
                    (agent, local_state, candidate_actions, derived_actions)
                )
        return differences


def check_implementation_symbolic(joint_protocol, program, model, require_local=True):
    """The fixed-point test ``P = Pg^{I_rep(P)}`` entirely on BDDs.

    Generates the candidate's system by relational images
    (:func:`_candidate_reach`), derives the program's selection over the
    resulting view (one ``enabled_sets`` call per agent), and compares the
    two protocols by :func:`_selection_signature` — per agent, the sorted
    ``(action, class-BDD node id)`` pairs after restriction to the occupied
    classes.  Canonicity of the ROBDD kernel makes node-id equality exactly
    behavioural equality on the arising local states, i.e. the same
    verdict the explicit per-local-state comparison loop reaches.
    """
    for agent in program.agents:
        program.program(agent)  # validate agents exist in the program

    states, rounds, candidate_selection = _candidate_reach(model, program, joint_protocol)
    occupied = _occupied_classes(model, states)
    derived_selection = _derive_selection(program, model, states, occupied, require_local)
    candidate_signature = _selection_signature(model, candidate_selection, occupied)
    derived_signature = _selection_signature(model, derived_selection, occupied)
    system = SymbolicSystem(model, states, rounds, selection=candidate_selection)
    derived_protocol = _materialise_protocol(
        program, model, derived_selection, _decided_union(model, derived_selection)
    )
    return SymbolicImplementationReport(
        candidate_signature == derived_signature,
        system,
        derived_protocol,
        joint_protocol,
        candidate_selection,
        derived_selection,
        occupied,
    )


class SymbolicSynthesisOps:
    """BDD primitives for
    :func:`repro.interpretation.synthesis.run_candidate_search`.

    An ``all_states`` override of the candidate universe may be an iterable
    of states or a state-set BDD node; without one the search defaults to
    the liberal-reachable set.  Candidates are subset BDDs of the universe
    containing the initial states, and because the ROBDD kernel is
    canonical, the fixed-point filter ``reach(P_R) = R`` and the
    behavioural dedupe are both plain node-id comparisons.
    """

    def __init__(self, program, model, all_states=None, require_local=True):
        for agent in program.agents:
            program.program(agent)  # validate agents exist in the program
        self.program = program
        self.context = self.model = model
        self.require_local = require_local
        encoding = model.encoding
        if all_states is None or isinstance(all_states, int):  # default or a BDD node
            self.universe = all_states
        else:
            self.universe = FALSE
            for state in all_states:
                self.universe = encoding.bdd.or_(self.universe, encoding.state_node(state))

    def _free_node(self, universe):
        return self.model.encoding.bdd.diff(universe, self.model.initial)

    def free_count(self, universe):
        # A BDD model count — the oversized-universe guard never enumerates.
        return self.model.encoding.count(self._free_node(universe))

    def free_states(self, universe):
        encoding = self.model.encoding
        return [
            encoding.state_node(state)
            for state in encoding.iter_states(self._free_node(universe))
        ]

    def candidate(self, extra):
        bdd = self.model.encoding.bdd
        node = self.model.initial
        for cube in extra:
            node = bdd.or_(node, cube)
        return node

    def derive(self, candidate):
        return derive_protocol_symbolic(
            self.program, self.model.view(candidate), require_local=self.require_local
        )

    def represent(self, protocol):
        states, rounds, used = _candidate_reach(self.model, self.program, protocol)
        return SymbolicSystem(self.model, states, rounds, selection=used), states

    def matches(self, reachable, candidate):
        return reachable == candidate  # canonical nodes: id equality is set equality

    def key(self, reachable):
        return reachable


class SymbolicSystem:
    """The system constructed by the symbolic interpretation: the reachable
    states as a BDD, with knowledge evaluated over them.

    Supports the knowledge-query slice of
    :class:`repro.systems.interpreted_system.InterpretedSystem` (``holds``,
    ``extension``, ``local_state``) plus the symbolic accessors
    (``states_node``, ``state_count``, ``iter_states``,
    ``extension_node``).  When built with the frozen protocol ``selection``
    (every system the symbolic ops build carries one) the system also
    compiles its own transition relation (:meth:`transition_node`), which is
    what :class:`repro.temporal.symbolic.SymbolicCTLKOps` iterates;
    run generation and the structural predicates of the explicit class need
    materialised transitions and are out of scope.
    """

    #: Dispatch marker for :class:`repro.temporal.ctlk.CTLKModelChecker`.
    is_symbolic_system = True

    #: Dispatch marker for
    #: :func:`repro.interpretation.functional.derive_protocol` — a symbolic
    #: system is a symbolic view of its own reachable set.
    is_symbolic_view = True

    def __init__(self, model, states_node, rounds, selection=None):
        self.model = model
        self.context = model
        self.states_node = states_node
        self.rounds = rounds
        self.selection = selection
        self._view = model.view(states_node)
        self._transition_node = None

    @property
    def agents(self):
        return self.model.agents

    @property
    def structure(self):
        return self._view.structure

    @property
    def evaluator(self):
        return self._view.evaluator

    def holds(self, state, formula):
        """Return ``True`` iff ``formula`` holds at the reachable ``state``."""
        return self._view.holds(state, formula)

    def extension(self, formula):
        """The extension as a frozenset of states (enumerating boundary)."""
        return self._view.extension(formula)

    def extension_node(self, formula):
        """The extension as a world-set BDD (no enumeration)."""
        return self._view.extension_node(formula)

    def holds_initially(self, formula):
        """Return ``True`` iff ``formula`` holds at every initial state."""
        bdd = self.model.encoding.bdd
        return bdd.diff(self.initial_node, self.extension_node(formula)) == FALSE

    def holds_everywhere(self, formula):
        """Return ``True`` iff ``formula`` holds at every reachable state."""
        bdd = self.model.encoding.bdd
        return bdd.diff(self.states_node, self.extension_node(formula)) == FALSE

    def local_state(self, agent, state):
        return self.model.local_state(agent, state)

    @property
    def initial_node(self):
        """The initial states as a world-set BDD (a subset of the reachable
        set by construction)."""
        bdd = self.model.encoding.bdd
        return bdd.and_(self.model.initial, self.states_node)

    def transition_node(self):
        """The (memoised) transition-relation BDD of the system over
        current/primed variable pairs, restricted to reachable states on
        both sides and *totalised*: deadlock states get an identity
        self-loop, matching the explicit CTLK ops' path-quantification
        convention.

        The model's :meth:`~repro.symbolic.model.SymbolicContextModel.joint_relation`
        under the frozen protocol — the relation each
        :meth:`~repro.symbolic.model.SymbolicContextModel.successors` image
        is taken through — kept as a relation so temporal fixed points can
        take pre-images through it with one ``and_exists`` each.
        """
        if self._transition_node is not None:
            return self._transition_node
        if self.selection is None:
            raise ModelError(
                "this SymbolicSystem carries no frozen protocol selection; "
                "transition relations need one (rebuild it through "
                "construct_by_rounds)"
            )
        model = self.model
        encoding = model.encoding
        bdd = encoding.bdd
        relation = model.joint_relation(self.selection)
        relation = bdd.and_(relation, self.states_node)
        relation = bdd.and_(relation, encoding.prime(self.states_node))
        deadlocks = bdd.diff(
            self.states_node, bdd.exists(relation, encoding.primed_levels)
        )
        if deadlocks != FALSE:
            identity = TRUE
            for variable in reversed(model.state_space.variables):
                identity = bdd.and_(encoding.equality_node(variable.name), identity)
            relation = bdd.or_(relation, bdd.and_(deadlocks, identity))
        self._transition_node = relation
        return self._transition_node

    def state_count(self):
        """The number of reachable states (a BDD count, always cheap)."""
        return self._view.state_count()

    def __len__(self):
        return self.state_count()

    def iter_states(self):
        """Enumerate the reachable states (only for small systems)."""
        return self._view.iter_states()

    def local_states(self, agent):
        """The local states of ``agent`` over the reachable states
        (enumerates the agent's classes — boundary API)."""
        return self._view.local_states(agent)

    def summary(self):
        """Basic statistics, mirroring ``InterpretedSystem.summary``."""
        return {
            "context": self.model.name,
            "states": self.state_count(),
            "rounds": self.rounds,
            "bdd_nodes": self.model.encoding.bdd.cache_info()["unique.nodes"],
        }

    def __repr__(self):
        return (
            f"SymbolicSystem({self.model.name!r}, |S|={self.state_count()}, "
            f"rounds={self.rounds})"
        )
