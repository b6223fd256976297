"""The definitional oracle (:mod:`repro.oracle`) on the paper's edge cases.

The oracle is the engine-independent reference of the other test modules;
here it is pinned directly against the programs whose implementation sets
are known: the variable-setting family (zero, one and several
implementations, including the non-stabilising cyclic program and the
self-fulfilling one), muddy children and bit transmission.  Its operator
semantics are checked on hand-computed structures, its reachability and
verdicts against the constructions of every bundled spec on both
carriers, its extensions against the observation projections of symbolic
views of random specs, and its vote in
:func:`repro.spec.fuzz.differential_check` by making it dissent.
"""

import ast
import random
from itertools import combinations
from pathlib import Path

import pytest

from repro import oracle
from repro.engine import available_backends, backend_by_name
from repro.interpretation import (
    check_implementation,
    construct_by_rounds,
    enumerate_implementations,
)
from repro.interpretation.functional import liberal_protocol
from repro.interpretation.symbolic import SymbolicSynthesisOps
from repro.kripke import EpistemicStructure
from repro.logic import extension, parse
from repro.logic.formula import (
    FALSE,
    TRUE,
    And,
    CommonKnows,
    DistributedKnows,
    EveryoneKnows,
    Iff,
    Implies,
    Knows,
    Not,
    Or,
    Possible,
    Prop,
)
from repro.protocols import bit_transmission, muddy_children, variable_setting as vs
from repro.spec.fuzz import differential_check, random_spec
from repro.spec.library import bundled_spec_names, load_spec
from repro.systems.protocols import JointProtocol, Protocol
from repro.temporal import EX
from repro.util.errors import FormulaError

EXPECTED_COUNTS = {
    "cyclic": 2,
    "cycle_breaking": 1,
    "contradictory": 0,
    "self_fulfilling": 2,
    "speculative": 1,
}


def _blind_agent_protocols(context):
    """Every protocol of the blind agent: it has one local state, so a
    protocol is a non-empty subset of its actions."""
    actions = context.agent_actions(vs.AGENT)
    for size in range(1, len(actions) + 1):
        for chosen in combinations(actions, size):
            yield frozenset(chosen)


def _oracle_implementations(program, context):
    """``{reachable set: action set}`` of every implementation the oracle
    finds by brute force."""
    found = {}
    for actions in _blind_agent_protocols(context):
        protocol = lambda agent, local_state, actions=actions: actions  # noqa: E731
        if oracle.implements(context, program, protocol):
            found[oracle.reachable(context, protocol)] = actions
    return found


def test_the_blind_agent_has_fifteen_protocols():
    assert len(list(_blind_agent_protocols(vs.context()))) == 15


@pytest.mark.parametrize("name", sorted(vs.PROGRAM_FAMILY))
@pytest.mark.parametrize("carrier", ["context", "symbolic_model"])
def test_brute_force_matches_enumerate_implementations(name, carrier):
    factory, classification = vs.PROGRAM_FAMILY[name]
    context = vs.context()
    found = _oracle_implementations(factory(), context)
    assert len(found) == EXPECTED_COUNTS[name]
    model = context if carrier == "context" else vs.symbolic_model()
    search = enumerate_implementations(factory(), model)
    assert search.classification == classification
    assert set(search.reachable_sets()) == set(found)
    # The blind agent has a single local state: compare the action sets.
    (local_state,) = context.local_states_of(vs.AGENT, context.initial_states)
    for (protocol, _), states in zip(search, search.reachable_sets()):
        assert protocol.actions(vs.AGENT, local_state) == found[states]


def test_muddy_children_solution_implements_the_program():
    result = muddy_children.solve(3)
    context = result.system.context
    assert oracle.implements(context, muddy_children.program(3), result.protocol.actions)
    assert oracle.reachable(context, result.protocol.actions) == frozenset(
        result.system.states
    )


def test_bit_transmission_solution_implements_the_program():
    result = bit_transmission.solve()
    context = result.system.context
    assert oracle.implements(context, bit_transmission.program(), result.protocol.actions)
    assert oracle.reachable(context, result.protocol.actions) == frozenset(
        result.system.states
    )


def test_non_local_guard_has_no_value():
    # Over the full bit-transmission state space the receiver cannot see
    # the bit, so a bare ``sbit`` test is not local to it.
    context = bit_transmission.context()
    states = context.spec.state_space.all_states()
    guard = parse("sbit")
    assert {
        oracle.guard_value(context, states, "R", local, guard)
        for local in context.local_states_of("R", states)
    } == {None}
    assert {
        oracle.guard_value(context, states, "S", local, guard)
        for local in context.local_states_of("S", states)
    } == {True, False}


def test_empty_class_is_vacuously_true():
    context = vs.context()
    assert oracle.guard_value(context, (), vs.AGENT, "nowhere", parse("false")) is True


def test_oracle_imports_only_the_formula_ast_and_errors():
    source = Path(oracle.__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported == {"repro.logic.formula", "repro.util.errors"}


# -- operator semantics on a hand-computed structure --------------------------

# Four worlds, two S5 agents.  ``a`` cannot tell w0 from w1 nor w2 from w3;
# ``b`` cannot tell w1 from w2.  The union of the relations connects every
# world, so common knowledge among {a, b} needs the fact everywhere.
WORLDS = ("w0", "w1", "w2", "w3")
PARTITIONS = {
    "a": ({"w0", "w1"}, {"w2", "w3"}),
    "b": ({"w0"}, {"w1", "w2"}, {"w3"}),
}
LABELS = {"w0": {"p"}, "w1": {"p", "q"}, "w2": {"p"}, "w3": {"q"}}
p, q = Prop("p"), Prop("q")


def _accessible(agent, world):
    (cell,) = [cell for cell in PARTITIONS[agent] if world in cell]
    return cell


def _labels(world):
    return LABELS[world]


SEMANTIC_CASES = {
    "true": (TRUE, WORLDS),
    "false": (FALSE, ()),
    "prop": (p, ("w0", "w1", "w2")),
    "not": (Not(p), ("w3",)),
    "and": (And((p, q)), ("w1",)),
    "or": (Or((p, q)), WORLDS),
    "implies": (Implies(q, p), ("w0", "w1", "w2")),
    "iff": (Iff(p, q), ("w1",)),
    "knows": (Knows("a", p), ("w0", "w1")),
    "knows-finer-partition": (Knows("b", p), ("w0", "w1", "w2")),
    "possible": (Possible("a", q), WORLDS),
    "everyone-knows": (EveryoneKnows(("a", "b"), p), ("w0", "w1")),
    # E E p is strictly weaker than C p: one more level loses w1 only.
    "everyone-knows-twice": (
        EveryoneKnows(("a", "b"), EveryoneKnows(("a", "b"), p)),
        ("w0",),
    ),
    "common-knowledge-fails-on-a-connected-component": (
        CommonKnows(("a", "b"), p),
        (),
    ),
    "common-knowledge-of-a-global-fact": (CommonKnows(("a", "b"), Or((p, q))), WORLDS),
    # For one S5 agent common knowledge is that agent's knowledge.
    "common-knowledge-single-agent": (CommonKnows("a", p), ("w0", "w1")),
    # Intersecting the cells pins w0 and w2; no single agent knows not-q.
    "distributed-knows": (DistributedKnows(("a", "b"), Not(q)), ("w0", "w2")),
}


@pytest.mark.parametrize("case", sorted(SEMANTIC_CASES))
def test_operator_semantics_on_a_hand_computed_structure(case):
    formula, expected = SEMANTIC_CASES[case]
    assert oracle.extension(formula, WORLDS, _accessible, _labels) == frozenset(expected)
    # Every registered backend reaches the same hand-computed answer.
    structure = EpistemicStructure(
        WORLDS,
        {
            agent: {world: _accessible(agent, world) for world in WORLDS}
            for agent in PARTITIONS
        },
        LABELS,
        agents=tuple(PARTITIONS),
    )
    for backend in available_backends():
        assert extension(structure, formula, backend=backend) == set(expected), backend


def _chain(agent, world):
    """A non-reflexive relation: w0 sees w1, w1 sees nothing."""
    return {"w0": {"w1"}, "w1": set()}[world]


def test_modalities_over_no_accessible_world():
    labels = {"w0": set(), "w1": {"p"}}.__getitem__
    assert oracle.holds(Knows("a", FALSE), "w1", _chain, labels)
    assert not oracle.holds(Possible("a", TRUE), "w1", _chain, labels)
    assert oracle.holds(CommonKnows("a", FALSE), "w1", _chain, labels)


def test_common_knowledge_follows_paths_of_length_at_least_one():
    # p fails at w0 itself, but every world at the end of a non-empty path
    # from w0 (only w1) satisfies it.
    labels = {"w0": set(), "w1": {"p"}}.__getitem__
    assert oracle.holds(CommonKnows("a", p), "w0", _chain, labels)
    assert not oracle.holds(p, "w0", _chain, labels)
    assert not oracle.holds(CommonKnows("a", Not(p)), "w0", _chain, labels)


def test_temporal_formula_is_rejected():
    # The oracle has no runs to quantify over: temporal operators are the
    # CTLK checker's business.
    with pytest.raises(FormulaError, match="cannot evaluate"):
        oracle.holds(EX(p), "w0", _accessible, _labels)


# -- closure ----------------------------------------------------------------------


def test_closure_of_nothing_is_empty():
    assert oracle.closure((), lambda item: [item + 1]) == frozenset()


def test_closure_includes_the_start_items():
    assert oracle.closure({3, 7}, lambda item: ()) == frozenset({3, 7})


def test_closure_terminates_on_cycles():
    assert oracle.closure({0}, lambda item: [(item + 1) % 5, item]) == frozenset(range(5))


# -- constructions of the bundled specs --------------------------------------------


@pytest.mark.parametrize("name", bundled_spec_names())
@pytest.mark.parametrize("carrier", ["context", "symbolic_model"])
def test_bundled_spec_construction_agrees_with_the_oracle(name, carrier):
    spec = load_spec(name)
    context = spec.variable_context()
    model = context if carrier == "context" else spec.symbolic_model()
    program = spec.program()
    result = construct_by_rounds(program.check_against_context(model), model)
    states = (
        frozenset(result.system.states)
        if carrier == "context"
        else frozenset(result.system.iter_states())
    )
    assert oracle.reachable(context, result.protocol.actions) == states
    assert oracle.implements(context, program, result.protocol.actions) is result.verified
    assert result.verified


# -- protocols that are not implementations ---------------------------------------

SOLVED = {
    "muddy_children": (lambda: muddy_children.solve(3), lambda: muddy_children.program(3)),
    "bit_transmission": (bit_transmission.solve, bit_transmission.program),
}


def _perturbed(context, base, mode):
    """``base`` changed at one initial local state of the first agent: the
    other actions are added to its choice (``add``) or replace it
    (``replace``)."""
    agent = context.agents[0]
    local = min(context.local_states_of(agent, context.initial_states), key=repr)
    chosen = base.actions(agent, local)
    others = frozenset(context.agent_actions(agent)) - chosen
    changed = chosen | others if mode == "add" else others

    def table(who):
        def actions(local_state):
            if who == agent and local_state == local:
                return changed
            return base.actions(who, local_state)

        return Protocol(who, actions)

    return JointProtocol({who: table(who) for who in context.agents})


@pytest.mark.parametrize("mode", ["add", "replace"])
@pytest.mark.parametrize("name", sorted(SOLVED))
def test_perturbed_solution_is_no_implementation(name, mode):
    solve, program = SOLVED[name]
    result = solve()
    context = result.system.context
    candidate = _perturbed(context, result.protocol, mode)
    assert not oracle.implements(context, program(), candidate.actions)
    assert not check_implementation(candidate, program(), context).is_implementation


# -- engine extensions over constructed systems ------------------------------------


FACTS = {"muddy_children": Prop("muddy0"), "bit_transmission": Prop("sbit")}


def _battery(agents, fact):
    first, group = agents[0], tuple(agents)
    return [
        fact,
        Knows(first, fact),
        Possible(first, Not(fact)),
        EveryoneKnows(group, Or((fact, Not(fact)))),
        DistributedKnows(group, fact),
        CommonKnows(group, fact),
        Knows(agents[-1], Or((Knows(first, fact), Knows(first, Not(fact))))),
        Iff(Knows(first, fact), DistributedKnows(group, fact)),
    ]


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("name", sorted(SOLVED))
def test_engine_extensions_over_constructed_systems_match_the_oracle(name, backend):
    system = SOLVED[name][0]().system
    context, states = system.context, frozenset(system.states)

    def accessible(agent, state):
        local = context.local_state(agent, state)
        return {other for other in states if context.local_state(agent, other) == local}

    for formula in _battery(context.agents, FACTS[name]):
        assert extension(system.structure, formula, backend=backend) == set(
            oracle.extension(formula, states, accessible, context.labelling)
        ), formula


# -- observation projections of symbolic views ------------------------------------


def _projection_battery(agents, facts):
    """K/M of every agent, E/D/C of every non-empty group over each fact,
    and one nesting level on top."""
    groups = [group for size in range(1, len(agents) + 1) for group in combinations(agents, size)]
    battery = []
    for fact in facts:
        for agent in agents:
            battery += [Knows(agent, fact), Possible(agent, fact)]
        for group in groups:
            battery += [
                EveryoneKnows(group, fact),
                DistributedKnows(group, fact),
                CommonKnows(group, fact),
            ]
    first, everyone = facts[0], tuple(agents)
    for agent in agents:
        battery += [Knows(agent, Possible(other, first)) for other in agents]
        battery += [
            Possible(agent, EveryoneKnows(everyone, first)),
            Knows(agent, CommonKnows(everyone, facts[1])),
            DistributedKnows(everyone, Knows(agent, facts[1])),
            CommonKnows(everyone, Possible(agent, first)),
        ]
    return battery


@pytest.mark.parametrize("seed", range(40))
def test_projection_images_of_symbolic_views_match_the_oracle(seed):
    # The "bdd" backend answers every modality on a model view by projecting
    # onto observables; the oracle quantifies over the enumerated view with
    # "same local state" as accessibility.  Both views of each random spec:
    # the initial one and the liberal-reachable one.
    spec = random_spec(random.Random(seed))
    context = spec.variable_context()
    model = spec.symbolic_model()
    program = spec.program().check_against_context(model)
    _, liberal = SymbolicSynthesisOps(program, model).represent(
        liberal_protocol(program, model)
    )
    for node in (model.initial, liberal):
        view = model.view(node)
        states = frozenset(view.iter_states())

        def accessible(agent, state):
            local = context.local_state(agent, state)
            return {other for other in states if context.local_state(agent, other) == local}

        atoms = sorted(set().union(*map(context.labelling, states)))
        facts = [
            Prop(atoms[seed % len(atoms)]),
            Or((Not(Prop(atoms[-1 - seed % len(atoms)])), Prop(atoms[0]))),
        ]
        battery = _projection_battery(context.agents, facts)
        for formula, got in zip(battery, view.evaluator.extensions(battery)):
            assert got == oracle.extension(formula, states, accessible, context.labelling), (
                formula
            )
        # The empty group has no formula syntax: ask the backend directly.
        # E and C of nobody hold everywhere; D of nobody holds everywhere
        # exactly when the operand does.
        backend, structure = backend_by_name("bdd"), view.structure
        for fact in facts:
            inner = view.evaluator.extension_ws(fact)
            holds_everywhere = view.extension(fact) == states
            for operator, expected in (
                (backend.everyone_knows, states),
                (backend.common_knows, states),
                (backend.distributed_knows, states if holds_everywhere else frozenset()),
            ):
                got = backend.to_frozenset(structure, operator(structure, (), inner))
                assert got == expected, (operator.__name__, fact)


# -- the oracle's vote in the differential fuzz check ------------------------------


def test_differential_check_agrees_with_the_oracle_on_bit_transmission():
    assert differential_check(load_spec("bit_transmission")) == {
        "states": 6,
        "outcome": "converged",
    }


@pytest.mark.parametrize(
    "function, dissent, message",
    [
        ("guard_value", lambda *args: "dissent", "guard tables diverge"),
        ("reachable", lambda *args: frozenset(), "oracle's reachable set diverges"),
        ("implements", lambda *args: False, "oracle's implementation verdict diverges"),
    ],
    ids=["guard_value", "reachable", "implements"],
)
def test_differential_check_reports_a_dissenting_oracle(monkeypatch, function, dissent, message):
    monkeypatch.setattr(oracle, function, dissent)
    with pytest.raises(AssertionError, match=message):
        differential_check(load_spec("bit_transmission"))
