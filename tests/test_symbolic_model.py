"""Equivalence of the enumeration-free symbolic construction with the
explicit ``variable_context`` pipeline, plus unit tests of the compilation
layer (expression compiler, cache ceilings, pruned state enumeration).

The property at the heart of this module: on every bundled protocol small
enough to enumerate, compiling the *same ingredients* symbolically must
produce the same initial set, the same per-agent indistinguishability
relations, the same guard tables and the same round-by-round construction
result as the explicit path."""

import pytest

from repro.interpretation import StateSetView, construct_by_rounds, derive_protocol
from repro.interpretation.functional import guard_table
from repro.logic.formula import Knows, Prop
from repro.modeling import StateSpace, boolean, const, ite, ranged, var
from repro.modeling.expressions import BinaryOp, Comparison
from repro.programs import AgentProgram, Clause, KnowledgeBasedProgram
from repro.protocols import bit_transmission as bt
from repro.protocols import muddy_children as mc
from repro.protocols import variable_setting as vs
from repro.symbolic import BDD, FALSE, TRUE, VariableEncoding
from repro.symbolic.model import (
    SymbolicContextModel,
    SymbolicGuardTable,
    compile_context,
)
from repro.util.errors import ModelError, ProgramError


def small_space():
    return StateSpace([ranged("x", 0, 3), ranged("y", 0, 2), boolean("b")])


# -- fixtures over the bundled protocols ------------------------------------------------


def bundled_cases():
    """(explicit context, symbolic model, program) triples of every bundled
    protocol small enough to enumerate."""
    cases = []
    cases.append(("bit-transmission", bt.context(), bt.symbolic_model(), bt.program()))
    vs_ctx = vs.context()
    for name, (factory, _) in sorted(vs.PROGRAM_FAMILY.items()):
        cases.append((f"variable-setting-{name}", vs_ctx, vs.symbolic_model(), factory()))
    for n in (2, 3, 4, 6):
        cases.append(
            (f"muddy-children-{n}", mc.context(n), mc.symbolic_model(n), mc.program(n))
        )
    return cases


CASES = bundled_cases()
CASE_IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("name,context,model,program", CASES, ids=CASE_IDS)
class TestSymbolicAgreesWithExplicit:
    def test_initial_sets_agree(self, name, context, model, program):
        symbolic_initial = set(model.encoding.iter_states(model.initial))
        assert symbolic_initial == set(context.initial_states)

    def test_agent_relations_agree(self, name, context, model, program):
        # The accessibility relation read through the projection image: s
        # has an agent-successor in {t} iff their local states agree.
        states = list(context.initial_states)
        view_encoding = model.view(model.initial).structure.encoding
        encoding = model.encoding
        for agent in context.agents:
            for t in states:
                image = view_encoding.pre_image((agent,), "union", encoding.state_node(t))
                assert view_encoding.post_image((agent,), "union", encoding.state_node(t)) == image
                for s in states:
                    explicit = context.local_state(agent, s) == context.local_state(agent, t)
                    assert encoding.evaluate_node(image, s) == explicit, (agent, s, t)

    def test_guard_tables_agree(self, name, context, model, program):
        states = list(context.initial_states)
        explicit_view = StateSetView(context, states)
        symbolic_view = model.view(
            model.view(model.initial).structure.encoding.worlds_node(states)
        )
        explicit_table = guard_table(explicit_view, program)
        symbolic_table = guard_table(symbolic_view, program)
        assert isinstance(symbolic_table, SymbolicGuardTable)
        for agent_program in program:
            agent = agent_program.agent
            if agent not in context.agents:
                continue
            for local_state in explicit_view.local_states(agent):
                for clause in agent_program.clauses:
                    assert symbolic_table.value(
                        agent, local_state, clause.guard
                    ) == explicit_table.value(agent, local_state, clause.guard)

    def test_derive_protocol_agrees(self, name, context, model, program):
        states = list(context.initial_states)
        explicit_view = StateSetView(context, states)
        symbolic_view = model.initial_view()
        explicit = derive_protocol(program, explicit_view, require_local=False)
        symbolic = derive_protocol(program, symbolic_view, require_local=False)
        for agent in context.agents:
            locals_here = context.local_states_of(agent, states)
            assert symbolic_view.local_states(agent) == set(locals_here)
            for local_state in locals_here:
                assert symbolic.actions(agent, local_state) == explicit.actions(
                    agent, local_state
                )

    def test_construct_by_rounds_agrees(self, name, context, model, program):
        try:
            explicit = construct_by_rounds(
                program.check_against_context(context), context
            )
            explicit_outcome = None
        except Exception as error:  # the construction may legitimately fail
            explicit, explicit_outcome = None, type(error).__name__
        try:
            symbolic = construct_by_rounds(program.check_against_context(model), model)
            symbolic_outcome = None
        except Exception as error:
            symbolic, symbolic_outcome = None, type(error).__name__
        assert symbolic_outcome == explicit_outcome
        if explicit is None:
            return
        assert symbolic.iterations == explicit.iterations
        assert symbolic.verified == explicit.verified
        explicit_states = set(explicit.system.states)
        assert set(symbolic.system.iter_states()) == explicit_states
        assert symbolic.system.state_count() == len(explicit_states)
        for agent in context.agents:
            for local_state in context.local_states_of(agent, explicit_states):
                assert symbolic.protocol.actions(
                    agent, local_state
                ) == explicit.protocol.actions(agent, local_state)


def test_non_local_guard_value_is_none_on_both_paths():
    context, model = mc.context(3), mc.symbolic_model(3)
    program = mc.program(3)
    states = list(context.initial_states)
    explicit_table = guard_table(StateSetView(context, states), program)
    symbolic_table = guard_table(model.initial_view(), program)
    guard = Prop("muddy0")  # child0 cannot see its own forehead
    agent = mc.child(0)
    values = set()
    for local_state in context.local_states_of(agent, states):
        explicit_value = explicit_table.value(agent, local_state, guard)
        assert symbolic_table.value(agent, local_state, guard) == explicit_value
        values.add(explicit_value)
    assert None in values  # the guard really is non-local somewhere


def test_symbolic_construction_at_enumeration_infeasible_scale():
    """The acceptance scenario: a context with ``StateSpace.size() >= 2**20``
    interpreted round by round entirely symbolically."""
    n = 10
    model = mc.symbolic_model(n)
    assert model.state_space.size() >= 2**20
    result = construct_by_rounds(mc.program(n).check_against_context(model), model)
    assert result.verified is True
    assert result.iterations == n + 2
    assert result.system.state_count() == 12276
    # Classical muddy-children semantics, checked on one run: with k muddy
    # children every muddy child first answers yes in round k, the clean
    # ones one round later.
    k = 3
    pattern = [i < k for i in range(n)]
    state = mc.initial_state_for_pattern(model, pattern)
    first_yes = {}
    for _ in range(n + 2):
        state = _step(model, result.protocol, state)
        for i in range(n):
            if i not in first_yes and state[f"said{i}"]:
                first_yes[i] = state["round"]
    assert all(first_yes[i] == k for i in range(k))
    assert all(first_yes[i] == k + 1 for i in range(k, n))


def _step(model, protocol, state):
    """Apply one deterministic round of a symbolic model's transition
    semantics (environment effect first, then every agent's unique action,
    all reading the pre-state)."""
    pre = state.as_dict()
    new = dict(pre)
    for effect in model.env_effects.values():
        for name, expr in effect.updates.items():
            new[name] = expr.evaluate(pre)
    for agent in model.agents:
        actions = protocol.actions(agent, model.local_state(agent, state))
        assert len(actions) == 1
        effect = model.actions[agent][next(iter(actions))].effect
        for name, expr in effect.updates.items():
            new[name] = expr.evaluate(pre)
    return model.state_space.state(new)


# -- compile_context and model validation ----------------------------------------------


def test_compile_context_requires_spec():
    from repro.kripke import single_agent_structure  # any non-variable context

    with pytest.raises(ModelError):
        compile_context(object())


def test_unsupported_ingredients_are_rejected():
    parts = vs.context_parts()
    with pytest.raises(ModelError):
        SymbolicContextModel(**parts, env_protocol=lambda state: ("go",))
    with pytest.raises(ModelError):
        SymbolicContextModel(**parts, admissibility=lambda run: True)
    with pytest.raises(ModelError):
        SymbolicContextModel(**parts, extra_labels=lambda state: ())


def test_conflicting_write_sets_are_rejected():
    x = ranged("x", 0, 3)
    space = StateSpace([x])
    with pytest.raises(ModelError, match="disjoint write sets"):
        SymbolicContextModel(
            "clash",
            space,
            observables={"a": ["x"], "b": ["x"]},
            actions={"a": {"set1": {"x": 1}}, "b": {"set2": {"x": 2}}},
            initial=(var(x) == 0),
        )


def test_empty_initial_set_is_rejected():
    x = ranged("x", 0, 3)
    space = StateSpace([x])
    with pytest.raises(ModelError, match="no initial states"):
        SymbolicContextModel(
            "empty",
            space,
            observables={"a": ["x"]},
            actions={"a": {}},
            initial=(var(x) == 5),
        )


def test_effect_leaving_the_domain_is_detected():
    x = ranged("x", 0, 3)
    space = StateSpace([x])
    model = SymbolicContextModel(
        "overflow",
        space,
        observables={"a": ["x"]},
        actions={"a": {"inc": {"x": var(x) + 1}}},
        initial=(var(x) == 3),
    )
    with pytest.raises(ModelError, match="leaves a variable's domain"):
        model.successors(model.initial, {"a": {"inc": TRUE}})


def test_guard_non_locality_on_frozen_classes_does_not_fail_later_rounds():
    """A guard may become non-local on a class *decided in an earlier
    round* (its decision is frozen and never re-queried); only the classes
    currently being decided must be local — on both paths."""
    from repro.systems import variable_context

    o, x = boolean("o"), boolean("x")
    space = StateSpace([o, x])
    parts = dict(
        name="frozen-nonlocal",
        state_space=space,
        observables={"a": ["o"]},
        actions={"a": {}},
        initial=(~var(o)) & (~var(x)),
        env_effects={"set_x": {"x": True}, "set_o": {"o": True}},
    )
    program = KnowledgeBasedProgram(
        [AgentProgram("a", [Clause(Prop("x"), "noop")], fallback="noop")]
    )
    explicit = construct_by_rounds(
        program, variable_context(**parts), verify=False
    )
    symbolic = construct_by_rounds(
        program, SymbolicContextModel(**parts), verify=False
    )
    assert set(symbolic.system.iter_states()) == set(explicit.system.states)
    assert len(set(explicit.system.states)) == 4


def test_effect_evaluation_errors_are_lazy_like_the_explicit_path():
    """An effect that raises on states the global constraint excludes must
    compile and run (the explicit path never evaluates unreached states);
    it must still raise if a reachable state hits the error region."""
    x, z = ranged("x", 0, 3), ranged("z", 0, 3)
    space = StateSpace([x, z])
    model = SymbolicContextModel(
        "lazy-errors",
        space,
        observables={"a": ["x", "z"]},
        actions={"a": {"mod": {"x": var(x) % var(z)}}},
        initial=(var(x) == 3) & (var(z) == 2),
        global_constraint=(var(z) > 0),
    )
    targets = model.successors(model.initial, {"a": {"mod": TRUE}})
    assert set(model.encoding.iter_states(targets)) == {
        space.state(x=1, z=2)
    }
    # Without the constraint the z=0 region is reachable: the per-round
    # check must surface the ill-defined effect.
    unguarded = SymbolicContextModel(
        "eager-errors",
        space,
        observables={"a": ["x", "z"]},
        actions={"a": {"mod": {"x": var(x) % var(z)}}},
        initial=(var(x) == 3) & (var(z) == 0),
    )
    with pytest.raises(ModelError, match="fails to evaluate"):
        unguarded.successors(unguarded.initial, {"a": {"mod": TRUE}})


def test_partial_expressions_in_boolean_positions_are_rejected():
    x, z = ranged("x", 0, 3), ranged("z", 0, 3)
    space = StateSpace([x, z])
    encoding = VariableEncoding(space)
    with pytest.raises(ModelError, match="raises"):
        encoding.truth_node((var(x) % var(z)) == 1)


def test_variable_order_must_be_a_permutation():
    parts = vs.context_parts()
    with pytest.raises(ModelError, match="permutation"):
        SymbolicContextModel(**parts, variable_order=["x", "x"])


def test_variable_order_changes_levels_not_semantics():
    n = 3
    default = mc.symbolic_model(n)  # interleaved order
    parts = mc.context_parts(n)
    declaration_order = SymbolicContextModel(**parts)
    assert set(default.encoding.iter_states(default.initial)) == set(
        declaration_order.encoding.iter_states(declaration_order.initial)
    )


# -- the expression compiler -----------------------------------------------------------


class TestExpressionCompiler:
    def setup_method(self):
        self.space = small_space()
        self.encoding = VariableEncoding(self.space)

    def check_truth(self, expression):
        node = self.encoding.truth_node(expression)
        for state in self.space.states():
            assert self.encoding.evaluate_node(node, state) == state.satisfies(
                expression
            ), str(expression)

    def check_values(self, expression):
        table = self.encoding.values_map(expression)
        for state in self.space.states():
            expected = state.evaluate(expression)
            hits = [
                value
                for value, guard in table.items()
                if self.encoding.evaluate_node(guard, state)
            ]
            assert hits == [expected], str(expression)

    def test_comparisons_and_connectives(self):
        x, y, b = (var(self.space.variable(name)) for name in ("x", "y", "b"))
        for expression in [
            x == 2,
            x != y,
            x < y,
            x <= 2,
            x > y,
            y >= 1,
            b,
            ~b,
            (x == 1) & (y == 2),
            (x == 1) | b,
            ~((x < y) & b),
            (x == x),
        ]:
            self.check_truth(expression)

    def test_arithmetic_case_splits(self):
        x, y = (var(self.space.variable(name)) for name in ("x", "y"))
        for expression in [
            x + y,
            x - y,
            x * y,
            x + 1,
            (x + y) * 2,
            ite(x < 2, x + 1, x),
            ite((x == y), const(7), x - y),
        ]:
            self.check_values(expression)
        self.check_truth((x + y) == 3)
        self.check_truth((x * y) > 4)
        self.check_truth(ite(x < 2, x + 1, x) == 2)

    def test_constants_and_modulo(self):
        x = var(self.space.variable("x"))
        self.check_truth(const(True))
        self.check_truth(const(0))
        self.check_values(x % 3)
        self.check_truth((x % 2) == 1)

    def test_truthiness_of_arithmetic_in_boolean_position(self):
        x = var(self.space.variable("x"))
        self.check_truth(x)  # nonzero values are truthy, as in State.satisfies
        self.check_truth(x - 1)

    def test_unknown_variable_is_rejected(self):
        other = ranged("z", 0, 1)
        with pytest.raises(ModelError):
            self.encoding.truth_node(var(other) == 0)


def test_expression_compiler_property():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    space = small_space()
    x, y, b = (var(space.variable(name)) for name in ("x", "y", "b"))

    values = st.one_of(
        st.just(x), st.just(y), st.integers(min_value=-1, max_value=4).map(const)
    )
    value_exprs = st.recursive(
        values,
        lambda child: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*"]), child, child).map(
                lambda t: BinaryOp(t[0], t[1], t[2])
            ),
            st.tuples(child, child).map(lambda t: ite(x < 2, t[0], t[1])),
        ),
        max_leaves=5,
    )
    comparisons = st.tuples(
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), value_exprs, value_exprs
    ).map(lambda t: Comparison(t[0], t[1], t[2]))
    bool_exprs = st.recursive(
        st.one_of(comparisons, st.just(b)),
        lambda child: st.one_of(
            st.tuples(child, child).map(lambda t: t[0] & t[1]),
            st.tuples(child, child).map(lambda t: t[0] | t[1]),
            child.map(lambda e: ~e),
        ),
        max_leaves=6,
    )

    encoding = VariableEncoding(space)
    states = space.all_states()

    @settings(max_examples=120, deadline=None)
    @given(bool_exprs)
    def agree(expression):
        node = encoding.truth_node(expression)
        for state in states:
            assert encoding.evaluate_node(node, state) == state.satisfies(expression)

    agree()


# -- BDD cache ceilings ----------------------------------------------------------------


class TestCacheCeilings:
    def test_overflow_clears_and_records_high_water(self):
        manager = BDD(8, cache_ceiling=64)
        variables = [manager.var(level) for level in range(8)]
        node = FALSE
        for i in range(8):
            for j in range(8):
                node = manager.or_(node, manager.and_(variables[i], manager.not_(variables[j])))
        info = manager.cache_info()
        assert info["cache.ceiling"] == 64
        assert info["cache.clears"] > 0
        assert info["cache.ite.size"] < 64
        assert info["cache.ite.high_water"] >= info["cache.ite.size"]

    def test_results_survive_overflow(self):
        bounded = BDD(6, cache_ceiling=16)
        unbounded = BDD(6, cache_ceiling=None)
        def build(manager):
            variables = [manager.var(level) for level in range(6)]
            node = TRUE
            for i in range(5):
                node = manager.and_(node, manager.or_(variables[i], variables[i + 1]))
            return manager.exists(node, (0, 2, 4))
        a, b = build(bounded), build(unbounded)
        # Same function: compare by truth table over the 3 remaining levels.
        for point in range(8):
            assignment = {1: point & 1, 3: (point >> 1) & 1, 5: (point >> 2) & 1}
            assert bounded.evaluate(a, assignment) == unbounded.evaluate(b, assignment)

    def test_invalid_ceiling_rejected(self):
        from repro.util.errors import EngineError

        with pytest.raises(EngineError):
            BDD(2, cache_ceiling=0)

    def test_clear_operation_caches_updates_high_water(self):
        manager = BDD(4)
        a = manager.and_(manager.var(0), manager.var(1))
        manager.exists(a, (0,))
        before = manager.cache_info()
        manager.clear_operation_caches()
        after = manager.cache_info()
        assert after["cache.ite.size"] == 0 and after["cache.op.size"] == 0
        assert after["cache.ite.high_water"] >= before["cache.ite.size"]
        assert after["cache.op.high_water"] >= before["cache.op.size"]


# -- pruned constrained enumeration ----------------------------------------------------


class TestPrunedStateEnumeration:
    def test_agrees_with_filtering_and_preserves_order(self):
        space = small_space()
        x, y, b = (var(space.variable(name)) for name in ("x", "y", "b"))
        constraints = [
            (x == 0) & (y == 0),
            (x < y) | b,
            ~b & (x + y == 3),
            (x == x),
            (x == 1) & (x == 2),  # unsatisfiable
        ]
        for constraint in constraints:
            filtered = [
                state for state in space.states() if state.satisfies(constraint)
            ]
            assert list(space.states(constraint)) == filtered

    def test_constant_false_constraint_yields_nothing(self):
        space = small_space()
        assert space.all_states(const(False)) == []
        assert len(space.all_states(const(True))) == space.size()

    def test_unknown_variable_still_raises(self):
        space = small_space()
        stranger = ranged("z", 0, 1)
        with pytest.raises(ModelError):
            list(space.states(var(stranger) == 0))

    def test_raising_conjunct_falls_back_to_exact_order(self):
        # (1 % x) raises at x = 0, but the first conjunct is false on every
        # x = 0 state, so the original left-to-right evaluation never
        # reached it; the pruned walk must not surface the error either.
        x, y = ranged("x", 0, 3), ranged("y", 0, 3)
        space = StateSpace([x, y])
        constraint = ((var(x) * 4 + var(y)) > 3) & ((const(1) % var(x)) == 0)
        states = space.all_states(constraint)
        assert len(states) == 4
        assert all(state["x"] == 1 for state in states)

    def test_pruning_makes_large_conjunctive_spaces_cheap(self):
        # 24 booleans, all forced False: the unpruned product would visit
        # 2**24 combinations; the pruned walk visits 24.
        flags = [boolean(f"f{i}") for i in range(24)]
        space = StateSpace(flags)
        constraint = ~var(flags[0])
        for flag in flags[1:]:
            constraint = constraint & (~var(flag))
        states = space.all_states(constraint)
        assert len(states) == 1

    def test_variables_memoised(self):
        x = ranged("x", 0, 3)
        expression = (var(x) + 1) * var(x)
        first = expression.variables()
        assert expression.variables() is first
        assert first == frozenset({x})


# -- unknown agents ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["explicit", "symbolic"])
def test_unknown_agent_is_a_model_error_on_every_view(kind):
    if kind == "explicit":
        context = mc.context(2)
        view = StateSetView(context, list(context.initial_states))
    else:
        model = mc.symbolic_model(2)
        view = model.initial_view()
        with pytest.raises(ModelError, match="unknown agent"):
            model.project("zz", view.states_node)
    with pytest.raises(ModelError, match="unknown agent"):
        view.local_states("zz")
    with pytest.raises(ModelError, match="unknown agent"):
        view.extension(Knows("zz", Prop("muddy0")))


def test_unknown_action_is_a_program_error_in_both_transition_builders():
    model = mc.symbolic_model(2)
    selection = {model.agents[0]: {"zap": model.domain}}
    for build in (
        lambda: model.joint_relation(selection),
        lambda: model.successors(model.initial, selection),
    ):
        with pytest.raises(ProgramError, match="has no action 'zap'"):
            build()
