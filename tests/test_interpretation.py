"""Tests for the interpretation engine: the functional, the implementation
relation, iteration, the round-by-round construction, the exhaustive search
and the uniqueness conditions."""

import pytest

from repro.interpretation import (
    StateSetView,
    check_implementation,
    classify_program,
    construct_by_rounds,
    depends_on_past,
    derive_protocol,
    enumerate_implementations,
    guard_holds_at_local,
    guard_table,
    implements,
    iterate_interpretation,
    liberal_protocol,
    program_provides_witnesses,
    restrictive_protocol,
    sufficient_conditions_report,
)
from repro.logic import parse
from repro.programs import AgentProgram, Clause, KnowledgeBasedProgram
from repro.protocols import (
    bit_transmission,
    muddy_children,
    sequence_transmission,
    variable_setting,
)
from repro.systems import represent
from repro.systems.actions import NOOP_NAME
from repro.util.errors import InterpretationError


@pytest.fixture(scope="module")
def vs_context():
    return variable_setting.context()


@pytest.fixture(scope="module")
def bt_solution():
    result = bit_transmission.solve("iterate")
    assert result.converged
    return result


class TestStateSetView:
    def test_view_over_initial_state_only(self, vs_context):
        view = StateSetView(vs_context, vs_context.initial_states)
        assert len(view.states) == 1
        # Over a single reachable state the blind agent knows everything true there.
        assert view.holds(view.states[0], parse("K[a] x=0"))

    def test_view_over_all_states(self, vs_context):
        all_states = vs_context.spec.state_space.all_states()
        view = StateSetView(vs_context, all_states)
        assert not view.holds(vs_context.initial_states[0], parse("K[a] x=0"))
        assert view.holds(vs_context.initial_states[0], parse("M[a] x=3"))

    def test_empty_view_rejected(self, vs_context):
        from repro.util.errors import ModelError

        with pytest.raises(ModelError):
            StateSetView(vs_context, [])


class TestFunctional:
    def test_derive_protocol_on_cyclic_program(self, vs_context):
        program = variable_setting.cyclic_program()
        # Over only the initial state the blind agent knows x=0, so both
        # guards hold and both set-actions are enabled.
        view = StateSetView(vs_context, vs_context.initial_states)
        protocol = derive_protocol(program, view)
        actions = protocol.actions("a", vs_context.local_state("a", vs_context.initial_states[0]))
        assert actions == frozenset({"set1", "set2"})
        # Over the full state space nothing is known, so only the fallback remains.
        full_view = StateSetView(vs_context, vs_context.spec.state_space.all_states())
        protocol_full = derive_protocol(program, full_view)
        actions_full = protocol_full.actions(
            "a", vs_context.local_state("a", vs_context.initial_states[0])
        )
        assert actions_full == frozenset({NOOP_NAME})

    def test_agent_without_program_idles(self, counter_context):
        program = KnowledgeBasedProgram([AgentProgram("someone_else", [])])
        view = StateSetView(counter_context, counter_context.initial_states)
        protocol = derive_protocol(program, view)
        local = counter_context.local_state("agent", counter_context.initial_states[0])
        assert protocol.actions("agent", local) == frozenset({NOOP_NAME})

    def test_non_local_guard_rejected(self, counter_context):
        # `flag` is not observable by the agent, so a bare `flag` guard is not
        # local once both flag values are reachable with the same counter.
        from repro.systems import constant_protocol, JointProtocol

        program = KnowledgeBasedProgram(
            [AgentProgram("agent", [Clause(parse("flag"), "inc"), Clause(parse("true"), "set_flag")])]
        )
        liberal = JointProtocol(
            {"agent": constant_protocol("agent", {"inc", "set_flag", NOOP_NAME})}
        )
        system = represent(counter_context, liberal)
        with pytest.raises(InterpretationError):
            derive_protocol(program, system)

    def test_non_local_guard_accepted_existentially(self, counter_context):
        # With require_local=False the clause is read existentially instead.
        from repro.systems import constant_protocol, JointProtocol

        program = KnowledgeBasedProgram(
            [AgentProgram("agent", [Clause(parse("flag"), "inc")])]
        )
        liberal = JointProtocol(
            {"agent": constant_protocol("agent", {"inc", "set_flag", NOOP_NAME})}
        )
        system = represent(counter_context, liberal)
        protocol = derive_protocol(program, system, require_local=False)
        local = counter_context.local_state("agent", counter_context.initial_states[0])
        assert protocol.actions("agent", local)

    def test_missing_fallback_raises_when_no_clause_enabled(self, vs_context):
        program = KnowledgeBasedProgram(
            [AgentProgram("a", [Clause(parse("K[a] x=3"), "set1")], fallback=None)]
        )
        view = StateSetView(vs_context, vs_context.initial_states)
        with pytest.raises(InterpretationError):
            derive_protocol(program, view)


class TestGuardTable:
    """The batched guards x local-class table must agree with the scalar
    :func:`guard_holds_at_local` path on every (agent, local state, clause)
    triple — non-local guards included."""

    def _assert_agrees(self, view, program, require_local=True):
        table = guard_table(view, program)
        checked = 0
        for agent_program in program:
            agent = agent_program.agent
            for local_state in view.local_states(agent):
                for clause in agent_program.clauses:
                    expected = guard_holds_at_local(
                        view, agent, local_state, clause.guard,
                        require_local=require_local,
                    )
                    actual = table.holds(
                        agent, local_state, clause.guard,
                        require_local=require_local,
                    )
                    assert actual == expected, (agent, local_state, clause.guard)
                    checked += 1
        assert checked > 0

    def test_agrees_on_bit_transmission_system(self, bt_solution):
        self._assert_agrees(bt_solution.system, bit_transmission.program())

    def test_agrees_on_bit_transmission_full_state_space(self):
        context = bit_transmission.context()
        view = StateSetView(context, context.spec.state_space.all_states())
        self._assert_agrees(view, bit_transmission.program())

    def test_agrees_on_muddy_children(self):
        result = muddy_children.solve(2)
        assert result.converged
        self._assert_agrees(result.system, muddy_children.program(2))

    def test_non_local_guard_three_valued(self):
        # A bare `sbit` guard is local to the sender (who observes the bit)
        # but non-local to the receiver over the full state space, where both
        # bit values share every receiver-local state.
        context = bit_transmission.context()
        view = StateSetView(context, context.spec.state_space.all_states())
        program = KnowledgeBasedProgram(
            [
                AgentProgram("S", [Clause(parse("sbit"), "send_ok")]),
                AgentProgram("R", [Clause(parse("sbit"), "ack_ok")]),
            ]
        )
        table = guard_table(view, program)
        guard = parse("sbit")
        for local_state in view.local_states("S"):
            assert table.value("S", local_state, guard) in (True, False)
        for local_state in view.local_states("R"):
            assert table.value("R", local_state, guard) is None
            with pytest.raises(InterpretationError):
                table.holds("R", local_state, guard)
            assert table.holds("R", local_state, guard, require_local=False) is True
        self._assert_agrees(view, program, require_local=False)

    def test_unknown_local_state_raises(self, bt_solution):
        table = guard_table(bt_solution.system, bit_transmission.program())
        with pytest.raises(InterpretationError):
            table.value("S", "no-such-local-state", parse("sbit"))

    def test_table_is_memoised_per_view_and_program(self, bt_solution):
        program = bit_transmission.program()
        first = guard_table(bt_solution.system, program)
        assert guard_table(bt_solution.system, program) is first
        # A structurally identical but distinct program object gets its own
        # table (identity keying: programs are mutable containers).
        assert guard_table(bt_solution.system, bit_transmission.program()) is not first

    def test_evaluator_less_view_falls_back_to_frozensets(self, bt_solution):
        system = bt_solution.system

        class DuckView:
            """A view exposing only the minimal protocol, no evaluator."""

            context = system.context

            @property
            def states(self):
                return system.states

            def extension(self, formula):
                return system.extension(formula)

            def local_states(self, agent):
                return system.local_states(agent)

            def states_with_local_state(self, agent, local_state):
                # Deliberately a list, not a set: duck views may return any
                # iterable of states (regression: the frozenset fallback used
                # to apply set operators to it directly).
                return list(system.states_with_local_state(agent, local_state))

        program = bit_transmission.program()
        duck_table = guard_table(DuckView(), program)
        reference = guard_table(system, program)
        for agent_program in program:
            agent = agent_program.agent
            for local_state in system.local_states(agent):
                for clause in agent_program.clauses:
                    assert duck_table.value(
                        agent, local_state, clause.guard
                    ) == reference.value(agent, local_state, clause.guard)

    def test_program_agents_outside_the_context_are_ignored(self, bt_solution):
        # Regression: the functional only consults context agents, so a
        # program mentioning an extra agent (whose guards may refer to
        # relations the view's structure does not carry) must still derive —
        # the batched pass used to evaluate every program guard eagerly and
        # raise ModelError on the unknown agent.
        program = KnowledgeBasedProgram(
            [
                AgentProgram("S", [Clause(parse("!K[S] ack"), "send_ok")]),
                AgentProgram("X", [Clause(parse("K[X] sbit"), "send_ok")]),
            ]
        )
        protocol = derive_protocol(program, bt_solution.system)
        for local_state in bt_solution.system.local_states("S"):
            assert protocol.actions("S", local_state)

    def test_ad_hoc_guard_outside_the_program(self, bt_solution):
        # Querying a guard the program never mentions goes through the same
        # uniformity logic (lazily evaluated and memoised).
        table = guard_table(bt_solution.system, bit_transmission.program())
        guard = parse("K[R] sbit | K[R] !sbit")
        for local_state in bt_solution.system.local_states("R"):
            assert table.value("R", local_state, guard) == guard_holds_at_local(
                bt_solution.system, "R", local_state, guard
            )


class TestImplementationRelation:
    def test_bit_transmission_fixed_point(self, bt_solution):
        context = bit_transmission.context()
        program = bit_transmission.program()
        report = check_implementation(bt_solution.protocol, program, bit_transmission.context())
        assert report.is_implementation
        assert not report.differences
        assert implements(bt_solution.protocol, program, context)

    def test_liberal_protocol_is_not_an_implementation(self):
        context = bit_transmission.context()
        program = bit_transmission.program()
        candidate = liberal_protocol(program, context)
        report = check_implementation(candidate, program, context)
        assert not report.is_implementation
        assert report.differences
        assert "vs program" in report.describe()

    def test_restrictive_protocol_is_not_an_implementation(self):
        context = bit_transmission.context()
        program = bit_transmission.program()
        candidate = restrictive_protocol(program, context)
        assert not implements(candidate, program, context)


class TestIteration:
    def test_bit_transmission_converges_from_both_seeds(self):
        context = bit_transmission.context()
        program = bit_transmission.program()
        liberal = iterate_interpretation(program, context, seed="liberal")
        restrictive = iterate_interpretation(program, context, seed="restrictive")
        assert liberal.converged and restrictive.converged
        assert frozenset(liberal.system.states) == frozenset(restrictive.system.states)

    def test_cyclic_program_oscillates(self, vs_context):
        result = iterate_interpretation(variable_setting.cyclic_program(), vs_context)
        assert not result.converged
        assert result.cycle_length == 2

    def test_cycle_breaking_program_converges(self, vs_context):
        result = iterate_interpretation(variable_setting.cycle_breaking_program(), vs_context)
        assert result.converged
        values = {state["x"] for state in result.system.states}
        assert values == {0, 1, 2}

    def test_explicit_seed_protocol(self, vs_context):
        program = variable_setting.cycle_breaking_program()
        seed = restrictive_protocol(program, vs_context)
        result = iterate_interpretation(program, vs_context, seed=seed)
        assert result.converged

    def test_unknown_seed_rejected(self, vs_context):
        with pytest.raises(InterpretationError):
            iterate_interpretation(variable_setting.cyclic_program(), vs_context, seed="bogus")

    def test_iteration_bound_enforced(self, vs_context):
        with pytest.raises(InterpretationError):
            iterate_interpretation(
                variable_setting.cyclic_program(), vs_context, max_iterations=1
            )


class _ReprUnstableLocal:
    """A value-equal local state whose ``repr`` differs per instance, like
    any object relying on the default (address-embedding) ``repr``."""

    _serial = 0

    def __init__(self, value):
        self.value = value
        type(self)._serial += 1
        self._token = type(self)._serial

    def __eq__(self, other):
        return isinstance(other, _ReprUnstableLocal) and other.value == self.value

    def __hash__(self):
        return hash(("_ReprUnstableLocal", self.value))

    def __repr__(self):
        return f"<local #{self._token}>"


class TestProtocolSignatureDeterminism:
    def test_signature_is_stable_across_recreated_local_states(self):
        # Regression: the signature used to sort local states with
        # ``key=repr``; equal local states recreated between functional
        # applications then sorted in creation order, so two behaviourally
        # identical protocols could produce different signatures and the
        # fixed-point test ``derived_signature == protocol_signature`` could
        # fail (or succeed) nondeterministically.
        from repro.interpretation.explicit import _protocol_signature
        from repro.systems.protocols import JointProtocol, Protocol

        class StubContext:
            agents = ("a",)

            def __init__(self, creation_order):
                self.creation_order = creation_order

            def local_states_of(self, agent, states):
                return {_ReprUnstableLocal(v) for v in self.creation_order}

        protocol = JointProtocol(
            {"a": Protocol("a", lambda local: frozenset({f"act{local.value}"}))}
        )
        values = list(range(6))
        first = _protocol_signature(protocol, StubContext(values), states=())
        # Recreate the same logical local states in the opposite order: the
        # per-instance repr tokens now anti-correlate with the values, which
        # flipped the old repr-based ordering.
        second = _protocol_signature(
            protocol, StubContext(list(reversed(values))), states=()
        )
        assert first == second

    def test_signature_orders_by_value_not_repr(self):
        from repro.interpretation.explicit import _protocol_signature
        from repro.systems.protocols import JointProtocol, Protocol

        class StubContext:
            agents = ("a",)

            def local_states_of(self, agent, states):
                return set(states)

        protocol = JointProtocol({"a": Protocol("a", lambda local: frozenset({"go"}))})
        signature = _protocol_signature(
            protocol, StubContext(), states=("s2", "s0", "s1")
        )
        ((agent, entries),) = signature
        assert agent == "a"
        assert [local for local, _ in entries] == ["s0", "s1", "s2"]


class TestConstructByRounds:
    def test_bit_transmission(self):
        result = construct_by_rounds(bit_transmission.program(), bit_transmission.context())
        assert result.verified
        assert len(result.system) == 6

    def test_matches_iterative_solution(self, bt_solution):
        rounds = construct_by_rounds(bit_transmission.program(), bit_transmission.context())
        assert frozenset(
            bit_transmission.context().labelling(s) for s in rounds.system.states
        ) == frozenset(
            bit_transmission.context().labelling(s) for s in bt_solution.system.states
        )

    def test_speculative_program_fails_verification(self, vs_context):
        result = construct_by_rounds(
            variable_setting.speculative_program(), vs_context, verify=True
        )
        assert result.verified is False


class TestSearch:
    @pytest.mark.parametrize("name", sorted(variable_setting.PROGRAM_FAMILY))
    def test_family_classification(self, vs_context, name):
        factory, expected = variable_setting.PROGRAM_FAMILY[name]
        result = enumerate_implementations(factory(), vs_context)
        assert result.classification == expected
        reachable_values = sorted(
            frozenset(state["x"] for state in system.states)
            for _, system in result
        )
        assert reachable_values == sorted(variable_setting.expected_reachable_values(name))

    def test_classify_program_wrapper(self, vs_context):
        assert classify_program(variable_setting.contradictory_program(), vs_context) == (
            "contradictory"
        )

    def test_unique_accessor(self, vs_context):
        result = enumerate_implementations(variable_setting.speculative_program(), vs_context)
        protocol, system = result.unique()
        assert implements(protocol, variable_setting.speculative_program(), vs_context)

    def test_unique_accessor_raises_for_multiple(self, vs_context):
        result = enumerate_implementations(variable_setting.cyclic_program(), vs_context)
        with pytest.raises(InterpretationError):
            result.unique()

    def test_search_size_limit(self):
        context = bit_transmission.context()
        with pytest.raises(InterpretationError):
            enumerate_implementations(
                bit_transmission.program(), context, max_free_states=3
            )

    def test_search_without_variable_based_context(self):
        # The liberal-reachable universe needs no full global state space.
        result = enumerate_implementations(
            sequence_transmission.kb_program(1), sequence_transmission.kb_context(1)
        )
        assert result.classification == "unique"
        assert result.candidates_checked == 16
        solved = sequence_transmission.solve_kb(1).system
        assert frozenset(solved.states) in result.reachable_sets()

    def test_every_found_implementation_is_a_fixed_point(self, vs_context):
        for name, (factory, _) in variable_setting.PROGRAM_FAMILY.items():
            program = factory()
            for protocol, _ in enumerate_implementations(program, vs_context):
                assert implements(protocol, program, vs_context), name


class TestConditions:
    def test_bit_transmission_provides_witnesses_but_not_synchronous(self, bt_solution):
        program = bit_transmission.program()
        assert program_provides_witnesses(program, [bt_solution.system])
        assert not bt_solution.system.is_synchronous()

    def test_depends_on_past_for_unique_program(self, bt_solution):
        program = bit_transmission.program()
        assert depends_on_past(program, [bt_solution.system, bt_solution.system])

    def test_cyclic_program_violates_dependence_on_past(self, vs_context):
        program = variable_setting.cyclic_program()
        systems = [
            represent(vs_context, protocol)
            for protocol, _ in enumerate_implementations(program, vs_context)
        ]
        assert len(systems) == 2
        assert not depends_on_past(program, systems)

    def test_sufficient_conditions_report(self, bt_solution):
        report = sufficient_conditions_report(
            bit_transmission.program(), bit_transmission.context(), [bt_solution.system]
        )
        assert report["provides_witnesses"] is True
        assert report["synchronous"] is False
        assert report["at_most_one_expected"] is True

    def test_report_requires_systems(self, vs_context):
        with pytest.raises(InterpretationError):
            sufficient_conditions_report(variable_setting.cyclic_program(), vs_context, [])
