"""Tests for contexts, protocols, transition systems and interpreted systems."""

import pytest

from repro.interpretation import construct_by_rounds, guard_table
from repro.logic import parse
from repro.modeling import StateSpace, boolean, ite, ranged, var
from repro.programs import AgentProgram, Clause, KnowledgeBasedProgram
from repro.protocols import leader_election, muddy_children
from repro.systems import (
    Context,
    JointProtocol,
    Protocol,
    constant_protocol,
    generate_transition_system,
    represent,
    variable_context,
)
from repro.systems.actions import Action, JointAction, NOOP_NAME
from repro.systems.runs import Run, enumerate_points, enumerate_runs
from repro.util.errors import ModelError, ProgramError


def _always(actions):
    return lambda local_state: frozenset(actions)


class TestActions:
    def test_action_equality_by_name(self):
        assert Action("go") == Action("go")
        assert Action("go") != Action("stop")

    def test_empty_action_name_rejected(self):
        with pytest.raises(ProgramError):
            Action("")

    def test_joint_action_lookup(self):
        joint = JointAction(None, {"a": "go", "b": "stop"})
        assert joint.action_of("a") == "go"
        assert joint.agents() == ("a", "b")

    def test_joint_action_missing_agent(self):
        with pytest.raises(ProgramError):
            JointAction(None, {"a": "go"}).action_of("b")

    def test_joint_action_hashable_and_equal(self):
        assert JointAction("e", {"a": "x"}) == JointAction("e", {"a": "x"})
        assert len({JointAction("e", {"a": "x"}), JointAction("e", {"a": "x"})}) == 1


class TestProtocols:
    def test_dict_protocol_lookup(self):
        protocol = Protocol("a", {("l",): {"go"}}, default={"noop"})
        assert protocol.actions(("l",)) == frozenset({"go"})
        assert protocol.actions(("other",)) == frozenset({"noop"})

    def test_protocol_without_default_raises_on_unknown(self):
        protocol = Protocol("a", {("l",): {"go"}})
        with pytest.raises(ProgramError):
            protocol.actions(("other",))

    def test_empty_action_set_rejected(self):
        with pytest.raises(ProgramError):
            Protocol("a", {("l",): set()})

    def test_callable_protocol(self):
        protocol = Protocol("a", _always({"go"}))
        assert protocol.actions("anything") == frozenset({"go"})
        assert protocol.is_deterministic_on(["x", "y"])

    def test_agrees_with(self):
        first = Protocol("a", _always({"go"}))
        second = Protocol("a", {("l",): {"go"}}, default={"go"})
        assert first.agrees_with(second, [("l",), ("m",)])

    def test_joint_protocol_validates_agent_names(self):
        with pytest.raises(ProgramError):
            JointProtocol({"b": Protocol("a", _always({"go"}))})

    def test_constant_protocol(self):
        protocol = constant_protocol("a", {"go", "stop"})
        assert protocol.actions("whatever") == frozenset({"go", "stop"})


class TestVariableContext:
    def test_counter_generation(self, counter_context):
        protocol = JointProtocol({"agent": constant_protocol("agent", {"inc"})})
        ts = generate_transition_system(counter_context, protocol)
        assert len(ts) == 4  # counter values 0..3, flag never set
        assert ts.max_depth() == 3
        assert ts.is_total()

    def test_depths_follow_counter(self, counter_context):
        protocol = JointProtocol({"agent": constant_protocol("agent", {"inc"})})
        ts = generate_transition_system(counter_context, protocol)
        for state in ts.states:
            assert ts.depth(state) == state["c"]

    def test_noop_protocol_stays_at_initial_state(self, counter_context):
        protocol = JointProtocol({"agent": constant_protocol("agent", {NOOP_NAME})})
        ts = generate_transition_system(counter_context, protocol)
        assert len(ts) == 1

    def test_nondeterministic_protocol_reaches_more_states(self, counter_context):
        protocol = JointProtocol(
            {"agent": constant_protocol("agent", {"inc", "set_flag"})}
        )
        ts = generate_transition_system(counter_context, protocol)
        assert len(ts) == 8  # every counter value with and without the flag

    def test_max_states_bound_enforced(self, counter_context):
        protocol = JointProtocol({"agent": constant_protocol("agent", {"inc"})})
        with pytest.raises(ModelError):
            generate_transition_system(counter_context, protocol, max_states=2)

    def test_max_depth_truncation(self, counter_context):
        protocol = JointProtocol({"agent": constant_protocol("agent", {"inc"})})
        ts = generate_transition_system(counter_context, protocol, max_depth=1)
        assert ts.truncated
        assert len(ts) == 2

    def test_local_state_projection(self, counter_context):
        state = counter_context.initial_states[0]
        assert counter_context.local_state("agent", state) == (("c", 0),)

    def test_unknown_agent_rejected(self, counter_context):
        state = counter_context.initial_states[0]
        counter_context.local_state("agent", state)  # memoise the known agent's view
        for _ in range(2):
            with pytest.raises(ModelError):
                counter_context.local_state("nobody", state)

    def test_labelling(self, counter_context):
        state = counter_context.initial_states[0]
        assert counter_context.labelling(state) == frozenset({"c=0"})
        assert counter_context.labelling(state) is counter_context.labelling(state)

    def test_write_conflict_detected(self):
        x = ranged("x", 0, 3)
        space = StateSpace([x])
        context = variable_context(
            "conflict",
            space,
            observables={"a": ["x"], "b": ["x"]},
            actions={"a": {"set1": {"x": 1}}, "b": {"set2": {"x": 2}}},
            initial=(var(x) == 0),
        )
        protocol = JointProtocol(
            {"a": constant_protocol("a", {"set1"}), "b": constant_protocol("b", {"set2"})}
        )
        with pytest.raises(ModelError):
            generate_transition_system(context, protocol)

    def test_failed_transitions_raise_on_every_call(self):
        x = ranged("x", 0, 3)
        space = StateSpace([x])
        context = variable_context(
            "failing",
            space,
            observables={"a": ["x"], "b": ["x"]},
            actions={
                "a": {"set1": {"x": 1}, "inc": {"x": var(x) + 1}},
                "b": {"set2": {"x": 2}},
            },
            initial=(var(x) == 1),
            global_constraint=(var(x) <= 1),
        )
        state = context.initial_states[0]
        conflict = JointAction(None, {"a": "set1", "b": "set2"})
        excluded = JointAction(None, {"a": "inc", "b": NOOP_NAME})
        for joint in (conflict, excluded, conflict, excluded):
            with pytest.raises(ModelError):
                context.transition(state, joint)
        fine = JointAction(None, {"a": "set1", "b": NOOP_NAME})
        assert context.transition(state, fine) is context.transition(state, fine)

    def test_spec_tables_are_read_only(self, counter_context):
        spec = counter_context.spec
        with pytest.raises(TypeError):
            spec.actions["agent"]["inc"] = Action("inc")
        with pytest.raises(TypeError):
            spec.actions["other"] = {}
        with pytest.raises(TypeError):
            spec.observables["agent"] = ("flag",)
        with pytest.raises(TypeError):
            spec.env_effects["boom"] = None

    @pytest.mark.parametrize("module", [muddy_children, leader_election])
    def test_reused_context_agrees_with_fresh(self, module):
        def summary(result):
            return (
                set(result.system.states),
                set(result.system.transition_system.transitions),
                result.iterations,
            )

        reused = module.context(3)
        warm = construct_by_rounds(module.program(3), reused)
        memoised = construct_by_rounds(module.program(3), reused)
        fresh = construct_by_rounds(module.program(3), module.context(3))
        assert summary(warm) == summary(memoised) == summary(fresh)

    def test_global_constraint_filters_initial_states(self):
        x = ranged("x", 0, 3)
        space = StateSpace([x])
        context = variable_context(
            "constrained",
            space,
            observables={"a": ["x"]},
            actions={"a": {}},
            initial=(var(x) >= 0),
            global_constraint=(var(x) <= 1),
        )
        assert len(context.initial_states) == 2

    def test_no_initial_states_rejected(self):
        x = ranged("x", 0, 1)
        space = StateSpace([x])
        with pytest.raises(ModelError):
            variable_context(
                "empty",
                space,
                observables={"a": ["x"]},
                actions={"a": {}},
                initial=(var(x) == 5),
            )


class TestInterpretedSystem:
    def _system(self, counter_context, actions):
        protocol = JointProtocol({"agent": constant_protocol("agent", actions)})
        return represent(counter_context, protocol)

    def test_knowledge_of_observed_variable(self, counter_context):
        system = self._system(counter_context, {"inc"})
        for state in system.states:
            value = state["c"]
            assert system.holds(state, parse(f"K[agent] c={value}"))

    def test_ignorance_of_unobserved_variable(self, counter_context):
        system = self._system(counter_context, {"inc", "set_flag"})
        # The agent never observes the flag, so whenever both flag values are
        # reachable with the same counter it does not know the flag.
        state = next(s for s in system.states if s["c"] == 1 and not s["flag"])
        assert not system.holds(state, parse("K[agent] flag"))
        assert not system.holds(state, parse("K[agent] !flag"))

    def test_holds_initially_and_everywhere(self, counter_context):
        system = self._system(counter_context, {"inc"})
        assert system.holds_initially(parse("c=0"))
        assert system.holds_everywhere(parse("!flag"))
        assert not system.holds_everywhere(parse("c=0"))

    def test_unreachable_state_rejected(self, counter_context):
        system = self._system(counter_context, {NOOP_NAME})
        space = counter_context.spec.state_space
        unreachable = space.state(c=3, flag=True)
        with pytest.raises(ModelError):
            system.holds(unreachable, parse("flag"))

    def test_counter_system_is_synchronous(self, counter_context):
        # The agent observes the counter, which equals the depth.
        assert self._system(counter_context, {"inc"}).is_synchronous()

    def test_flagging_system_is_not_synchronous(self, counter_context):
        # Setting the flag delays the counter, so states with equal counter
        # (indistinguishable for the agent) are first reached at different depths.
        system = self._system(counter_context, {"inc", "set_flag"})
        assert not system.is_synchronous()

    def test_summary_keys(self, counter_context):
        summary = self._system(counter_context, {"inc"}).summary()
        assert {"states", "transitions", "max_depth", "synchronous"} <= set(summary)

    def test_guard_value_requires_local_guard(self, counter_context):
        system = self._system(counter_context, {"inc", "set_flag"})
        local = (("c", 1),)
        flag = parse("flag")
        program = KnowledgeBasedProgram(
            [AgentProgram("agent", [Clause(flag, "set_flag")])]
        )
        table = guard_table(system, program)
        assert table.value("agent", local, flag) is None
        assert table.value("agent", local, parse("c=1")) is True


class TestRuns:
    def test_run_validation(self):
        with pytest.raises(ModelError):
            Run(["s0", "s1"], [])

    def test_run_points(self):
        run = Run(["s0", "s1"], ["act"])
        assert [point.state for point in run.points()] == ["s0", "s1"]
        assert run.point(1).time == 1

    def test_enumerate_runs_counts(self, counter_context):
        protocol = JointProtocol(
            {"agent": constant_protocol("agent", {"inc", NOOP_NAME})}
        )
        ts = generate_transition_system(counter_context, protocol)
        runs = enumerate_runs(ts, horizon=2)
        # Each round has two choices (inc or noop) from every state except
        # that inc saturates at 3; with horizon 2 from c=0 there are 4 runs.
        assert len(runs) == 4
        assert all(len(run) == 2 for run in runs)

    def test_points_local_history(self, counter_context):
        protocol = JointProtocol({"agent": constant_protocol("agent", {"inc"})})
        ts = generate_transition_system(counter_context, protocol)
        run = enumerate_runs(ts, horizon=3)[0]
        history = run.local_history(counter_context, "agent", 2)
        assert history == ((("c", 0),), (("c", 1),), (("c", 2),))

    def test_enumerate_points(self, counter_context):
        protocol = JointProtocol({"agent": constant_protocol("agent", {"inc"})})
        ts = generate_transition_system(counter_context, protocol)
        points = enumerate_points(ts, horizon=2)
        assert len(points) == 3  # one run, three points

    def test_stuttering_fills_horizon(self):
        x = ranged("x", 0, 1)
        space = StateSpace([x])
        context = variable_context(
            "still",
            space,
            observables={"a": ["x"]},
            actions={"a": {}},
            initial=(var(x) == 0),
        )
        protocol = JointProtocol({"a": constant_protocol("a", {NOOP_NAME})})
        ts = generate_transition_system(context, protocol)
        runs = enumerate_runs(ts, horizon=3)
        assert len(runs) == 1
        assert len(runs[0]) == 3
