"""Tests for CTLK model checking and the analysis helpers."""

import random

import pytest

from repro.analysis import (
    everyone_knows_level,
    is_common_knowledge,
    knowledge_census,
    knowledge_level_reached,
    system_statistics,
)
from repro.logic import parse
from repro.logic.formula import Prop
from repro.protocols import bit_transmission
from repro.systems import JointProtocol, constant_protocol, represent
from repro.temporal import AF, AG, AU, AX, EF, EG, EU, EX, CTLKModelChecker, check_reachable, check_valid
from repro.util.errors import ModelError


@pytest.fixture(scope="module")
def counter_system(request):
    from repro.modeling import StateSpace, boolean, ite, ranged, var
    from repro.systems import variable_context

    counter = ranged("c", 0, 3)
    flag = boolean("flag")
    space = StateSpace([counter, flag])
    context = variable_context(
        "counter-temporal",
        space,
        observables={"agent": ["c"]},
        actions={
            "agent": {
                "inc": {"c": ite(var(counter) < 3, var(counter) + 1, var(counter))},
                "set_flag": {"flag": True},
            }
        },
        initial=(var(counter) == 0) & (~var(flag)),
    )
    protocol = JointProtocol({"agent": constant_protocol("agent", {"inc", "set_flag"})})
    return represent(context, protocol)


@pytest.fixture(scope="module")
def bt_system():
    return bit_transmission.solve("iterate").system


class TestTemporalOperators:
    def test_ef_reaches_saturation(self, counter_system):
        assert check_valid(counter_system, EF(parse("c=3")))

    def test_ag_invariant(self, counter_system):
        assert check_valid(counter_system, AG(parse("c=0 | c=1 | c=2 | c=3")))
        assert not check_valid(counter_system, AG(parse("!flag")))

    def test_ex_and_ax(self, counter_system):
        checker = CTLKModelChecker(counter_system)
        initial = counter_system.initial_states[0]
        assert checker.holds(initial, EX(parse("c=1")))
        assert checker.holds(initial, EX(parse("flag")))
        assert not checker.holds(initial, AX(parse("c=1")))
        assert checker.holds(initial, AX(parse("c=1 | flag")))

    def test_eg_on_stuttering_path(self, counter_system):
        # The run that always chooses set_flag keeps the counter at 0 forever.
        assert check_valid(counter_system, EG(parse("c=0")))

    def test_af_eventual_saturation_fails_with_stuttering(self, counter_system):
        # Because set_flag can be chosen forever, c=3 is not inevitable.
        assert not check_valid(counter_system, AF(parse("c=3")))

    def test_eu_and_au(self, counter_system):
        checker = CTLKModelChecker(counter_system)
        initial = counter_system.initial_states[0]
        assert checker.holds(initial, EU(parse("!flag"), parse("c=2")))
        assert checker.holds(initial, AU(parse("true"), parse("c=3 | flag")))
        assert not checker.holds(initial, AU(parse("true"), parse("c=3")))

    def test_deadlock_states_self_loop(self):
        # A system whose only protocol action is noop deadlocks immediately in
        # terms of progress; the checker treats it as a self-loop.
        from repro.modeling import StateSpace, ranged, var
        from repro.systems import variable_context
        from repro.systems.actions import NOOP_NAME

        x = ranged("x", 0, 1)
        space = StateSpace([x])
        context = variable_context(
            "still",
            space,
            observables={"a": ["x"]},
            actions={"a": {}},
            initial=(var(x) == 0),
        )
        system = represent(context, JointProtocol({"a": constant_protocol("a", {NOOP_NAME})}))
        assert check_valid(system, AG(parse("x=0")))
        assert check_valid(system, EG(parse("x=0")))

    def test_unknown_state_rejected(self, counter_system):
        checker = CTLKModelChecker(counter_system)
        with pytest.raises(ModelError):
            checker.holds("nonsense", parse("true"))

    def test_witness_state(self, counter_system):
        checker = CTLKModelChecker(counter_system)
        witness = checker.witness_state(parse("c=2"))
        assert witness is not None and witness["c"] == 2
        assert checker.witness_state(parse("false")) is None


class TestTemporalEpistemic:
    def test_bit_transmission_properties(self, bt_system):
        checker = CTLKModelChecker(bt_system)
        for name, (formula, expected) in bit_transmission.property_formulas().items():
            assert checker.valid(formula) == expected, name

    def test_knowledge_inside_temporal(self, bt_system):
        # Once the receiver knows the bit it keeps knowing it.
        formula = AG(bit_transmission.receiver_knows_bit() >> AG(bit_transmission.receiver_knows_bit()))
        assert check_valid(bt_system, formula)

    def test_temporal_inside_knowledge(self, counter_system):
        # The agent knows (trivially) that the counter can keep growing or a
        # flag can be set: a K over an EX formula.
        from repro.logic.formula import Knows

        checker = CTLKModelChecker(counter_system)
        initial = counter_system.initial_states[0]
        assert checker.holds(initial, Knows("agent", EX(parse("c=1 | flag"))))

    def test_check_reachable(self, bt_system):
        assert check_reachable(bt_system, parse("ack"))
        assert not check_reachable(bt_system, parse("ack & !snt"))


class TestGreatestFixpointEG:
    def test_matches_naive_rescan_on_random_candidate_sets(self, counter_system):
        # The successor-count deletion algorithm must compute the same
        # greatest fixed point as the (quadratic) rescan-until-stable
        # formulation it replaced, on arbitrary candidate sets.
        checker = CTLKModelChecker(counter_system)

        def naive(hold):
            result = set(hold)
            changed = True
            while changed:
                changed = False
                for state in list(result):
                    if not (checker.ops.successors[state] & result):
                        result.discard(state)
                        changed = True
            return result

        rng = random.Random(20260730)
        states = list(counter_system.states)
        for density in (0.0, 0.25, 0.5, 0.75, 1.0):
            for _ in range(10):
                hold = {state for state in states if rng.random() <= density}
                assert checker.ops.eg(hold) == naive(hold)

    def test_eg_chain_without_loops_is_empty(self):
        # On a pure chain only the (totalised, self-looping) last state can
        # satisfy EG true-restricted-to-the-chain-prefix.
        from repro.modeling import StateSpace, ite, ranged, var
        from repro.systems import JointProtocol, constant_protocol, represent, variable_context

        counter = ranged("x", 0, 5)
        space = StateSpace([counter])
        context = variable_context(
            "chain",
            space,
            observables={"a": ["x"]},
            actions={"a": {"inc": {"x": ite(var(counter) < 5, var(counter) + 1, var(counter))}}},
            initial=(var(counter) == 0),
        )
        system = represent(context, JointProtocol({"a": constant_protocol("a", {"inc"})}))
        checker = CTLKModelChecker(system)
        prefix = checker.extension(parse("!(x=5)"))
        assert checker.ops.eg(set(prefix)) == set()
        assert checker.extension(EG(parse("x=5"))) == {
            state for state in system.states if state["x"] == 5
        }


class TestBackendPinning:
    def test_checker_pins_backend_at_construction(self, bt_system):
        from repro.engine import get_default_backend, use_backend

        default_name = get_default_backend().name
        pinned = "frozenset" if default_name != "frozenset" else "bitset"
        with use_backend(pinned):
            checker = CTLKModelChecker(bt_system)
            inside = checker.extension(bit_transmission.receiver_knows_bit())
        # The ambient default is restored, but the checker keeps answering
        # through the backend it was built under — including for formulas
        # first evaluated *after* the context exited.
        assert get_default_backend().name == default_name
        assert checker.backend.name == pinned
        reference = CTLKModelChecker(bt_system, backend=default_name)
        assert checker.extension(bit_transmission.receiver_knows_bit()) == inside
        for name, (formula, expected) in bit_transmission.property_formulas().items():
            assert checker.valid(formula) == expected, name
            assert reference.valid(formula) == expected, name

    def test_checker_accepts_backend_parameter(self, bt_system):
        checker = CTLKModelChecker(bt_system, backend="frozenset")
        assert checker.backend.name == "frozenset"
        assert checker.valid(AG(parse("sbit | !sbit")))

    def test_top_level_epistemic_query_is_batched_once(self, bt_system):
        # Regression: the checker used to prefetch a top-level epistemic
        # formula through the batched path and then recompute it through the
        # scalar path, paying the modal image twice.
        from repro.engine import FrozensetBackend
        from repro.logic.formula import Knows, Prop

        class CountingBackend(FrozensetBackend):
            name = "counting"

            def __init__(self):
                self.many_calls = 0
                self.scalar_calls = 0

            def knows(self, structure, agent, inner):
                self.scalar_calls += 1
                return super().knows(structure, agent, inner)

            def knows_many(self, structure, agent, inners):
                self.many_calls += 1
                return [
                    FrozensetBackend.knows(self, structure, agent, inner)
                    for inner in inners
                ]

        backend = CountingBackend()
        checker = CTLKModelChecker(bt_system, backend=backend)
        extension = checker.extension(Knows("R", Prop("sbit")))
        assert extension == CTLKModelChecker(bt_system).extension(
            Knows("R", Prop("sbit"))
        )
        assert backend.many_calls == 1
        assert backend.scalar_calls == 0

    def test_generated_substructure_accepts_backend_parameter(self):
        from repro.engine import use_backend
        from repro.kripke import EpistemicStructure, generated_substructure

        structure = EpistemicStructure(
            ["u", "v", "w"],
            {"a": {"u": {"v"}, "v": {"v"}, "w": {"w"}}},
            {"u": set(), "v": {"p"}, "w": set()},
        )
        explicit = generated_substructure(structure, {"u"}, backend="frozenset")
        with use_backend("frozenset"):
            ambient = generated_substructure(structure, {"u"})
        assert set(explicit.worlds) == set(ambient.worlds) == {"u", "v"}


class TestAnalysis:
    def test_everyone_knows_level_builder(self):
        formula = everyone_knows_level(Prop("p"), ("a", "b"), 2)
        assert str(formula) == "E[a,b] E[a,b] p"
        with pytest.raises(ModelError):
            everyone_knows_level(Prop("p"), ("a",), -1)

    def test_knowledge_level_in_bit_transmission(self, bt_system):
        # In the final state the receiver knows the bit and the sender knows
        # that, but the receiver does not know that the sender knows: the
        # group knowledge level of "receiver knows the bit" stops at 1.
        final = next(
            state
            for state in bt_system.states
            if bt_system.context.labelling(state) >= {"sbit", "rbit", "snt", "ack"}
        )
        fact = bit_transmission.receiver_knows_bit()
        level = knowledge_level_reached(bt_system, final, fact, ("S", "R"))
        assert level == 1
        assert not is_common_knowledge(bt_system, final, fact, ("S", "R"))

    def test_statistics_keys(self, bt_system):
        stats = system_statistics(bt_system)
        assert stats["states"] == 6
        assert stats["synchronous"] is False
        assert set(stats["agents"]) == {"S", "R"}
        assert stats["agents"]["R"]["local_states"] == 3

    def test_knowledge_census(self, bt_system):
        census = knowledge_census(bt_system, propositions=["sbit"], agents=["R"])
        entry = census["R"]["sbit"]
        assert entry["knows_true"] + entry["knows_false"] + entry["uncertain"] == len(
            bt_system.states
        )
        # The receiver knows the bit exactly in the four states after a
        # successful transmission; on this reflexive (S5) system nothing is
        # known vacuously.
        assert entry["knows_true"] + entry["knows_false"] == 4
        assert entry["knows_both"] == 0

    def test_knowledge_census_accepts_one_shot_iterables(self, bt_system):
        # Regression: the batched warm-up pass used to exhaust a one-shot
        # `agents` iterable before the counting loop ran, returning {}.
        census = knowledge_census(
            bt_system, propositions=iter(["sbit"]), agents=iter(["R"])
        )
        reference = knowledge_census(bt_system, propositions=["sbit"], agents=["R"])
        assert census == reference
        assert census["R"]["sbit"]["knows_true"] + census["R"]["sbit"]["knows_false"] == 4

    def test_knowledge_census_partitions_on_serial_free_structure(self):
        # Regression: EpistemicStructure is relation-agnostic, and at a state
        # with no R_a-successors both K_a p and K_a !p hold vacuously.  Such
        # states used to be counted in *both* knows buckets, driving the
        # remainder-based `uncertain` negative; they now land in a separate
        # `knows_both` bucket and the four buckets partition the states.
        from repro.engine import evaluator_for
        from repro.kripke import EpistemicStructure

        structure = EpistemicStructure(
            ["w0", "w1", "w2"],
            {"a": {"w0": set(), "w1": {"w1", "w2"}, "w2": {"w1", "w2"}}},
            {"w0": {"p"}, "w1": {"p"}, "w2": set()},
        )

        class ShimSystem:
            def __init__(self, structure):
                self.structure = structure
                self.states = structure.worlds
                self.agents = structure.agents
                self.evaluator = evaluator_for(structure)

            def extension(self, formula):
                return self.evaluator.extension(formula)

        census = knowledge_census(ShimSystem(structure))
        entry = census["a"]["p"]
        assert all(count >= 0 for count in entry.values()), entry
        assert sum(entry.values()) == len(structure.worlds)
        assert entry == {
            "knows_true": 0,
            "knows_false": 0,
            "knows_both": 1,  # the successor-less w0
            "uncertain": 2,  # w1 and w2 cannot tell each other apart
        }

        # The extreme case that used to report uncertain == -1: a single
        # successor-less world satisfies every knowledge formula vacuously.
        blind_dead = EpistemicStructure(["w"], {"a": {"w": set()}}, {"w": {"p"}})
        entry = knowledge_census(ShimSystem(blind_dead))["a"]["p"]
        assert entry == {
            "knows_true": 0,
            "knows_false": 0,
            "knows_both": 1,
            "uncertain": 0,
        }
