"""Symbolic-vs-explicit synthesis agreement.

The search/check layer dispatches on model kind
(:mod:`repro.interpretation.synthesis`): handed a
:class:`repro.symbolic.model.SymbolicContextModel`, the fixed-point test
compares protocols by class-BDD node-id signatures and the exhaustive
search enumerates candidate reachable sets as BDDs.  Both searches draw
their candidates from the same liberal-reachable universe.  These tests pin the two carriers to each
other — classification, implementation sets, check verdicts and even the
reported differences must agree on the paper's examples, under every
registered world-set backend — plus the deterministic ordering of
multi-implementation results and the dispatch plumbing itself.
"""

import pytest

from repro.engine import available_backends, use_backend
from repro.interpretation import (
    ImplementationSearchResult,
    SymbolicImplementationReport,
    SymbolicSystem,
    check_implementation,
    classify_program,
    construct_by_rounds,
    derive_protocol,
    enumerate_implementations,
    implements,
    liberal_protocol,
    restrictive_protocol,
    search,
)
from repro.protocols import bit_transmission as bt
from repro.protocols import muddy_children as mc
from repro.protocols import variable_setting as vs
from repro.util.errors import InterpretationError, ProgramError

BACKENDS = available_backends()
all_backends = pytest.mark.parametrize("backend_name", BACKENDS)


def _x_values(states):
    return frozenset(state.as_dict()["x"] for state in states)


def _local_behaviours(protocol, system):
    """The full behaviour table of a protocol on a system's local states,
    as a comparable dict."""
    table = {}
    for agent in system.agents:
        for local_state in system.local_states(agent):
            table[(agent, local_state)] = frozenset(
                map(str, protocol.actions(agent, local_state))
            )
    return table


class TestSearchAgreement:
    """Classification and implementation sets must match between the
    enumerating and the symbolic search on the paper's examples."""

    @all_backends
    @pytest.mark.parametrize("name", sorted(vs.PROGRAM_FAMILY))
    def test_variable_setting_family(self, backend_name, name):
        factory, expected = vs.PROGRAM_FAMILY[name]
        with use_backend(backend_name):
            explicit = enumerate_implementations(factory(), vs.context())
            symbolic = enumerate_implementations(factory(), vs.symbolic_model())
        assert explicit.classification == expected
        assert symbolic.classification == expected
        assert explicit.candidates_checked == symbolic.candidates_checked
        # Same reachable sets in the same (deterministically tie-broken)
        # order — lists, not sets: the ordering is part of the contract.
        assert [
            _x_values(states) for states in explicit.reachable_sets()
        ] == [_x_values(states) for states in symbolic.reachable_sets()]

    @all_backends
    def test_bit_transmission_unique_implementation(self, backend_name):
        with use_backend(backend_name):
            explicit = enumerate_implementations(bt.program(), bt.context())
            symbolic = enumerate_implementations(bt.program(), bt.symbolic_model())
        assert explicit.classification == symbolic.classification == "unique"
        exp_protocol, exp_system = explicit.unique()
        sym_protocol, sym_system = symbolic.unique()
        assert frozenset(exp_system.states) == frozenset(sym_system.iter_states())
        # Both representations search the same liberal-reachable universe.
        assert explicit.candidates_checked == symbolic.candidates_checked
        # The unique implementations behave identically at every arising
        # local state.
        assert _local_behaviours(exp_protocol, exp_system) == _local_behaviours(
            sym_protocol, sym_system
        )

    def test_classify_program_dispatches(self):
        factory, expected = vs.PROGRAM_FAMILY["cyclic"]
        assert classify_program(factory(), vs.symbolic_model()) == expected
        assert classify_program(factory(), vs.context()) == expected

    def test_search_is_enumerate_implementations(self):
        result = search(bt.program(), bt.symbolic_model())
        assert isinstance(result, ImplementationSearchResult)
        assert result.classification == "unique"

    @staticmethod
    def _assert_override_agrees(make_context):
        # Passing the full global state space as the candidate universe must
        # not change the outcome (the liberal-reachable default is a subset
        # of it containing every implementation's reachable set).
        spec_states = list(vs.context().spec.state_space.states())
        default = enumerate_implementations(vs.PROGRAM_FAMILY["cyclic"][0](), make_context())
        overridden = enumerate_implementations(
            vs.PROGRAM_FAMILY["cyclic"][0](), make_context(), all_states=spec_states
        )
        assert default.classification == overridden.classification == "multiple"
        assert [
            _x_values(states) for states in default.reachable_sets()
        ] == [_x_values(states) for states in overridden.reachable_sets()]

    def test_symbolic_universe_override(self):
        self._assert_override_agrees(vs.symbolic_model)

    def test_explicit_universe_override(self):
        self._assert_override_agrees(vs.context)

    def test_repeated_override_states_count_once(self):
        spec_states = list(vs.context().spec.state_space.states())
        explicit, symbolic = (
            enumerate_implementations(
                vs.PROGRAM_FAMILY["cyclic"][0](), context, all_states=spec_states * 2
            )
            for context in (vs.context(), vs.symbolic_model())
        )
        assert explicit.candidates_checked == symbolic.candidates_checked == 8
        assert [_x_values(states) for states in explicit.reachable_sets()] == [
            _x_values(states) for states in symbolic.reachable_sets()
        ]

    def test_symbolic_search_size_limit(self):
        with pytest.raises(InterpretationError, match="search space too large"):
            enumerate_implementations(
                bt.program(), bt.symbolic_model(), max_free_states=3
            )


class TestCheckAgreement:
    """Check verdicts (and reported differences) must match between the
    enumerating and the symbolic fixed-point test."""

    @all_backends
    def test_bit_transmission_verdicts_and_differences(self, backend_name):
        with use_backend(backend_name):
            prog = bt.program()
            context = bt.context()
            model = bt.symbolic_model()
            implementation = construct_by_rounds(prog, context).protocol
            for protocol in (
                implementation,
                liberal_protocol(prog, context),
                restrictive_protocol(prog, context),
            ):
                explicit = check_implementation(protocol, prog, context)
                symbolic = check_implementation(protocol, prog, model)
                assert explicit.is_implementation == symbolic.is_implementation
                assert sorted(explicit.differences) == sorted(symbolic.differences)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_muddy_children_cross_representation(self, n):
        prog_explicit = mc.program(n)
        context = mc.context(n)
        model = mc.symbolic_model(n)
        prog_symbolic = mc.program(n).check_against_context(model)

        explicit_result = construct_by_rounds(prog_explicit, context)
        symbolic_result = construct_by_rounds(prog_symbolic, model)
        assert explicit_result.verified and symbolic_result.verified

        # Explicit protocol checked over the symbolic model (the lazy
        # per-class evaluation path) and the symbolic protocol checked over
        # the explicit context: both directions must confirm the
        # implementation, and both systems must coincide.
        cross_symbolic = check_implementation(
            explicit_result.protocol, prog_symbolic, model
        )
        cross_explicit = check_implementation(
            symbolic_result.protocol, prog_explicit, context
        )
        assert cross_symbolic.is_implementation
        assert cross_explicit.is_implementation
        assert cross_symbolic.differences == []
        assert cross_symbolic.system.state_count() == len(explicit_result.system.states)
        assert frozenset(cross_symbolic.system.iter_states()) == frozenset(
            explicit_result.system.states
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_muddy_children_non_implementation_agrees(self, n):
        prog = mc.program(n)
        context = mc.context(n)
        model = mc.symbolic_model(n)
        broken = restrictive_protocol(prog, context)
        explicit = check_implementation(broken, prog, context)
        symbolic = check_implementation(broken, prog, model)
        assert explicit.is_implementation == symbolic.is_implementation is False
        assert sorted(explicit.differences) == sorted(symbolic.differences)

    def test_implements_dispatches(self):
        prog = bt.program()
        model = bt.symbolic_model()
        protocol = construct_by_rounds(prog, model).protocol
        assert implements(protocol, prog, model)
        assert not implements(liberal_protocol(prog, bt.context()), prog, model)


class TestDispatchPlumbing:
    def test_max_states_routed_transparently(self):
        # max_states bounds explicit materialisation only; the symbolic path
        # must accept (and ignore) it rather than failing opaquely.
        prog = bt.program()
        model = bt.symbolic_model()
        protocol = construct_by_rounds(prog, model).protocol
        report = check_implementation(protocol, prog, model, max_states=1)
        assert report.is_implementation
        result = enumerate_implementations(prog, bt.symbolic_model(), max_states=1)
        assert result.classification == "unique"

    def test_symbolic_report_type_and_describe(self):
        prog = bt.program()
        model = bt.symbolic_model()
        report = check_implementation(
            liberal_protocol(prog, bt.context()), prog, model
        )
        assert isinstance(report, SymbolicImplementationReport)
        assert isinstance(report.system, SymbolicSystem)
        assert not report
        assert "not an implementation" in report.describe()
        assert len(report.system) == report.system.state_count()

    def test_derive_protocol_dispatches_on_symbolic_views(self):
        prog = bt.program()
        context = bt.context()
        model = bt.symbolic_model()
        explicit_system = construct_by_rounds(prog, context).system
        symbolic_system = construct_by_rounds(prog, model).system
        explicit_derived = derive_protocol(prog, explicit_system)
        symbolic_derived = derive_protocol(prog, symbolic_system)
        assert symbolic_derived.selection_nodes  # the class-BDD fast path
        assert _local_behaviours(explicit_derived, explicit_system) == {
            key: frozenset(map(str, symbolic_derived.actions(*key)))
            for key in _local_behaviours(explicit_derived, explicit_system)
        }

    def test_derive_protocol_symbolic_no_fallback_raises(self):
        prog = bt.program()
        model = bt.symbolic_model()
        system = construct_by_rounds(prog, model).system
        strict = derive_protocol(prog, system, fallback_on_unknown=False)
        unreachable_local = (("rbit", True), ("snt", False))
        with pytest.raises(ProgramError):
            strict.actions("R", unreachable_local)
        relaxed = derive_protocol(prog, system, fallback_on_unknown=True)
        assert relaxed.actions("R", unreachable_local)


class TestResultOrdering:
    """`ImplementationSearchResult.implementations` orders by reachable-set
    size with a deterministic tie-break — stable across input order,
    backends and runs."""

    def _cyclic_result(self):
        factory, _ = vs.PROGRAM_FAMILY["cyclic"]
        return enumerate_implementations(factory(), vs.context())

    def test_tie_break_is_input_order_independent(self):
        result = self._cyclic_result()
        assert len(result) == 2  # two equal-size implementations: a real tie
        pairs = list(result.implementations)
        assert [len(s) for _, s in pairs] == [2, 2]
        reordered = ImplementationSearchResult(list(reversed(pairs)), 0)
        assert reordered.implementations == result.implementations

    def test_tie_break_orders_by_state_content(self):
        result = self._cyclic_result()
        # x=1 sorts before x=2, whatever order the search found them in.
        assert [_x_values(states) for states in result.reachable_sets()] == [
            frozenset({0, 1}),
            frozenset({0, 2}),
        ]

    @all_backends
    def test_order_stable_across_backends_and_carriers(self, backend_name):
        factory, _ = vs.PROGRAM_FAMILY["cyclic"]
        with use_backend(backend_name):
            explicit = enumerate_implementations(factory(), vs.context())
            symbolic = enumerate_implementations(factory(), vs.symbolic_model())
        expected = [frozenset({0, 1}), frozenset({0, 2})]
        assert [_x_values(states) for states in explicit.reachable_sets()] == expected
        assert [_x_values(states) for states in symbolic.reachable_sets()] == expected
