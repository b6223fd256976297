"""Symbolic CTLK model checking and dynamic variable reordering.

Three battery groups:

* the symbolic CTLK checker agrees with the explicit one — extensions,
  validity and reachability of a temporal-epistemic formula battery
  (including ``AG(K_a φ)`` and ``AF C_G φ``) on bit transmission, muddy
  children at several sizes and the dining cryptographers;
* the symbolic functional iteration agrees with the explicit one —
  convergence, cycle lengths and generated systems on every bundled
  program family;
* the ROBDD kernel's Rudell sifting — function invariance, keep-group
  adjacency, garbage collection of unrooted nodes, the growth trigger on a
  deliberately bad declared order, and the rename/order regression.
"""

import random

import pytest

from repro.interpretation import construct_by_rounds, iterate_interpretation
from repro.interpretation.explicit import _protocol_signature
from repro.logic.formula import (
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
    TrueFormula,
    disj,
)
from repro.protocols import bit_transmission as bt
from repro.protocols import dining_cryptographers as dc
from repro.protocols import muddy_children as mc
from repro.protocols import variable_setting as vs
from repro.resilience.faults import FaultInjector, check_kernel_invariants
from repro.symbolic import BDD
from repro.symbolic.model import SymbolicContextModel
from repro.temporal import AF, AG, AU, AX, EF, EG, EU, EX
from repro.temporal.ctlk import CTLKModelChecker, check_reachable, check_valid
from repro.temporal.symbolic import SymbolicCTLKOps
from repro.util.errors import (
    EngineError,
    InterpretationError,
    ModelError,
    VariableOrderError,
)


def _battery(base, agent, group):
    """Wrap base (epistemic) formulas in the full temporal repertoire."""
    first, last = base[0], base[-1]
    formulas = []
    for b in base:
        formulas += [EX(b), EF(b), EG(b), AX(b), AF(b), AG(b)]
    formulas += [
        EU(first, last),
        AU(TrueFormula(), first),
        Iff(first, last),
        AG(Knows(agent, first)),
        AF(CommonKnows(group, first)),
        AG(Implies(first, EF(last))),
        # Epistemic over temporal: the shared batched prefetch evaluates
        # temporal operands on both representations.
        Knows(agent, EF(last)),
        Possible(agent, EG(first)),
        EveryoneKnows(group, AX(first)),
        DistributedKnows(group, EU(first, last)),
    ]
    return formulas


def ctlk_cases():
    cases = []
    bt_base = [
        Prop(bt.SBIT),
        bt.receiver_knows_bit(),
        bt.sender_knows_receiver_knows(),
    ]
    cases.append(
        (
            "bit-transmission",
            bt.context(),
            bt.symbolic_model(),
            bt.program(),
            _battery(bt_base, bt.SENDER, (bt.SENDER, bt.RECEIVER)),
        )
    )
    for n in (2, 3, 4, 6):
        group = tuple(mc.child(i) for i in range(n))
        base = [
            mc.muddy_prop(0),
            mc.said_prop(n - 1),
            mc.knows_own_status(0),
        ]
        cases.append(
            (
                f"muddy-children-{n}",
                mc.context(n),
                mc.symbolic_model(n),
                mc.program(n),
                _battery(base, mc.child(0), group),
            )
        )
    group = tuple(dc.crypto(i) for i in range(3))
    dc_base = [
        Prop("done"),
        dc.someone_paid_formula(3),
        Knows(dc.crypto(1), dc.paid_prop(0)),
    ]
    cases.append(
        (
            "dining-cryptographers-3",
            dc.context(3),
            dc.symbolic_model(3),
            dc.program(3),
            _battery(dc_base, dc.crypto(0), group),
        )
    )
    return cases


CTLK_CASES = ctlk_cases()
CTLK_IDS = [case[0] for case in CTLK_CASES]


@pytest.mark.parametrize("name,context,model,program,formulas", CTLK_CASES, ids=CTLK_IDS)
class TestSymbolicCtlkAgreesWithExplicit:
    def test_extensions_validity_and_reachability_agree(
        self, name, context, model, program, formulas
    ):
        explicit = construct_by_rounds(program, context).system
        symbolic = construct_by_rounds(program, model).system
        explicit_checker = CTLKModelChecker(explicit)
        symbolic_checker = CTLKModelChecker(symbolic)
        assert type(symbolic_checker) is CTLKModelChecker
        assert isinstance(symbolic_checker.ops, SymbolicCTLKOps)
        for formula in formulas:
            assert symbolic_checker.extension(formula) == explicit_checker.extension(
                formula
            ), formula
            assert symbolic_checker.valid(formula) == explicit_checker.valid(formula)
            assert symbolic_checker.reachable(formula) == explicit_checker.reachable(
                formula
            )

    def test_holds_and_witnesses_agree(self, name, context, model, program, formulas):
        explicit = construct_by_rounds(program, context).system
        symbolic = construct_by_rounds(program, model).system
        explicit_checker = CTLKModelChecker(explicit)
        symbolic_checker = CTLKModelChecker(symbolic)
        for formula in formulas[:6]:
            witness = symbolic_checker.witness_state(formula)
            if witness is None:
                assert not symbolic_checker.reachable(formula)
                continue
            assert symbolic_checker.holds(witness, formula)
            assert explicit_checker.holds(witness, formula)


class TestSymbolicCheckerBoundary:
    @pytest.fixture(scope="class")
    def muddy3(self):
        model = mc.symbolic_model(3)
        return construct_by_rounds(mc.program(3), model).system

    def test_dispatch_is_transparent(self, muddy3):
        checker = CTLKModelChecker(muddy3)
        assert type(checker) is CTLKModelChecker
        assert isinstance(checker.ops, SymbolicCTLKOps)

    def test_non_bdd_backends_are_rejected(self, muddy3):
        with pytest.raises(EngineError):
            CTLKModelChecker(muddy3, backend="bitset")

    def test_holds_rejects_unreachable_states(self, muddy3):
        # round = 0 with an already-latched "heard" value never arises.
        unreachable = mc.initial_state_for_pattern(muddy3.model, [True, True, True])
        unreachable = unreachable.update({"heard": 1})
        checker = CTLKModelChecker(muddy3)
        with pytest.raises(ModelError):
            checker.holds(unreachable, mc.muddy_prop(0))

    def test_module_level_check_functions_dispatch(self, muddy3):
        said_any = disj([mc.said_prop(i) for i in range(3)])
        assert check_valid(muddy3, AF(said_any))
        assert check_reachable(muddy3, And((mc.muddy_prop(0), mc.said_prop(0))))

    def test_cache_counters(self, muddy3):
        checker = CTLKModelChecker(muddy3)
        formula = AG(mc.knows_own_status(0))
        checker.extension_node(formula)
        info = checker.cache_info()
        assert info["memo.formulas"] >= 1
        misses = info["cache.misses"]
        checker.extension_node(formula)
        after = checker.cache_info()
        assert after["cache.hits"] == info["cache.hits"] + 1
        assert after["cache.misses"] == misses

    def test_scales_past_explicit_enumeration(self):
        n = 14
        model = mc.symbolic_model(n)
        system = construct_by_rounds(mc.program(n), model).system
        assert system.state_count() > 100_000
        checker = CTLKModelChecker(system)
        said_all = disj([mc.said_prop(i) for i in range(n)])
        assert checker.valid(AF(said_all))
        assert checker.valid(AG(Implies(mc.said_prop(0), mc.knows_own_status(0))))


def _norm(states):
    return frozenset(tuple(sorted(s.as_dict().items())) for s in states)


def iterate_cases():
    cases = [("bit-transmission", bt.context(), bt.symbolic_model, bt.program())]
    vs_ctx = vs.context()
    for name, (factory, _) in sorted(vs.PROGRAM_FAMILY.items()):
        cases.append((f"variable-setting-{name}", vs_ctx, vs.symbolic_model, factory()))
    cases.append(("muddy-children-3", mc.context(3), lambda: mc.symbolic_model(3), mc.program(3)))
    return cases


ITERATE_CASES = iterate_cases()
ITERATE_IDS = [case[0] for case in ITERATE_CASES]


class TestSymbolicIterationAgreesWithExplicit:
    @pytest.mark.parametrize("name,context,model_factory,program", ITERATE_CASES, ids=ITERATE_IDS)
    @pytest.mark.parametrize("seed", ["liberal", "restrictive"])
    def test_outcome_agrees(self, name, context, model_factory, program, seed):
        try:
            explicit = iterate_interpretation(program, context, seed=seed)
            explicit_outcome = None
        except InterpretationError as error:
            explicit, explicit_outcome = None, type(error).__name__
        model = model_factory()
        try:
            symbolic = iterate_interpretation(program, model, seed=seed)
            symbolic_outcome = None
        except InterpretationError as error:
            symbolic, symbolic_outcome = None, type(error).__name__
        assert symbolic_outcome == explicit_outcome
        if explicit is None:
            return
        assert symbolic.converged == explicit.converged
        assert symbolic.cycle_length == explicit.cycle_length
        if explicit.converged:
            # On convergence the fixed point is unique along the trajectory:
            # systems and protocol behaviour agree exactly.
            assert symbolic.iterations == explicit.iterations
            explicit_states = set(explicit.system.states)
            assert _norm(symbolic.system.iter_states()) == _norm(explicit_states)
            for agent in context.agents:
                for local in context.local_states_of(agent, explicit_states):
                    assert set(map(str, symbolic.protocol.actions(agent, local))) == set(
                        map(str, explicit.protocol.actions(agent, local))
                    )

    def test_holds_initially_and_everywhere_agree(self):
        explicit = iterate_interpretation(bt.program(), bt.context())
        symbolic = iterate_interpretation(bt.program(), bt.symbolic_model())
        for formula in (
            Not(Knows(bt.RECEIVER, Prop(bt.SBIT))),
            Knows(bt.SENDER, Prop(bt.SBIT)),
            bt.receiver_knows_bit(),
        ):
            assert symbolic.system.holds_initially(formula) == explicit.system.holds_initially(
                formula
            )
            assert symbolic.system.holds_everywhere(formula) == explicit.system.holds_everywhere(
                formula
            )

    def test_materialised_protocol_is_a_fixed_point_seed(self):
        model = mc.symbolic_model(3)
        program = mc.program(3)
        first = iterate_interpretation(program, model)
        assert first.converged
        again = iterate_interpretation(program, model, seed=first.protocol)
        assert again.converged and again.iterations == 1
        constructed = construct_by_rounds(program, model)
        reseeded = iterate_interpretation(program, model, seed=constructed.protocol)
        assert reseeded.converged and reseeded.iterations == 1

    def test_protocol_signature_fast_path_never_enumerates(self):
        model = mc.symbolic_model(3)
        result = iterate_interpretation(mc.program(3), model)
        assert result.protocol.selection_nodes
        # states=None would crash any enumerating path — the class-BDD ids
        # answer without touching states at all.
        signature = _protocol_signature(result.protocol, model, None)
        assert {agent for agent, _ in signature} == set(model.agents)
        assert all(entry[0] == "bdd-classes" for _, entry in signature)
        again = iterate_interpretation(mc.program(3), model)
        assert _protocol_signature(again.protocol, model, None) == signature

    def test_unknown_seed_is_rejected(self):
        with pytest.raises(InterpretationError):
            iterate_interpretation(mc.program(2), mc.symbolic_model(2), seed="bogus")


class TestDynamicReordering:
    def _random_function(self, manager, rng, depth=0):
        if depth > 4 or rng.random() < 0.2:
            var = rng.randrange(manager.num_vars)
            return manager.var(var) if rng.random() < 0.5 else manager.nvar(var)
        op = rng.choice([manager.and_, manager.or_, manager.xor])
        return op(
            self._random_function(manager, rng, depth + 1),
            self._random_function(manager, rng, depth + 1),
        )

    def _points(self, manager, rng, count=64):
        return [
            {var: rng.random() < 0.5 for var in range(manager.num_vars)}
            for _ in range(count)
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_sifting_preserves_functions_and_counts(self, seed):
        rng = random.Random(seed)
        manager = BDD(8)
        functions = [self._random_function(manager, rng) for _ in range(5)]
        points = self._points(manager, rng)
        expected = [
            ([manager.evaluate(f, p) for p in points], manager.sat_count(f))
            for f in functions
        ]
        before, after = manager.reorder(functions)
        assert after <= before
        for f, (values, count) in zip(functions, expected):
            assert [manager.evaluate(f, p) for p in points] == values
            assert manager.sat_count(f) == count

    def test_sifting_shrinks_an_adversarial_order(self):
        # Declared order: a-block above b-block; the conjunction of the
        # iffs a_i <-> b_i is exponential there and linear interleaved.
        k = 6
        manager = BDD(2 * k)
        f = manager.iff(manager.var(0), manager.var(k))
        for i in range(1, k):
            f = manager.and_(f, manager.iff(manager.var(i), manager.var(k + i)))
        exponential = manager.size(f)
        manager.reorder([f])
        assert manager.size(f) <= 3 * k + 2 < exponential
        # The optimum interleaves each a_i with its b_i.
        order = manager.variable_order()
        positions = {var: level for level, var in enumerate(order)}
        for i in range(k):
            assert abs(positions[i] - positions[k + i]) == 1

    def test_growth_trigger_fires_and_rearms(self):
        k = 6
        manager = BDD(2 * k)
        manager.enable_reordering(threshold=24)
        f = manager.iff(manager.var(0), manager.var(k))
        for i in range(1, k):
            f = manager.and_(f, manager.iff(manager.var(i), manager.var(k + i)))
        assert manager.reorder_pending
        assert manager.maybe_reorder([f])
        stats = manager.cache_info()["reorder_stats"]
        assert stats["reorders"] == 1
        assert stats["swaps"] > 0
        assert not manager.reorder_pending
        assert stats["trigger"] >= 2 * 2 * k

    def test_keep_groups_are_never_split(self):
        k = 4
        manager = BDD(2 * k)
        groups = [(2 * p, 2 * p + 1) for p in range(k)]
        rng = random.Random(7)
        functions = [self._random_function(manager, rng) for _ in range(4)]
        manager.enable_reordering(groups=groups, threshold=1)
        manager.reorder(functions)
        for low, high in groups:
            assert manager.level_of_var(high) == manager.level_of_var(low) + 1
        assert all(len(g) == 2 for g in manager.variable_groups())

    def test_reorder_collects_unrooted_nodes(self):
        manager = BDD(6)
        keep = manager.and_(manager.var(0), manager.var(1))
        drop = manager.and_(manager.var(4), manager.xor(manager.var(2), manager.var(3)))
        manager.reorder([keep])
        live = set(manager._unique.values())
        assert keep in live
        assert drop not in live
        # With roots=None nothing pre-existing dies.
        survivor = manager.or_(manager.var(2), manager.var(5))
        manager.reorder()
        assert survivor in set(manager._unique.values())

    def test_rename_rejects_order_violations(self):
        manager = BDD(4)
        f = manager.and_(manager.var(0), manager.var(1))
        with pytest.raises(VariableOrderError) as excinfo:
            manager.rename(f, ((0, 1), (1, 0)))
        assert isinstance(excinfo.value, EngineError)
        assert isinstance(excinfo.value, ValueError)

    def test_rename_respects_reordered_levels(self):
        # After sifting, order legality is judged on *levels*, not on
        # variable indices: a map legal under the declared order can become
        # illegal (and vice versa) once the order changes.
        k = 4
        manager = BDD(2 * k + 2)
        f = manager.iff(manager.var(0), manager.var(k))
        for i in range(1, k):
            f = manager.and_(f, manager.iff(manager.var(i), manager.var(k + i)))
        manager.reorder([f])
        order = manager.variable_order()
        shifted = manager.rename(
            manager.and_(manager.var(order[0]), manager.var(order[1])),
            ((order[0], order[2]), (order[1], order[3])),
        )
        assert manager.support(shifted) == {order[2], order[3]}
        with pytest.raises(VariableOrderError):
            manager.rename(
                manager.and_(manager.var(order[0]), manager.var(order[1])),
                ((order[0], order[3]), (order[1], order[2])),
            )


class TestModelLevelReordering:
    def test_opt_in_through_constructor_and_environment(self, monkeypatch):
        parts = mc.context_parts(2)
        monkeypatch.delenv("REPRO_BDD_REORDER", raising=False)
        assert not SymbolicContextModel(**parts).encoding.bdd.reorder_enabled
        assert SymbolicContextModel(**parts, reorder=True).encoding.bdd.reorder_enabled
        monkeypatch.setenv("REPRO_BDD_REORDER", "sift")
        assert SymbolicContextModel(**parts).encoding.bdd.reorder_enabled
        assert not SymbolicContextModel(**parts, reorder=False).encoding.bdd.reorder_enabled

    def test_construction_under_sifting_is_unchanged(self):
        n = 5
        plain = construct_by_rounds(mc.program(n), mc.symbolic_model(n))
        parts = mc.context_parts(n)
        model = SymbolicContextModel(
            **parts,
            variable_order=None,  # the declared (blocked) order — adversarial
            reorder=True,
        )
        model.encoding.bdd.enable_reordering(threshold=256)
        sifted = construct_by_rounds(mc.program(n), model)
        assert sifted.verified and plain.verified
        assert _norm(sifted.system.iter_states()) == _norm(plain.system.iter_states())
        stats = model.encoding.bdd.cache_info()["reorder_stats"]
        assert stats["reorders"] >= 1
        # Keep-groups (current/primed pairs) survive every sift.
        groups = model.encoding.bdd.variable_groups()
        assert groups is not None and all(len(g) == 2 for g in groups)

    def test_checking_under_sifting_is_unchanged(self):
        n = 6
        program = mc.program(n)
        plain_system = construct_by_rounds(program, mc.symbolic_model(n)).system
        model = SymbolicContextModel(**mc.context_parts(n), reorder=True)
        model.encoding.bdd.enable_reordering(threshold=512)
        system = construct_by_rounds(program, model).system
        said_all = disj([mc.said_prop(i) for i in range(n)])
        plain = CTLKModelChecker(plain_system)
        sifted = CTLKModelChecker(system)
        for formula in (
            AF(said_all),
            AG(Implies(mc.said_prop(0), mc.knows_own_status(0))),
            EF(And((mc.muddy_prop(0), mc.said_prop(0)))),
        ):
            assert sifted.valid(formula) == plain.valid(formula)
            assert sifted.extension(formula) == plain.extension(formula)

    def test_sift_at_every_fixpoint_iteration_keeps_live_values(self):
        # A reorder requested at every CTLK safe point collects whatever
        # the checker holds without rooting it; compound formulas whose
        # fresh intermediates (a conjunction, an implication's antecedent,
        # AU's first loop) stay alive across a fixed-point loop must still
        # agree with an unsifted twin and leave the kernel consistent.
        n = 3
        program = mc.program(n)
        plain = CTLKModelChecker(construct_by_rounds(program, mc.symbolic_model(n)).system)
        said = [mc.said_prop(i) for i in range(n)]
        muddy = [mc.muddy_prop(i) for i in range(n)]
        plan = [("fixpoint.iter", k, "reorder_request") for k in range(1, 400)]
        for formula in (
            AU(Or((muddy[0], Not(said[1]))), And((said[0], muddy[2]))),
            And((muddy[0], Not(said[1]), EF(And((said[2], muddy[1]))))),
            Implies(Or((muddy[1], said[2])), AF(And((said[1], said[2])))),
        ):
            model = SymbolicContextModel(**mc.context_parts(n), reorder=True)
            sifted = CTLKModelChecker(construct_by_rounds(program, model).system)
            with FaultInjector(plan) as injector:
                extension = sifted.extension(formula)
            assert injector.fired
            assert extension == plain.extension(formula), formula
            check_kernel_invariants(model.encoding.bdd)
