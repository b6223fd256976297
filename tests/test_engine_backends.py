"""Equivalence and behaviour of the world-set evaluation backends
(:mod:`repro.engine`).

Every test that checks backend behaviour is parametrised over
``available_backends()`` — the live registry — so a newly registered
backend is pulled into the equivalence harness automatically.  The
definitional oracle :mod:`repro.oracle`, which shares no code with the
engine, is the semantic reference every backend is compared against.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import oracle
from repro.engine import (
    BitsetBackend,
    Evaluator,
    available_backends,
    backend_by_name,
    evaluator_for,
    get_default_backend,
    register_backend,
    set_default_backend,
    uniform_value,
    unregister_backend,
    use_backend,
)
from repro.kripke import EpistemicStructure, generated_substructure
from repro.logic import extension, holds
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
from repro.util.errors import EngineError, ModelError

AGENTS = ("a", "b", "c")
PROPS = ("p", "q", "r")

# Snapshot at collection time: the registry is process-global state and some
# tests below mutate it (with cleanup), so the parametrisation lists are
# fixed here.
BACKENDS = available_backends()

all_backends = pytest.mark.parametrize("backend_name", BACKENDS)


def reference_extension(structure, formula):
    """The oracle's extension of ``formula`` over ``structure``."""
    return oracle.extension(
        formula, structure.worlds, structure.accessible, structure.labels
    )


def reference_reachable(structure, start, agents=None):
    """The oracle's closure of ``start`` under the agents' relations."""
    agents = structure.agents if agents is None else agents

    def successors(world):
        return {v for agent in agents for v in structure.accessible(agent, world)}

    return oracle.closure(start, successors)


def random_structure(rng, max_worlds=9):
    """A small random structure with arbitrary (not necessarily S5)
    relations, so the backends are exercised beyond the equivalence case."""
    n_worlds = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n_worlds)]
    agents = list(AGENTS[: rng.randint(1, len(AGENTS))])
    labelling = {
        world: {prop for prop in PROPS if rng.random() < 0.5} for world in worlds
    }
    accessibility = {
        agent: {
            world: {other for other in worlds if rng.random() < 0.35}
            for world in worlds
        }
        for agent in agents
    }
    return EpistemicStructure(worlds, accessibility, labelling, agents=agents)


def formula_suite(agents):
    """One formula per construct (plus nestings), over the given agents."""
    p, q, r = Prop("p"), Prop("q"), Prop("r")
    first = agents[0]
    group = tuple(agents)
    pair = tuple(agents[:2])
    return [
        TRUE,
        FALSE,
        p,
        Prop("unlabelled"),
        Not(p),
        And((p, q)),
        Or((p, q, r)),
        Implies(p, q),
        Iff(p, Not(q)),
        Knows(first, p),
        Knows(first, Implies(p, q)),
        Possible(first, And((p, Not(q)))),
        EveryoneKnows(pair, p),
        EveryoneKnows(group, Or((p, q))),
        CommonKnows(pair, Or((p, Not(p)))),
        CommonKnows(group, Or((p, q))),
        DistributedKnows(pair, p),
        DistributedKnows(group, Implies(p, q)),
        Knows(first, CommonKnows(pair, p)),
        Not(CommonKnows(group, And((p, q)))),
        Possible(first, DistributedKnows(pair, Not(r))),
        Iff(EveryoneKnows(pair, p), Knows(first, p)),
    ]


class TestBackendEquivalence:
    @all_backends
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_every_construct_agrees_on_random_structures(self, backend_name, seed):
        rng = random.Random(seed)
        structure = random_structure(rng)
        candidate = Evaluator(structure, backend_by_name(backend_name))
        for formula in formula_suite(structure.agents):
            expected = reference_extension(structure, formula)
            actual = candidate.extension(formula)
            assert actual == expected, (
                f"backend {backend_name!r} disagrees on {formula} "
                f"over {structure.describe()}"
            )
            for world in structure.worlds:
                assert candidate.holds(world, formula) == (world in expected)

    @all_backends
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_reachability_agrees(self, backend_name, seed):
        rng = random.Random(seed)
        structure = random_structure(rng)
        start = {w for w in structure.worlds if rng.random() < 0.4}
        if not start:
            start = {structure.worlds[0]}
        candidate = backend_by_name(backend_name)
        expected = reference_reachable(structure, start)
        actual = candidate.to_frozenset(
            structure, candidate.reachable(structure, start)
        )
        assert actual == expected
        with use_backend(backend_name):
            sub_candidate = generated_substructure(structure, start)
        assert set(sub_candidate.worlds) == expected

    @all_backends
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_reachability_with_agent_subsets(self, backend_name, seed):
        # Regression scope: only the all-agents default used to be exercised.
        rng = random.Random(seed)
        structure = random_structure(rng)
        start = {w for w in structure.worlds if rng.random() < 0.4}
        if not start:
            start = {structure.worlds[0]}
        candidate = backend_by_name(backend_name)
        subsets = [(), structure.agents[:1], structure.agents[1:], structure.agents]
        for agents in subsets:
            expected = reference_reachable(structure, start, agents=agents)
            actual = candidate.to_frozenset(
                structure, candidate.reachable(structure, start, agents=agents)
            )
            assert actual == expected, (
                f"backend {backend_name!r} disagrees on reachable with "
                f"agents={agents!r}"
            )

    @all_backends
    def test_reachable_with_empty_agent_tuple_is_the_start_set(
        self, backend_name, two_agent_structure
    ):
        # The union over no agents is the empty relation, so the closure of
        # any start set under it is the start set itself.
        backend = backend_by_name(backend_name)
        start = {two_agent_structure.worlds[0], two_agent_structure.worlds[2]}
        result = backend.to_frozenset(
            two_agent_structure,
            backend.reachable(two_agent_structure, start, agents=()),
        )
        assert result == frozenset(start)

    @all_backends
    def test_reachable_with_single_agent_follows_only_that_relation(
        self, backend_name, two_agent_structure
    ):
        # Agent ``a`` observes ``p``: from w00 it reaches exactly {w00, w01}.
        backend = backend_by_name(backend_name)
        result = backend.to_frozenset(
            two_agent_structure,
            backend.reachable(two_agent_structure, {"w00"}, agents=("a",)),
        )
        assert result == frozenset({"w00", "w01"})

    def test_public_extension_matches_all_backends(self, two_agent_structure):
        formula = Knows("a", Or((Prop("p"), Prop("q"))))
        reference = reference_extension(two_agent_structure, formula)
        for backend_name in BACKENDS:
            assert (
                extension(two_agent_structure, formula, backend=backend_name)
                == reference
            )


class TestBatchedEvaluation:
    """`Evaluator.extensions` and the backend ``*_many`` operators must agree
    with the scalar path on every backend — including the generic
    scalar-loop fallback used by bitset."""

    @all_backends
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_extensions_match_per_formula_extension(self, backend_name, seed):
        rng = random.Random(seed)
        structure = random_structure(rng)
        formulas = formula_suite(structure.agents)
        batched = Evaluator(structure, backend_by_name(backend_name)).extensions(
            formulas
        )
        scalar = Evaluator(structure, backend_by_name(backend_name))
        assert batched == [scalar.extension(formula) for formula in formulas]
        assert batched == [
            reference_extension(structure, formula) for formula in formulas
        ]

    @all_backends
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_batch_operators_agree_with_scalar(self, backend_name, seed):
        rng = random.Random(seed)
        structure = random_structure(rng)
        backend = backend_by_name(backend_name)
        inner_worlds = [
            frozenset(w for w in structure.worlds if rng.random() < 0.5)
            for _ in range(4)
        ]
        inners = [backend.from_worlds(structure, worlds) for worlds in inner_worlds]
        agent = structure.agents[0]
        group = structure.agents
        cases = [
            (backend.knows_many(structure, agent, inners), backend.knows, (agent,)),
            (
                backend.possible_many(structure, agent, inners),
                backend.possible,
                (agent,),
            ),
            (
                backend.everyone_knows_many(structure, group, inners),
                backend.everyone_knows,
                (group,),
            ),
            (
                backend.common_knows_many(structure, group, inners),
                backend.common_knows,
                (group,),
            ),
            (
                backend.distributed_knows_many(structure, group, inners),
                backend.distributed_knows,
                (group,),
            ),
        ]
        for batched, scalar, args in cases:
            assert len(batched) == len(inners)
            for result, inner in zip(batched, inners):
                expected = scalar(structure, *args, inner)
                assert backend.to_frozenset(structure, result) == backend.to_frozenset(
                    structure, expected
                ), f"{scalar.__name__} disagrees on backend {backend_name!r}"

    @all_backends
    def test_empty_batch_returns_empty_list(self, backend_name, two_agent_structure):
        backend = backend_by_name(backend_name)
        assert backend.knows_many(two_agent_structure, "a", []) == []
        assert backend.possible_many(two_agent_structure, "a", []) == []
        assert backend.common_knows_many(two_agent_structure, ("a", "b"), []) == []

    @all_backends
    def test_extensions_reuses_and_fills_the_cache(
        self, backend_name, two_agent_structure
    ):
        evaluator = Evaluator(two_agent_structure, backend_by_name(backend_name))
        formulas = [Knows("a", Prop("p")), Knows("a", Prop("q"))]
        results = evaluator.extensions(formulas)
        assert all(formula in evaluator.cache for formula in formulas)
        # A second batched call (and the scalar path) answer from the cache.
        assert evaluator.extensions(formulas) == results
        assert [evaluator.extension(formula) for formula in formulas] == results

    def test_same_relation_operands_share_one_batch_call(self, two_agent_structure):
        calls = []

        class CountingBackend(BitsetBackend):
            name = "counting"

            def knows_many(self, structure, agent, inners):
                calls.append((agent, len(inners)))
                return super().knows_many(structure, agent, inners)

        evaluator = Evaluator(two_agent_structure, CountingBackend())
        # Three K[a] nodes at the innermost level batch into one call; the
        # nested K[a] on top of one of them forms a second level (its operand
        # must be resolved first), hence a second call.
        formulas = [
            Knows("a", Prop("p")),
            Knows("a", Prop("q")),
            Knows("a", Knows("a", Prop("p"))),
            Knows("b", Prop("p")),
        ]
        evaluator.extensions(formulas)
        # The shared subformula K[a] p is hash-consed: it lands in exactly one
        # batch even though two input formulas contain it.
        assert [count for agent, count in calls if agent == "a"] == [2, 1]
        assert [count for agent, count in calls if agent == "b"] == [1]

    def test_extensions_handles_shared_and_duplicate_formulas(
        self, two_agent_structure
    ):
        evaluator = evaluator_for(two_agent_structure)
        formula = Knows("a", Prop("p"))
        results = evaluator.extensions([formula, formula, Prop("p")])
        assert results[0] == results[1] == evaluator.extension(formula)
        assert results[2] == evaluator.extension(Prop("p"))


class TestWorldIndexing:
    def test_dense_index_follows_construction_order(self, two_agent_structure):
        for expected, world in enumerate(two_agent_structure.worlds):
            assert two_agent_structure.index_of(world) == expected
            assert two_agent_structure.world_at(expected) == world
        assert two_agent_structure.world_index == {
            world: index for index, world in enumerate(two_agent_structure.worlds)
        }

    def test_unknown_world_and_index_raise(self, two_agent_structure):
        with pytest.raises(ModelError):
            two_agent_structure.index_of("nope")
        with pytest.raises(ModelError):
            two_agent_structure.world_at(len(two_agent_structure) + 5)
        with pytest.raises(ModelError):
            two_agent_structure.world_at(-1)


class TestEvaluatorCaching:
    def test_extension_is_memoised_per_structure(self, two_agent_structure):
        evaluator = evaluator_for(two_agent_structure)
        formula = Knows("a", Prop("p"))
        first = evaluator.extension(formula)
        assert first is evaluator.extension(formula)
        assert formula in evaluator.cache
        assert evaluator_for(two_agent_structure) is evaluator

    def test_backend_instance_gets_its_own_evaluator(self, two_agent_structure):
        # Regression: the memo used to be keyed by backend *name*, so an
        # instance sharing a registered backend's name silently received
        # that backend's evaluator and its operators never ran.
        calls = []

        class Counting(BitsetBackend):
            def knows(self, structure, agent, inner):
                calls.append(agent)
                return super().knows(structure, agent, inner)

            def knows_many(self, structure, agent, inners):
                calls.append(agent)
                return super().knows_many(structure, agent, inners)

        formula = Knows("a", Prop("p"))
        expected = extension(two_agent_structure, formula, backend="bitset")
        assert Counting.name == "bitset"
        assert extension(two_agent_structure, formula, backend=Counting()) == expected
        assert calls
        shared = evaluator_for(two_agent_structure, "bitset")
        assert evaluator_for(two_agent_structure, backend_by_name("bitset")) is shared
        assert evaluator_for(two_agent_structure, Counting()) is not shared

    def test_distinct_backends_get_distinct_evaluators(self, two_agent_structure):
        evaluators = [
            evaluator_for(two_agent_structure, name) for name in BACKENDS
        ]
        assert len({id(evaluator) for evaluator in evaluators}) == len(BACKENDS)
        for name, evaluator in zip(BACKENDS, evaluators):
            assert evaluator.backend.name == name

    def test_public_extension_returns_fresh_mutable_set(self, two_agent_structure):
        formula = Prop("p")
        result = extension(two_agent_structure, formula)
        assert isinstance(result, set)
        result.clear()  # must not corrupt the persistent cache
        assert extension(two_agent_structure, formula) == {
            world
            for world in two_agent_structure.worlds
            if two_agent_structure.label_holds(world, "p")
        }

    def test_clear_cache(self, two_agent_structure):
        evaluator = Evaluator(two_agent_structure)
        evaluator.extension(Prop("p"))
        assert evaluator.cache
        evaluator.clear_cache()
        assert not evaluator.cache

    @all_backends
    def test_cache_info_reports_cache_sizes(self, backend_name, two_agent_structure):
        evaluator = Evaluator(two_agent_structure, backend_by_name(backend_name))
        info = evaluator.cache_info()
        assert info["memo.formulas"] == 0 and info["memo.frozensets"] == 0
        assert isinstance(info["backend"], dict)
        formula = Knows("a", Or((Prop("p"), Prop("q"))))
        evaluator.extension(formula)
        info = evaluator.cache_info()
        # K[a](p|q), p|q, p, q all cached; only the queried root materialised.
        assert info["memo.formulas"] == 4
        assert info["memo.frozensets"] == 1
        evaluator.clear_cache()
        info = evaluator.cache_info()
        assert info["memo.formulas"] == 0 and info["memo.frozensets"] == 0

    def test_bdd_cache_info_exposes_shared_apply_caches(self, two_agent_structure):
        evaluator = Evaluator(two_agent_structure, backend_by_name("bdd"))
        evaluator.extension(Knows("a", Prop("p")))
        before = evaluator.cache_info()["backend"]
        assert before["unique.nodes"] > 0
        assert before["cache.ite.size"] + before["cache.op.size"] > 0
        evaluator.clear_cache()
        after = evaluator.cache_info()["backend"]
        # The operation memos are dropped (including the mask codec memos,
        # which grow with every distinct world-set a long-lived evaluator
        # touches), the unique table survives, and previously computed
        # world-set values stay valid.
        assert after["cache.ite.size"] == 0 and after["cache.op.size"] == 0
        assert after["memo.sets"] == 0 and after["memo.masks"] == 0
        assert after["unique.nodes"] == before["unique.nodes"]
        formula = Knows("a", Prop("p"))
        assert evaluator.extension(formula) == reference_extension(
            two_agent_structure, formula
        )

    def test_holds_validates_world(self, two_agent_structure):
        with pytest.raises(ModelError):
            holds(two_agent_structure, "nope", TRUE)


class TestKnowledgeLevelValidation:
    def test_unknown_state_raises_on_every_backend(self, two_agent_structure):
        from repro.analysis import knowledge_level_reached

        class SystemShim:
            structure = two_agent_structure
            states = two_agent_structure.worlds

        for backend in BACKENDS:
            with use_backend(backend):
                with pytest.raises(ModelError):
                    knowledge_level_reached(SystemShim(), "nope", Prop("p"), ("a", "b"))

    @all_backends
    def test_knowledge_levels_agree(self, backend_name, two_agent_structure):
        from repro.analysis import knowledge_level_reached

        class SystemShim:
            structure = two_agent_structure
            states = two_agent_structure.worlds

        formula = Or((Prop("p"), Not(Prop("p"))))
        with use_backend("bitset"):
            expected = knowledge_level_reached(SystemShim(), "w00", formula, ("a", "b"))
        with use_backend(backend_name):
            actual = knowledge_level_reached(SystemShim(), "w00", formula, ("a", "b"))
        assert actual == expected


class TestUniformValue:
    @all_backends
    def test_uniform_and_non_local_guards(self, backend_name):
        structure = EpistemicStructure(
            ["u", "v", "w"],
            {"a": {"u": {"u", "v"}, "v": {"u", "v"}, "w": {"w"}}},
            {"u": {"p"}, "v": {"p"}, "w": set()},
        )
        evaluator = evaluator_for(structure, backend_name)
        backend = evaluator.backend
        p = evaluator.extension_ws(Prop("p"))

        def value(worlds):
            return uniform_value(backend, backend.from_worlds(structure, worlds), p)

        assert value({"u", "v"}) is True
        assert value({"w"}) is False
        assert value({"u", "w"}) is None

    @all_backends
    def test_empty_witness_class_is_vacuously_true(self, backend_name):
        # Regression: the empty class used to fall through to ``False``
        # because the none-inside test ran before the all-inside test.  The
        # guard holds at every world of an empty class, so the uniform value
        # is ``True`` — matching the convention that ``K_a phi`` holds at a
        # local state no reachable global state carries.
        structure = EpistemicStructure(
            ["u"], {"a": {"u": {"u"}}}, {"u": set()}
        )
        evaluator = evaluator_for(structure, backend_name)
        backend = evaluator.backend
        empty = backend.empty(structure)
        for guard in (Prop("p"), FALSE):
            assert uniform_value(backend, empty, evaluator.extension_ws(guard)) is True


class TestBackendRegistry:
    def test_builtins_are_registered(self):
        assert available_backends() == ["bdd", "bitset"]
        assert backend_by_name("bitset").name == "bitset"
        with pytest.raises(EngineError):
            backend_by_name("no-such-backend")

    def test_bdd_backend_needs_no_optional_dependency(self):
        # The symbolic backend is pure Python: it is available
        # unconditionally.
        assert backend_by_name("bdd").name == "bdd"

    def test_unknown_default_backend_is_rejected_at_import(self):
        # The removed backends' names must fail loudly, naming the two that
        # remain, instead of silently falling back to the default.
        src_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["REPRO_SET_BACKEND"] = "frozenset"
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run(
            [sys.executable, "-c", "import repro.engine"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert run.returncode != 0
        assert "EngineError" in run.stderr
        assert "'bdd', 'bitset'" in run.stderr

    def test_register_backend_lazy_singleton(self):
        instantiations = []

        class DummyBackend(BitsetBackend):
            name = "dummy"

            def __init__(self):
                instantiations.append(self)

        register_backend("dummy", DummyBackend)
        try:
            assert "dummy" in available_backends()
            assert not instantiations  # lazy: nothing built at registration
            first = backend_by_name("dummy")
            assert backend_by_name("dummy") is first  # memoised singleton
            assert len(instantiations) == 1
        finally:
            unregister_backend("dummy")
        assert "dummy" not in available_backends()

    def test_duplicate_registration_requires_replace(self):
        class FirstBackend(BitsetBackend):
            pass

        register_backend("dummy2", FirstBackend)
        try:
            with pytest.raises(EngineError, match="dummy2"):
                register_backend("dummy2", BitsetBackend)
            # The rejected re-registration must not have clobbered the
            # original entry (a typo'd name would otherwise silently swap a
            # backend out from under its users).
            assert isinstance(backend_by_name("dummy2"), FirstBackend)
            register_backend("dummy2", BitsetBackend, replace=True)
            assert type(backend_by_name("dummy2")) is BitsetBackend
        finally:
            unregister_backend("dummy2")

    def test_builtin_names_are_guarded_against_shadowing(self):
        # A plugin accidentally reusing a built-in name must be rejected,
        # not silently replace the engine.
        for name in ("bitset", "bdd"):
            with pytest.raises(EngineError):
                register_backend(name, BitsetBackend)

    def test_unregistering_unknown_or_default_backend_raises(self):
        with pytest.raises(EngineError):
            unregister_backend("no-such-backend")
        default_name = get_default_backend().name
        with pytest.raises(EngineError):
            unregister_backend(default_name)
        assert default_name in available_backends()


class TestBackendSelection:
    def test_default_backend_matches_environment(self):
        # The process default is bitset unless the suite itself is being run
        # under a REPRO_SET_BACKEND override (the CI matrix does this).
        expected = os.environ.get("REPRO_SET_BACKEND", "bitset")
        assert get_default_backend().name == expected

    @staticmethod
    def _other_backend():
        return "bdd" if get_default_backend().name != "bdd" else "bitset"

    def test_use_backend_restores_previous_default(self):
        before = get_default_backend()
        other = self._other_backend()
        with use_backend(other) as backend:
            assert backend.name == other
            assert get_default_backend() is backend
        assert get_default_backend() is before

    def test_set_default_backend_accepts_instances_and_names(self):
        other = self._other_backend()
        previous = set_default_backend(other)
        try:
            assert get_default_backend().name == other
        finally:
            set_default_backend(previous)
        assert get_default_backend() is previous


class TestEmptyGroupRelations:
    def test_empty_intersection_is_the_full_relation(self, two_agent_structure):
        # Regression: this used to crash with IndexError on per_agent[0].
        relation = two_agent_structure.group_relation((), mode="intersection")
        all_worlds = frozenset(two_agent_structure.worlds)
        assert relation == {world: all_worlds for world in two_agent_structure.worlds}

    def test_empty_union_is_the_empty_relation(self, two_agent_structure):
        relation = two_agent_structure.group_relation((), mode="union")
        assert relation == {world: frozenset() for world in two_agent_structure.worlds}

    @all_backends
    def test_backends_agree_on_empty_group_operators(
        self, backend_name, two_agent_structure
    ):
        # By definition E[{}] phi holds everywhere (no agent has to know),
        # and D[{}] phi quantifies over every world, so it holds everywhere
        # if phi does and nowhere otherwise; ``p`` holds only somewhere.
        structure = two_agent_structure
        candidate = backend_by_name(backend_name)
        inner_worlds = frozenset(
            world for world in structure.worlds if structure.label_holds(world, "p")
        )
        assert inner_worlds and inner_worlds != frozenset(structure.worlds)
        inner = candidate.from_worlds(structure, inner_worlds)
        assert candidate.to_frozenset(
            structure, candidate.distributed_knows(structure, (), inner)
        ) == frozenset()
        assert candidate.to_frozenset(
            structure, candidate.everyone_knows(structure, (), inner)
        ) == frozenset(structure.worlds)
