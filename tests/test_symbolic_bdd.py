"""Unit tests of the symbolic subsystem (:mod:`repro.symbolic`).

The backend-equivalence property suite in ``tests/test_engine_backends.py``
already exercises the ``"bdd"`` backend end-to-end against the frozenset
reference (it enumerates ``available_backends()``); the tests here pin down
the *kernel* and the *encoding* directly — canonicity, the ``ite``
identities, quantifier/renaming round-trips, satisfying-set counting
against brute force, and the mask <-> BDD codec — so a kernel regression is
reported at the primitive that broke, not as a distant semantic
disagreement.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.kripke import EpistemicStructure
from repro.symbolic import BDD, FALSE, TRUE, SymbolicEncoding, encoding_for
from repro.symbolic.backend_bdd import SymbolicBackend
from repro.util.errors import EngineError


def random_function(manager, rng, depth=0):
    """A random BDD built from connectives over the manager's variables."""
    if depth > 4 or rng.random() < 0.2:
        choice = rng.randrange(4)
        if choice == 0:
            return FALSE
        if choice == 1:
            return TRUE
        level = rng.randrange(manager.num_vars)
        return manager.var(level) if choice == 2 else manager.nvar(level)
    op = rng.choice(["and", "or", "xor", "implies", "iff", "not", "ite"])
    a = random_function(manager, rng, depth + 1)
    if op == "not":
        return manager.not_(a)
    b = random_function(manager, rng, depth + 1)
    if op == "ite":
        c = random_function(manager, rng, depth + 1)
        return manager.ite(a, b, c)
    method = {
        "and": manager.and_,
        "or": manager.or_,
        "xor": manager.xor,
        "implies": manager.implies,
        "iff": manager.iff,
    }[op]
    return method(a, b)


def truth_table(manager, u):
    """The function of ``u`` as a tuple over all assignments (level order)."""
    return tuple(
        manager.evaluate(u, values)
        for values in itertools.product([False, True], repeat=manager.num_vars)
    )


class TestCanonicity:
    def test_structurally_equal_formulas_share_one_node_id(self):
        m = BDD(3)
        x, y, z = m.var(0), m.var(1), m.var(2)
        distributed = m.or_(m.and_(x, y), m.and_(x, z))
        factored = m.and_(x, m.or_(y, z))
        assert distributed == factored
        # De Morgan, double negation and xor-as-iff-negation all land on
        # the identical hash-consed node.
        assert m.not_(m.and_(x, y)) == m.or_(m.not_(x), m.not_(y))
        assert m.not_(m.not_(distributed)) == distributed
        assert m.xor(x, y) == m.not_(m.iff(x, y))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_equal_truth_tables_imply_equal_node_ids(self, seed):
        rng = random.Random(seed)
        m = BDD(4)
        f = random_function(m, rng)
        g = random_function(m, rng)
        if truth_table(m, f) == truth_table(m, g):
            assert f == g
        else:
            assert f != g

    def test_tautology_and_contradiction_are_the_terminals(self):
        m = BDD(2)
        x = m.var(0)
        assert m.or_(x, m.not_(x)) == TRUE
        assert m.and_(x, m.not_(x)) == FALSE

    def test_order_violation_is_rejected(self):
        m = BDD(2)
        deep = m.var(1)
        with pytest.raises(EngineError):
            m._node(1, deep, TRUE)


class TestIteIdentities:
    def test_terminal_cases(self):
        m = BDD(3)
        f, g, h = m.var(0), m.var(1), m.var(2)
        assert m.ite(TRUE, g, h) == g
        assert m.ite(FALSE, g, h) == h
        assert m.ite(f, g, g) == g
        assert m.ite(f, TRUE, FALSE) == f
        assert m.ite(f, FALSE, TRUE) == m.not_(f)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_ite_matches_boolean_definition(self, seed):
        rng = random.Random(seed)
        m = BDD(4)
        f, g, h = (random_function(m, rng) for _ in range(3))
        composed = m.ite(f, g, h)
        expected = m.or_(m.and_(f, g), m.and_(m.not_(f), h))
        assert composed == expected

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_shannon_expansion(self, seed):
        rng = random.Random(seed)
        m = BDD(4)
        f = random_function(m, rng)
        for level in range(m.num_vars):
            positive = m.restrict(f, level, True)
            negative = m.restrict(f, level, False)
            assert m.ite(m.var(level), positive, negative) == f
            assert level not in m.support(positive)
            assert level not in m.support(negative)


class TestQuantificationAndRenaming:
    def test_exists_and_forall_basics(self):
        m = BDD(3)
        x, y = m.var(0), m.var(1)
        assert m.exists(m.and_(x, y), (1,)) == x
        assert m.forall(m.and_(x, y), (1,)) == FALSE
        assert m.forall(m.implies(y, x), (1,)) == x
        assert m.exists(x, (1, 2)) == x  # independent variables: no-op
        assert m.exists(x, ()) == x

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_exists_agrees_with_restriction_disjunction(self, seed):
        rng = random.Random(seed)
        m = BDD(4)
        f = random_function(m, rng)
        levels = tuple(sorted(rng.sample(range(4), rng.randint(1, 3))))
        expected = FALSE
        for values in itertools.product([False, True], repeat=len(levels)):
            cofactor = f
            for level, value in zip(levels, values):
                cofactor = m.restrict(cofactor, level, value)
            expected = m.or_(expected, cofactor)
        assert m.exists(f, levels) == expected
        assert m.forall(f, levels) == m.not_(m.exists(m.not_(f), levels))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_and_exists_equals_exists_of_conjunction(self, seed):
        rng = random.Random(seed)
        m = BDD(4)
        f = random_function(m, rng)
        g = random_function(m, rng)
        levels = tuple(sorted(rng.sample(range(4), rng.randint(1, 3))))
        assert m.and_exists(f, g, levels) == m.exists(m.and_(f, g), levels)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_rename_round_trip(self, seed):
        # num_vars = 4 with "current" levels (0, 1) and "primed" (2, 3):
        # the same separated shift the structure encoding uses.
        rng = random.Random(seed)
        m = BDD(4)
        f = m.and_(
            m.ite(m.var(0), m.var(1), m.not_(m.var(1))),
            random_function_over(m, rng, (0, 1)),
        )
        shifted = m.rename(f, ((0, 2), (1, 3)))
        assert m.support(shifted) <= {2, 3}
        assert m.rename(shifted, ((2, 0), (3, 1))) == f

    def test_rename_rejects_order_violations(self):
        m = BDD(2)
        f = m.and_(m.var(0), m.var(1))
        with pytest.raises(EngineError):
            m.rename(f, ((0, 1), (1, 0)))  # swapping adjacent levels


def random_function_over(manager, rng, levels, depth=0):
    """A random function whose support is within ``levels``."""
    if depth > 3 or rng.random() < 0.25:
        level = rng.choice(levels)
        return manager.var(level) if rng.random() < 0.5 else manager.nvar(level)
    op = rng.choice(["and", "or", "xor"])
    a = random_function_over(manager, rng, levels, depth + 1)
    b = random_function_over(manager, rng, levels, depth + 1)
    return {"and": manager.and_, "or": manager.or_, "xor": manager.xor}[op](a, b)


class TestCountingAndEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_sat_count_matches_brute_force_up_to_four_vars(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(1, 4)
        m = BDD(num_vars)
        f = random_function(m, rng)
        assert m.sat_count(f) == sum(truth_table(m, f))

    def test_sat_count_terminals(self):
        m = BDD(3)
        assert m.sat_count(FALSE) == 0
        assert m.sat_count(TRUE) == 8

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_sat_all_paths_cover_exactly_the_satisfying_assignments(self, seed):
        rng = random.Random(seed)
        m = BDD(3)
        f = random_function(m, rng)
        covered = set()
        for path in m.sat_all(f):
            free = [level for level in range(3) if level not in path]
            for values in itertools.product([False, True], repeat=len(free)):
                assignment = dict(path)
                assignment.update(zip(free, values))
                point = tuple(assignment[level] for level in range(3))
                assert point not in covered  # paths are disjoint
                covered.add(point)
        expected = {
            values
            for values in itertools.product([False, True], repeat=3)
            if m.evaluate(f, values)
        }
        assert covered == expected

    def test_evaluate_accepts_sequences_and_dicts(self):
        m = BDD(2)
        f = m.and_(m.var(0), m.not_(m.var(1)))
        assert m.evaluate(f, [True, False]) is True
        assert m.evaluate(f, {0: True, 1: True}) is False


class TestObservability:
    def test_clear_operation_caches_keeps_node_ids_valid(self):
        m = BDD(3)
        f = m.iff(m.var(0), m.or_(m.var(1), m.var(2)))
        g = m.exists(f, (1,))
        before = m.cache_info()
        assert before["cache.ite.size"] + before["cache.op.size"] > 0
        m.clear_operation_caches()
        info = m.cache_info()
        assert info["cache.ite.size"] == 0 and info["cache.op.size"] == 0
        assert info["unique.nodes"] == before["unique.nodes"]
        # Identical recomputation lands on the identical ids.
        assert m.exists(f, (1,)) == g

    def test_size_and_support(self):
        m = BDD(3)
        f = m.and_(m.var(0), m.or_(m.var(1), m.var(2)))
        assert m.support(f) == {0, 1, 2}
        assert m.size(f) == 3
        assert m.size(TRUE) == 0

    def test_invalid_levels_are_rejected(self):
        m = BDD(2)
        with pytest.raises(EngineError):
            m.var(2)
        with pytest.raises(EngineError):
            m.exists(TRUE, (5,))
        with pytest.raises(EngineError):
            BDD(-1)


def small_structure():
    """A three-world structure with a non-power-of-two universe, so the
    invalid fourth code exercises the domain restriction."""
    return EpistemicStructure(
        ["u", "v", "w"],
        {
            "a": {"u": {"u", "v"}, "v": {"u", "v"}, "w": {"w"}},
            "b": {"u": {"u"}, "v": {"v", "w"}, "w": {"v", "w"}},
        },
        {"u": {"p"}, "v": {"p", "q"}, "w": set()},
    )


class TestEncoding:
    def test_encoding_is_memoised_per_structure(self):
        structure = small_structure()
        assert encoding_for(structure) is encoding_for(structure)
        assert isinstance(encoding_for(structure), SymbolicEncoding)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_mask_round_trip(self, n, seed):
        rng = random.Random(seed)
        structure = EpistemicStructure(
            [f"w{i}" for i in range(n)], {"a": {}}, {}
        )
        encoding = encoding_for(structure)
        mask = rng.getrandbits(n)
        node = encoding.set_from_mask(mask)
        assert encoding.mask_from_set(node) == mask
        assert encoding.count(node) == bin(mask).count("1")
        for index in range(n):
            assert encoding.contains_index(node, index) == bool((mask >> index) & 1)

    def test_domain_excludes_invalid_codes(self):
        structure = small_structure()
        encoding = encoding_for(structure)
        assert encoding.count(encoding.domain) == 3
        assert not encoding.contains_index(encoding.domain, 3)

    def test_relation_bdd_matches_adjacency(self):
        structure = small_structure()
        encoding = encoding_for(structure)
        bits = encoding.bits
        for agent in structure.agents:
            relation = encoding.agent_relation(agent)
            for w in structure.worlds:
                for v in structure.worlds:
                    assignment = {}
                    for p in range(bits):
                        shift = bits - 1 - p
                        assignment[p] = bool((structure.index_of(w) >> shift) & 1)
                        assignment[bits + p] = bool(
                            (structure.index_of(v) >> shift) & 1
                        )
                    assert encoding.bdd.evaluate(relation, assignment) == (
                        v in structure.accessible(agent, w)
                    )

    def test_prime_unprime_round_trip(self):
        structure = small_structure()
        encoding = encoding_for(structure)
        node = encoding.set_from_mask(0b101)
        primed = encoding.prime(node)
        assert encoding.bdd.support(primed) <= set(encoding.primed_levels)
        assert encoding.unprime(primed) == node

    def test_empty_group_relations(self):
        structure = small_structure()
        encoding = encoding_for(structure)
        bdd = encoding.bdd
        assert encoding.group_relation((), "union") == FALSE
        full = encoding.group_relation((), "intersection")
        assert full == bdd.and_(encoding.domain, encoding.domain_primed)


class TestSymbolicBackendValues:
    def test_world_set_values_are_canonical(self):
        structure = small_structure()
        backend = SymbolicBackend()
        a = backend.from_worlds(structure, ["u", "w"])
        b = backend.from_worlds(structure, ["w", "u"])
        assert backend.equals(a, b)
        assert a == b and hash(a) == hash(b)
        assert backend.size(a) == 2
        assert backend.to_frozenset(structure, a) == frozenset({"u", "w"})

    def test_complement_stays_inside_the_domain(self):
        structure = small_structure()
        backend = SymbolicBackend()
        nothing = backend.complement(
            structure, backend.universe(structure)
        )
        assert backend.is_empty(nothing)
        everything = backend.complement(structure, backend.empty(structure))
        assert backend.to_frozenset(structure, everything) == frozenset(
            structure.worlds
        )
