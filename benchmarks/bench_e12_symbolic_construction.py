"""E12 — Enumeration-free symbolic model construction.

PR 4's symbolic engine still received its structures from explicit world
enumeration; this experiment measures the pipeline that removes that step:
``repro.symbolic.compile`` + ``repro.symbolic.model`` build the initial set,
the observational-equivalence relations and the transition relation of a
variable context *directly from the specification*, and
``construct_by_rounds`` runs the whole round-based KBP interpretation on
BDDs.

Two workloads over the muddy-children family (the paper's canonical
synchronous program):

* a head-to-head at ``n = 7`` (1,327,104 states): explicit and symbolic
  construction both finish, the symbolic path is expected an order of
  magnitude faster;
* the symbolic path alone at ``n = 10`` (``StateSpace.size() ≈ 1.5·10^8 ≥
  2^20``) — the scale of the acceptance criterion, where the explicit
  construction takes >2 minutes (~150x slower, measured once outside the
  harness: 131 s vs 0.85 s) and larger ``n`` does not finish at all.

Both workloads assert the classical answers (rounds to close, reachable
state counts, first-yes rounds), so the benchmark doubles as a correctness
check at sizes the unit suite only touches once.
"""

import pytest

from repro.interpretation import construct_by_rounds
from repro.protocols import muddy_children as mc

#: Reachable states of the muddy-children implementation, by n (each of the
#: ``2^n - 1`` announcement-compatible patterns traces a deterministic run
#: through ``n + 2`` rounds; states of distinct patterns never merge).
EXPECTED_STATES = {7: 1143, 10: 12276, 12: 57330}


def _solve_symbolic(n):
    model = mc.symbolic_model(n)
    program = mc.program(n).check_against_context(model)
    return construct_by_rounds(program, model), model


def _check(result, n):
    assert result.verified is True
    assert result.iterations == n + 2
    assert result.system.state_count() == EXPECTED_STATES[n]


@pytest.mark.parametrize("n", [7])
def test_bench_explicit_construction(benchmark, table_report, n):
    result = benchmark(lambda: mc.solve(n))
    assert result.verified is True
    assert len(result.system.states) == EXPECTED_STATES[n]
    table_report(
        f"E12 explicit round construction (n={n})",
        [(n, mc.context(n).spec.state_space.size(), len(result.system.states))],
        header=("children", "state space", "reachable"),
    )


@pytest.mark.parametrize("n", [7, 10])
def test_bench_symbolic_construction(benchmark, table_report, n):
    def run():
        result, _ = _solve_symbolic(n)
        return result

    result = benchmark(run)
    _check(result, n)
    _, model = _solve_symbolic(n)
    table_report(
        f"E12 symbolic (enumeration-free) round construction (n={n})",
        [
            (
                n,
                model.state_space.size(),
                result.system.state_count(),
                model.encoding.bdd.cache_info()["unique.nodes"],
            )
        ],
        header=("children", "state space", "reachable", "BDD nodes"),
    )


def test_symbolic_construction_matches_explicit_semantics():
    """Not a timing: the n=10 symbolic result reproduces the classical
    muddy-children rounds on a sample run (k muddy -> yes in round k)."""
    n, k = 10, 4
    result, model = _solve_symbolic(n)
    _check(result, n)
    pattern = [i < k for i in range(n)]
    state = mc.initial_state_for_pattern(model, pattern)
    first_yes = {}
    for _ in range(n + 2):
        pre = state.as_dict()
        new = dict(pre)
        for effect in model.env_effects.values():
            for name, expr in effect.updates.items():
                new[name] = expr.evaluate(pre)
        for agent in model.agents:
            (action,) = result.protocol.actions(agent, model.local_state(agent, state))
            for name, expr in model.actions[agent][action].effect.updates.items():
                new[name] = expr.evaluate(pre)
        state = model.state_space.state(new)
        for i in range(n):
            if i not in first_yes and state[f"said{i}"]:
                first_yes[i] = state["round"]
    assert all(first_yes[i] == k for i in range(k))
    assert all(first_yes[i] == k + 1 for i in range(k, n))
