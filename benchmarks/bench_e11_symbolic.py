"""E11 — The symbolic (BDD) backend against the explicit engines.

Two workloads compare ``"bdd"`` with the explicit ``"bitset"`` backend
through the ``engine_backend`` fixture, which enumerates
``available_backends()``:

* the e7 knowledge-evaluation workload — nested K/M over the two-agent
  observability grid — at 256 and 1024 worlds, the head-to-head the
  symbolic backend was built for: the grid's relations are observational
  equivalences over index bits, which compress to small relation BDDs, so
  the symbolic cost tracks BDD size rather than world count;
* a muddy-children guard table at ``n >= 10``: the round-0 view after the
  father's announcement (all ``2^n - 1`` muddiness patterns with at least
  one muddy child, built directly as an epistemic structure — the full
  variable context enumerates an intractable product space at this size),
  with every clause guard ``K_i muddy_i | K_i !muddy_i`` evaluated in one
  batched engine pass and decided per local-state class through
  ``uniform_value`` — the interpretation-layer inner loop the paper's
  ``Pg^I`` functional runs round after round.

Both workloads assert expected answers — the knowledge workload against the
definitional oracle (:mod:`repro.oracle`), the guard table against the
classical result that at round 0 exactly the ``k = 1`` children know their
status — so the benchmark doubles as an equivalence check at sizes the unit
suite does not visit.
"""

import pytest

from repro import oracle
from repro.engine import Evaluator, backend_by_name, uniform_value
from repro.kripke import structure_from_labels
from repro.logic import parse
from repro.protocols.muddy_children import child, knows_own_status

from bench_e7_model_checking import grid_structure


def muddy_round0_structure(n):
    """The epistemic structure of the muddy-children round-0 view: one world
    per muddiness pattern with at least one muddy child; child ``i``
    observes every ``muddy_j`` with ``j != i``."""
    labelling = {
        pattern: {f"muddy{i}" for i in range(n) if (pattern >> i) & 1}
        for pattern in range(1, 2**n)
    }
    observables = {
        child(i): {f"muddy{j}" for j in range(n) if j != i} for i in range(n)
    }
    return structure_from_labels(labelling, observables)


def muddy_guard_table(structure, n, backend):
    """Evaluate every child's clause guard in one batched pass and decide
    it per local-state (indistinguishability) class; returns the list of
    ``(agent, class size, guard value)`` entries."""
    evaluator = Evaluator(structure, backend)
    guards = [knows_own_status(i) for i in range(n)]
    # One batched engine pass for all guards.
    extensions = evaluator.extensions_ws(guards)
    entries = []
    for i in range(n):
        agent = child(i)
        for cls in structure.equivalence_classes(agent):
            witnesses = backend.from_worlds(structure, cls)
            entries.append(
                (agent, len(cls), uniform_value(backend, witnesses, extensions[i]))
            )
    return entries


@pytest.mark.parametrize("bits", [8, 10])
def test_bench_symbolic_knowledge_eval(benchmark, table_report, engine_backend, bits):
    structure = grid_structure(bits)
    formula = parse("K[a] b0 & !K[a] b1 & M[b] (b1 & !b0)")
    backend = backend_by_name(engine_backend)

    # A fresh evaluator per round (the persistent one would answer from its
    # cache after the first round); the structure-level encodings and
    # relation BDDs stay memoised, matching how repeated queries behave.
    result = benchmark(lambda: Evaluator(structure, backend).extension(formula))
    reference = oracle.extension(
        formula, structure.worlds, structure.accessible, structure.labels
    )
    assert result == reference
    table_report(
        f"E11 symbolic knowledge evaluation ({2**bits} worlds, {engine_backend})",
        [(2**bits, len(result))],
        header=("worlds", "|extension|"),
    )


@pytest.mark.parametrize("n", [10])
def test_bench_muddy_children_guard_table(benchmark, table_report, engine_backend, n):
    structure = muddy_round0_structure(n)
    backend = backend_by_name(engine_backend)

    entries = benchmark(muddy_guard_table, structure, n, backend)
    # Round 0 after the announcement: a child knows its status iff it sees
    # nobody muddy (it is the single muddy one) — exactly n true entries,
    # one per child, each a singleton class; everyone else cannot know.
    known = [entry for entry in entries if entry[2] is True]
    assert len(known) == n
    assert all(size == 1 for _, size, _ in known)
    assert all(value is False for _, _, value in entries if value is not True)
    table_report(
        f"E11 muddy-children guard table (n={n}, {engine_backend})",
        [(n, 2**n - 1, len(entries))],
        header=("children", "worlds", "table entries"),
    )
