"""E14 — Symbolic implementation synthesis: the search/check layer on BDDs.

PR 7 moves the last enumerating subsystem — ``check_implementation`` and
``enumerate_implementations``/``search`` — onto the symbolic substrate:
the fixed-point test ``P = Pg^{I_rep(P)}`` compares candidate and derived
protocols by canonical class-BDD node ids over the candidate's reachable
set, and the exhaustive search enumerates candidate reachable sets as BDDs
restricted to the liberal-reachable universe.  Three studies:

* **Fixed-point check, explicit vs symbolic, muddy children ``n = 7``**:
  both carriers verify the round-constructed implementation; the explicit
  check re-enumerates the 1,143-state system and tabulates every local
  state, the symbolic check is a relational-image sweep plus one
  ``enabled_sets`` comparison per agent (two orders of magnitude faster
  here).

* **Symbolic check past explicit reach (``n ∈ {10, 12}``)**: at ``n = 10``
  the explicit path needs >2 minutes just to construct the system
  (measured once outside the harness: 131 s), while the symbolic check
  confirms the 12,276-state implementation in well under a second — the
  acceptance-scale workload, recorded with its state and node counts.

* **Symbolic search**: classifying the whole variable-setting family
  (``contradictory``/``unique``/``multiple`` — the explicit partner is the
  long-standing ``e8_implementation_search``) and synthesising the unique
  bit-transmission implementation over the liberal-reachable candidate
  universe (6 non-initial states, 64 candidates) — the same universe, and
  so the same candidate count, as the explicit search.

Every workload asserts its qualitative answers, so the benchmark doubles
as a correctness check at sizes the unit suite only touches once.
"""

import time

import pytest

from repro.interpretation import (
    check_implementation,
    construct_by_rounds,
    enumerate_implementations,
)
from repro.protocols import bit_transmission as bt
from repro.protocols import muddy_children as mc
from repro.protocols import variable_setting as vs

#: Reachable states of the muddy-children implementation, by n (see
#: bench_e12_symbolic_construction for the counting argument).
EXPECTED_STATES = {7: 1143, 10: 12276, 12: 57330}


def _explicit_candidate(n):
    """Construct the muddy-children implementation explicitly (verification
    deferred to the timed check)."""
    program = mc.program(n)
    context = mc.context(n)
    result = construct_by_rounds(program, context, verify=False)
    return result.protocol, program, context


def _symbolic_candidate(n):
    """Construct the implementation symbolically on a fresh model
    (verification deferred to the timed check)."""
    model = mc.symbolic_model(n)
    program = mc.program(n).check_against_context(model)
    result = construct_by_rounds(program, model, verify=False)
    return result.protocol, program, model


def _checked(candidate, n):
    """Run the fixed-point check on a candidate triple, asserting the
    verdict and the system size; returns observability metrics."""
    protocol, program, context = candidate
    start = time.perf_counter()
    report = check_implementation(protocol, program, context)
    elapsed = time.perf_counter() - start
    assert report.is_implementation
    states = (
        report.system.state_count()
        if hasattr(report.system, "state_count")
        else len(report.system)
    )
    assert states == EXPECTED_STATES[n]
    return {"states": states, "check_seconds": elapsed}


def test_bench_explicit_check(benchmark, table_report):
    n = 7
    metrics = benchmark.pedantic(
        lambda: _checked(_explicit_candidate(n), n), rounds=2, iterations=1
    )
    table_report(
        f"E14 explicit fixed-point check (muddy n={n})",
        [(n, metrics["states"], f"{metrics['check_seconds'] * 1000:.1f}")],
        header=("children", "reachable", "check ms"),
    )


@pytest.mark.parametrize("n", [7, 10, 12])
def test_bench_symbolic_check(benchmark, table_report, n):
    metrics = benchmark.pedantic(
        lambda: _checked(_symbolic_candidate(n), n), rounds=2, iterations=1
    )
    table_report(
        f"E14 symbolic fixed-point check (muddy n={n})",
        [(n, metrics["states"], f"{metrics['check_seconds'] * 1000:.1f}")],
        header=("children", "reachable", "check ms"),
    )


def test_bench_symbolic_search_family(benchmark, table_report):
    def classify_all():
        return {
            name: enumerate_implementations(factory(), vs.symbolic_model()).classification
            for name, (factory, _) in vs.PROGRAM_FAMILY.items()
        }

    classes = benchmark(classify_all)
    assert classes == {name: expected for name, (_, expected) in vs.PROGRAM_FAMILY.items()}
    table_report(
        "E14 symbolic implementation search over the variable-setting family",
        sorted(classes.items()),
        header=("program", "classification"),
    )


def test_bench_symbolic_search_bit_transmission(benchmark, table_report):
    def synthesise():
        return enumerate_implementations(bt.program(), bt.symbolic_model())

    result = benchmark(synthesise)
    assert result.classification == "unique"
    _, system = result.unique()
    assert system.state_count() == 6
    explicit = enumerate_implementations(bt.program(), bt.context())
    assert explicit.candidates_checked == result.candidates_checked
    table_report(
        "E14 symbolic synthesis of the bit-transmission protocol",
        [(result.candidates_checked, explicit.candidates_checked, system.state_count())],
        header=("candidates (symbolic)", "candidates (explicit)", "reachable"),
    )
