"""E13 — Symbolic temporal-epistemic checking and dynamic reordering.

PR 6 closes the symbolic pipeline: CTLK model checking now runs as BDD
pre-image fixed points over the compiled transition relation of a
symbolically constructed system, and the ROBDD kernel can re-sift its
variable order while the diagrams grow.  Three studies:

* **Muddy children at symbolic-only sizes** (``n ∈ {10, 14, 20}``;
  ``StateSpace.size() ≈ 5·10^14`` at ``n = 20``): construct the
  implementation and check the classical temporal-epistemic battery —
  everyone eventually answers, answering *yes* is knowing, and the father's
  announcement is common knowledge throughout.  The explicit checker cannot
  enumerate any of these systems.

* **Dining-cryptographers rings** (a second shape of workload: XOR
  announcements around a ring): anonymity and common knowledge of "someone
  paid" as ``AG``-formulas over the one-round system, under the good
  (per-position interleaved) variable order.

* **Dynamic reordering on an adversarial order**: the same ring compiled
  under :func:`~repro.protocols.dining_cryptographers.blocked_variable_order`
  (all ``say`` bits above the coins they depend on) with sifting off
  vs. on.  Without reordering the run allocates ~4x the nodes and the
  checking phase dominates end-to-end time ~5x; one growth-triggered sift
  recovers the interleaved order mid-construction.  The recorded
  ``peak_nodes`` (total unique-table allocations, a high-water measure)
  make the effect visible in the committed ``BENCH_6.json``.

Every workload asserts its qualitative answers, so the benchmark doubles as
a correctness check at sizes the unit suite only touches once.
"""

import pytest

from repro.interpretation import construct_by_rounds
from repro.logic.formula import And, CommonKnows, Implies, Knows, Not, Prop, disj
from repro.protocols import dining_cryptographers as dc
from repro.protocols import muddy_children as mc
from repro.temporal import AF, AG
from repro.temporal.ctlk import CTLKModelChecker
from repro.temporal.symbolic import SymbolicCTLKOps

#: Reachable states of the dining-cryptographers system by ring size: the
#: ``n + 1`` payer choices x ``2^n`` coin patterns, before and after the
#: simultaneous announcement round.
EXPECTED_DINING_STATES = {8: 4608, 10: 22528}


def _muddy_ctlk(n):
    """Construct muddy-children ``n`` symbolically and check the classical
    temporal-epistemic properties; returns observability metrics."""
    model = mc.symbolic_model(n)
    result = construct_by_rounds(mc.program(n).check_against_context(model), model)
    assert result.verified is True
    checker = CTLKModelChecker(result.system)
    assert isinstance(checker.ops, SymbolicCTLKOps)
    group = tuple(mc.child(i) for i in range(n))
    said_all = disj([mc.said_prop(i) for i in range(n)])
    someone_muddy = disj([mc.muddy_prop(i) for i in range(n)])
    # Everyone eventually answers yes, on every path.
    assert checker.valid(AF(said_all))
    # Answering yes means knowing one's own status.
    assert checker.valid(AG(Implies(mc.said_prop(0), mc.knows_own_status(0))))
    # The father's announcement stays common knowledge forever.
    assert checker.valid(AG(CommonKnows(group, someone_muddy)))
    info = model.encoding.bdd.cache_info()
    return {
        "states": result.system.state_count(),
        "peak_nodes": info["unique.nodes"],
        "reorders": info["reorder.count"],
    }


def _dining_ctlk(n, blocked=False, reorder=False, threshold=2048):
    """Construct the dining-cryptographers ring symbolically and check the
    protocol's temporal-epistemic properties; returns observability
    metrics.  ``blocked`` compiles under the adversarial variable order,
    ``reorder`` arms growth-triggered sifting."""
    order = dc.blocked_variable_order(n) if blocked else None
    model = dc.symbolic_model(n, variable_order=order)
    if reorder:
        model.encoding.bdd.enable_reordering(
            groups=model.encoding.reorder_groups(), threshold=threshold
        )
    result = construct_by_rounds(dc.program(n).check_against_context(model), model)
    assert result.verified is True
    assert result.system.state_count() == EXPECTED_DINING_STATES[n]
    checker = CTLKModelChecker(result.system)
    group = tuple(dc.crypto(i) for i in range(n))
    someone = dc.someone_paid_formula(n)
    done = Prop("done")
    # The announcement round always completes.
    assert checker.valid(AF(done))
    # Afterwards, a paid dinner is common knowledge...
    assert checker.valid(
        AG(Implies(And((done, someone)), CommonKnows(group, someone)))
    )
    # ...yet the payer stays anonymous to every other cryptographer.
    assert checker.valid(
        AG(Implies(And((done, dc.paid_prop(0))), Not(Knows(dc.crypto(1), dc.paid_prop(0)))))
    )
    # And paying is possible in the first place.
    assert checker.reachable(And((done, dc.paid_prop(0))))
    info = model.encoding.bdd.cache_info()
    return {
        "states": result.system.state_count(),
        "peak_nodes": info["unique.nodes"],
        "reorders": info["reorder.count"],
    }


@pytest.mark.parametrize("n", [10, 14])
def test_bench_muddy_symbolic_ctlk(benchmark, table_report, n):
    metrics = benchmark(lambda: _muddy_ctlk(n))
    table_report(
        f"E13 symbolic CTLK over muddy children (n={n})",
        [(n, metrics["states"], metrics["peak_nodes"])],
        header=("children", "reachable", "peak nodes"),
    )


@pytest.mark.parametrize("n", [8, 10])
def test_bench_dining_ring_ctlk(benchmark, table_report, n):
    metrics = benchmark(lambda: _dining_ctlk(n))
    assert metrics["states"] == EXPECTED_DINING_STATES[n]
    table_report(
        f"E13 symbolic CTLK over the dining ring (n={n})",
        [(n, metrics["states"], metrics["peak_nodes"])],
        header=("cryptographers", "reachable", "peak nodes"),
    )


def test_bench_adversarial_order_with_sifting(benchmark, table_report):
    metrics = benchmark(lambda: _dining_ctlk(8, blocked=True, reorder=True))
    assert metrics["reorders"] >= 1
    baseline = _dining_ctlk(8, blocked=True, reorder=False)
    good = _dining_ctlk(8, blocked=False, reorder=False)
    # Sifting recovers most of the node budget the blocked order wastes.
    assert metrics["peak_nodes"] < baseline["peak_nodes"]
    table_report(
        "E13 dynamic reordering on the blocked dining order (n=8)",
        [
            ("blocked, no reorder", baseline["peak_nodes"], baseline["reorders"]),
            ("blocked, sifting", metrics["peak_nodes"], metrics["reorders"]),
            ("ring order (reference)", good["peak_nodes"], good["reorders"]),
        ],
        header=("configuration", "peak nodes", "reorders"),
    )


def test_bench_adversarial_order_without_sifting(benchmark):
    metrics = benchmark(lambda: _dining_ctlk(8, blocked=True, reorder=False))
    assert metrics["reorders"] == 0
