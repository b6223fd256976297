"""E10 — Batched multi-guard evaluation.

The inner loop of knowledge-based-program interpretation evaluates many
modal guards against the same agent relations.  This workload measures the
scalar path (one engine pass per guard through a shared evaluator) against
the batched path (``Evaluator.extensions``: epistemic operands grouped per
operator and agent and dispatched through the backend ``*_many`` calls) on
guard suites shaped like program clause guards, over observability
structures of 256 and 1024 worlds.

On the bdd backend the batched path resolves each relation once and runs
the whole batch against the kernel's shared operation caches; on bitset the
generic scalar-loop fallback makes both paths equivalent (measured here to
confirm the batch API adds no overhead).
"""

import pytest

from repro.engine import Evaluator, backend_by_name
from repro.logic.formula import And, Knows, Not, Or, Possible, Prop

from bench_e7_model_checking import grid_structure


def guard_suite(bits):
    """A guard-heavy suite: four modal guards per bit (``4 * bits`` total),
    all against the two agents' observability relations."""
    guards = []
    for i in range(bits):
        p = Prop(f"b{i}")
        q = Prop(f"b{(i + 1) % bits}")
        guards.append(Knows("a", p))
        guards.append(Knows("a", Or((p, q))))
        guards.append(Possible("b", And((p, Not(q)))))
        guards.append(Knows("b", Not(p)))
    return guards


@pytest.mark.parametrize("bits", [8, 10])
def test_bench_guard_eval_scalar(benchmark, table_report, engine_backend, bits):
    structure = grid_structure(bits)
    guards = guard_suite(bits)
    backend = backend_by_name(engine_backend)

    # A fresh evaluator per round (the persistent one would answer from its
    # cache after the first round); subformulas shared between guards are
    # still only computed once, as in the interpretation loops.
    def scalar():
        evaluator = Evaluator(structure, backend)
        return [evaluator.extension(guard) for guard in guards]

    result = benchmark(scalar)
    assert len(result) == len(guards)
    table_report(
        f"E10 scalar guard evaluation ({2**bits} worlds, {engine_backend})",
        [(2**bits, len(guards))],
        header=("worlds", "guards"),
    )


@pytest.mark.parametrize("bits", [8, 10])
def test_bench_guard_eval_batched(benchmark, table_report, engine_backend, bits):
    structure = grid_structure(bits)
    guards = guard_suite(bits)
    backend = backend_by_name(engine_backend)

    def batched():
        return Evaluator(structure, backend).extensions(guards)

    result = benchmark(batched)
    # The batched path must agree with the scalar path exactly.
    evaluator = Evaluator(structure, backend)
    assert result == [evaluator.extension(guard) for guard in guards]
    table_report(
        f"E10 batched guard evaluation ({2**bits} worlds, {engine_backend})",
        [(2**bits, len(guards))],
        header=("worlds", "guards"),
    )
