"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one experiment of EXPERIMENTS.md (the
paper's worked examples, plus scaling studies of the algorithms the paper
leaves implicit).  Every module both *measures* (via pytest-benchmark) and
*checks* the qualitative shape the paper reports, so a benchmark run doubles
as a reproduction run.
"""

import pytest

from repro.engine import available_backends, use_backend


@pytest.fixture(params=available_backends())
def engine_backend(request):
    """Run the benchmark once per registered world-set backend.

    The parameter list is taken from the live registry, so a newly
    registered backend is measured automatically.  The fixture switches the
    process-default backend for the duration of the test, so every
    structure/evaluator the workload creates routes through the
    parametrised backend; it also returns the backend name for workloads
    that construct evaluators explicitly.  Benchmark ids gain a
    ``[bitset]``/``[bdd]`` suffix, which makes the relative speed of the
    engines visible directly in CI output.
    """
    with use_backend(request.param):
        yield request.param


def report(title, rows, header=None):
    """Print a small aligned table into the captured benchmark output."""
    lines = [f"\n== {title} =="]
    if header:
        lines.append(" | ".join(str(cell) for cell in header))
    for row in rows:
        lines.append(" | ".join(str(cell) for cell in row))
    print("\n".join(lines))


@pytest.fixture(scope="session")
def table_report():
    return report
