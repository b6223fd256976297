"""Budgets, partial results, resume, and the mitigation ladder.

Covers the :mod:`repro.resilience` governance layer end-to-end: budget
semantics (deadline, node ceiling, iteration ceiling, cancellation,
ambient nesting, environment arming), the ``BudgetExceededError`` taxonomy
(structured diagnostics plus a resumable :class:`PartialProgress`), the
kill/resume round trips of every governed loop, and the node-pressure
mitigation ladder up to the symbolic→explicit fallback.
"""

import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro import obs, resilience
from repro.engine import get_default_backend, use_backend
from repro.interpretation import (
    construct_by_rounds,
    enumerate_implementations,
    iterate_interpretation,
)
from repro.obs.sinks import RecordingSink
from repro.protocols import bit_transmission as bt
from repro.protocols import muddy_children as mc
from repro.protocols import variable_setting as vs
from repro.resilience import Budget, CancellationToken, PartialProgress, activate
from repro.util.errors import (
    BudgetExceededError,
    EngineError,
    InterpretationError,
    IterationLimitError,
    ReproError,
)


@pytest.fixture(autouse=True)
def _no_leaked_budget():
    # A process-wide ambient budget (REPRO_BUDGET_* in the environment, as
    # in the budget-armed CI leg) is legitimate; only budgets a test pushed
    # on top of the baseline count as leaks.
    baseline = resilience.current_budget()
    yield
    assert resilience.current_budget() is baseline, "a test leaked an installed budget"


def _record_events():
    sink = RecordingSink(kinds=("event",))
    obs.add_sink(sink)
    return sink


# -- the error taxonomy ------------------------------------------------------------------


def test_budget_exceeded_error_shape():
    error = BudgetExceededError(
        "boom", reason="nodes", site="construct.round", diagnostics={"x": 1}
    )
    assert isinstance(error, ReproError)
    assert error.reason == "nodes"
    assert error.site == "construct.round"
    assert error.diagnostics == {"x": 1}
    assert error.partial is None
    error.attach_partial("p1")
    error.attach_partial("p2")  # first attachment wins
    assert error.partial == "p1"


def test_iteration_limit_error_is_interpretation_error():
    # Loop-limit failures were InterpretationError before the taxonomy was
    # unified; existing `except InterpretationError` handlers must keep
    # working.
    error = IterationLimitError("limit", reason="iterations", site="fixpoint.iter")
    assert isinstance(error, InterpretationError)
    assert isinstance(error, BudgetExceededError)


def test_budget_parameter_validation():
    with pytest.raises(EngineError):
        Budget(wall_seconds=0)
    with pytest.raises(EngineError):
        Budget(node_limit=0)
    with pytest.raises(EngineError):
        Budget(max_iterations=0)
    with pytest.raises(EngineError):
        Budget(node_slack=0.5)


# -- installation and the ambient stack --------------------------------------------------


def test_ambient_stack_nesting_and_active_flag():
    # Under the budget-armed CI leg a process-wide env budget is already on
    # the stack; nesting must restore exactly that baseline.
    baseline = resilience.current_budget()
    assert resilience.ACTIVE == (baseline is not None)
    outer = Budget(max_iterations=10)
    inner = Budget(max_iterations=5)
    with outer:
        assert resilience.ACTIVE
        assert resilience.current_budget() is outer
        with inner:
            assert resilience.current_budget() is inner
        assert resilience.current_budget() is outer
    assert resilience.current_budget() is baseline
    assert resilience.ACTIVE == (baseline is not None)


def test_activate_prefers_explicit_over_ambient():
    ambient = Budget(max_iterations=10)
    explicit = Budget(max_iterations=5)
    with ambient:
        with activate(None) as bud:
            assert bud is ambient
        with activate(explicit) as bud:
            assert bud is explicit
            assert resilience.current_budget() is explicit
        assert resilience.current_budget() is ambient
    with activate(None) as bud:
        assert bud is resilience.current_budget()  # env baseline or None


def test_deadline_spans_budget_lifetime():
    # The clock starts at the first install and re-entering never resets it.
    budget = Budget(wall_seconds=1000.0)
    with budget:
        first = budget.deadline
    time.sleep(0.01)
    with budget:
        assert budget.deadline == first


def test_environment_budget_arms_process():
    code = textwrap.dedent(
        """
        import repro
        from repro import resilience
        bud = resilience.current_budget()
        assert bud is not None and resilience.ACTIVE
        print(bud.max_iterations, bud.node_limit)
        """
    )
    env = dict(os.environ, REPRO_BUDGET_ITERATIONS="7", REPRO_BUDGET_NODES="123")
    env["PYTHONPATH"] = "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["7", "123"]


# -- tick semantics ----------------------------------------------------------------------


def test_tick_cancellation():
    token = CancellationToken()
    budget = Budget(token=token)
    with budget:
        budget.tick("fixpoint.iter")  # not cancelled yet: no raise
        token.cancel()
        with pytest.raises(BudgetExceededError) as caught:
            budget.tick("fixpoint.iter", partial="progress")
    assert caught.value.reason == "cancelled"
    assert caught.value.partial == "progress"


def test_tick_deadline():
    budget = Budget(wall_seconds=0.005)
    with budget:
        time.sleep(0.02)
        with pytest.raises(BudgetExceededError) as caught:
            budget.tick("construct.round")
    assert caught.value.reason == "deadline"
    assert caught.value.site == "construct.round"
    assert caught.value.diagnostics["wall_seconds"] == 0.005


def test_tick_iterations_and_lazy_partial():
    budget = Budget(max_iterations=3)
    with budget:
        budget.tick("fixpoint.iter", iterations=2)
        with pytest.raises(BudgetExceededError) as caught:
            budget.tick("fixpoint.iter", iterations=3, partial=lambda: ["thunked"])
    assert caught.value.reason == "iterations"
    assert caught.value.partial == ["thunked"]  # thunks resolve at raise time
    assert caught.value.diagnostics["iterations"] == 3


def test_kernel_node_ceiling_raises_mid_operation():
    from repro.symbolic.bdd import BDD

    budget = Budget(node_limit=8, node_slack=1.0, check_interval=1, mitigate=False)
    with budget:
        bdd = BDD(16)  # registered after install: armed via the hook
        assert bdd._budget is budget
        with pytest.raises(BudgetExceededError) as caught:
            node = bdd.var(0)
            for var in range(1, 16):
                node = bdd.or_(node, bdd.var(var))
    assert caught.value.reason == "nodes"
    assert caught.value.site == "bdd.unique_growth"
    assert caught.value.diagnostics["live_nodes"] > 8
    # The raise left the manager fully consistent.
    from repro.resilience.faults import check_kernel_invariants

    check_kernel_invariants(bdd)


# -- partial + resume round trips: every governed loop -----------------------------------


def test_symbolic_construct_kill_and_resume_reaches_same_fixed_point():
    model = mc.symbolic_model(6)
    program = mc.program(6).check_against_context(model)
    budget = Budget(max_iterations=2)
    with pytest.raises(BudgetExceededError) as caught:
        construct_by_rounds(program, model, budget=budget)
    partial = caught.value.partial
    assert isinstance(partial, PartialProgress)
    assert partial.kind == "construct_by_rounds_symbolic"
    assert partial.rounds == 2

    resumed = construct_by_rounds(program, model, resume=partial)
    fresh = construct_by_rounds(program, model)
    assert resumed.verified and fresh.verified
    assert resumed.iterations == fresh.iterations
    assert resumed.system.state_count() == fresh.system.state_count()
    # Same manager, canonical nodes: identical reachable-set node id.
    assert resumed.system.states_node == fresh.system.states_node


def test_explicit_construct_kill_and_resume():
    context = mc.context(4)
    program = mc.program(4).check_against_context(context)
    budget = Budget(max_iterations=2)
    with pytest.raises(BudgetExceededError) as caught:
        construct_by_rounds(program, context, budget=budget)
    partial = caught.value.partial
    assert partial.kind == "construct_by_rounds"
    assert partial.rounds == 2
    resumed = construct_by_rounds(program, context, resume=partial)
    fresh = construct_by_rounds(program, context)
    assert resumed.verified and fresh.verified
    assert resumed.iterations == fresh.iterations
    assert set(resumed.system.states) == set(fresh.system.states)


@pytest.mark.parametrize("cap", [20, 40])
def test_explicit_construct_max_states_mid_round_resumes_to_fresh_result(cap):
    # The cap trips in the middle of a round; the partial must be the last
    # completed round, not a half-applied one, so resuming it without the
    # cap reaches the fresh result.
    context = mc.context(4)
    program = mc.program(4).check_against_context(context)
    with pytest.raises(IterationLimitError) as caught:
        construct_by_rounds(program, context, max_states=cap)
    assert caught.value.reason == "states"
    partial = caught.value.partial
    assert partial.kind == "construct_by_rounds"
    resumed = construct_by_rounds(program, context, resume=partial)
    fresh = construct_by_rounds(program, context)
    assert len(fresh.system.states) == 90 and fresh.verified
    assert len(resumed.system.states) == 90 and resumed.verified
    assert resumed.iterations == fresh.iterations
    assert set(resumed.system.states) == set(fresh.system.states)


class _CancelAt:
    """An obs sink cancelling ``token`` when the event ``name`` carries
    ``key == value``: the next safe point after that event raises."""

    def __init__(self, token, name, key, value):
        self.token = token
        self.match = (name, key, value)

    def emit(self, record):
        name, key, value = self.match
        if record["name"] == name and record["attrs"].get(key) == value:
            self.token.cancel()


def _reachable(system):
    node = getattr(system, "states_node", None)
    return node if node is not None else frozenset(system.states)


_INNER_SAFE_POINT_CASES = {
    "construct-explicit": (
        construct_by_rounds, lambda: mc.context(4), lambda: mc.program(4),
        ("construct.round", "round", 2),
    ),
    "construct-symbolic": (
        construct_by_rounds, lambda: mc.symbolic_model(4), lambda: mc.program(4),
        ("construct.round", "round", 2),
    ),
    "iterate-explicit": (
        iterate_interpretation, vs.context, vs.PROGRAM_FAMILY["cyclic"][0],
        ("fixpoint.iter", "iteration", 2),
    ),
    "iterate-symbolic": (
        iterate_interpretation, vs.symbolic_model, vs.PROGRAM_FAMILY["cyclic"][0],
        ("fixpoint.iter", "iteration", 2),
    ),
}


@pytest.mark.parametrize("case", sorted(_INNER_SAFE_POINT_CASES))
def test_inner_safe_point_raise_carries_resumable_partial(case):
    # A cancellation noticed inside a round/iteration (at an evaluator
    # batch, not at the loop boundary) must still hand back the last
    # completed round/iteration, and resuming it must reach the fresh result.
    loop, make_context, make_program, event = _INNER_SAFE_POINT_CASES[case]
    context = make_context()
    program = make_program().check_against_context(context)
    token = CancellationToken()
    sink = obs.add_sink(_CancelAt(token, *event))
    try:
        with pytest.raises(BudgetExceededError) as caught:
            loop(program, context, budget=Budget(token=token))
    finally:
        obs.remove_sink(sink)
    assert caught.value.reason == "cancelled"
    assert caught.value.site == "evaluator.batch"
    partial = caught.value.partial
    assert isinstance(partial, PartialProgress)
    resumed = loop(program, context, resume=partial)
    fresh = loop(program, context)
    assert resumed.converged == fresh.converged
    assert resumed.verified == fresh.verified
    assert resumed.iterations == fresh.iterations
    assert resumed.cycle_length == fresh.cycle_length
    assert _reachable(resumed.system) == _reachable(fresh.system)


def test_explicit_iterate_kill_and_resume():
    context = vs.context()
    program = vs.PROGRAM_FAMILY["cyclic"][0]()
    budget = Budget(max_iterations=1)
    with pytest.raises(BudgetExceededError) as caught:
        iterate_interpretation(program, context, budget=budget)
    partial = caught.value.partial
    assert partial.kind == "iterate_interpretation"
    resumed = iterate_interpretation(program, context, resume=partial)
    fresh = iterate_interpretation(program, context)
    assert resumed.converged == fresh.converged
    assert resumed.iterations == fresh.iterations  # iteration counts are absolute
    assert set(resumed.system.states) == set(fresh.system.states)


def test_symbolic_iterate_kill_and_resume():
    model = vs.symbolic_model()
    program = vs.PROGRAM_FAMILY["cyclic"][0]()
    budget = Budget(max_iterations=1)
    with pytest.raises(BudgetExceededError) as caught:
        iterate_interpretation(program, model, budget=budget)
    partial = caught.value.partial
    assert partial.kind == "iterate_interpretation_symbolic"
    resumed = iterate_interpretation(program, model, resume=partial)
    fresh = iterate_interpretation(program, model)
    assert resumed.converged == fresh.converged
    assert resumed.system.state_count() == fresh.system.state_count()


def test_resume_rejects_foreign_partial():
    model = vs.symbolic_model()
    program = vs.PROGRAM_FAMILY["cyclic"][0]()
    with pytest.raises(InterpretationError):
        iterate_interpretation(
            program, model, resume=PartialProgress("construct_by_rounds", rounds=1)
        )


def test_loop_limit_raises_carry_partials():
    context = vs.context()
    program = vs.PROGRAM_FAMILY["cyclic"][0]()
    # The variable-setting cyclic program oscillates; forbidding enough
    # iterations to detect the cycle turns the old bare InterpretationError
    # into an IterationLimitError with the last iterate attached.
    with pytest.raises(IterationLimitError) as caught:
        iterate_interpretation(program, context, max_iterations=1)
    assert caught.value.reason == "iterations"
    assert caught.value.partial.kind == "iterate_interpretation"
    with pytest.raises(InterpretationError):  # compat: old handlers still work
        iterate_interpretation(program, context, max_iterations=1)


def test_synthesis_search_budget_tick():
    token = CancellationToken()
    token.cancel()
    with pytest.raises(BudgetExceededError) as caught:
        enumerate_implementations(
            vs.PROGRAM_FAMILY["cyclic"][0](), vs.context(), budget=Budget(token=token)
        )
    assert caught.value.reason == "cancelled"
    assert caught.value.partial.kind == "synthesis.search"


@pytest.mark.parametrize("symbolic", [False, True], ids=["explicit", "symbolic"])
def test_synthesis_universe_built_under_the_callers_budget(monkeypatch, symbolic):
    from repro.interpretation.explicit import ExplicitSynthesisOps
    from repro.interpretation.symbolic import SymbolicSynthesisOps

    ops_class = SymbolicSynthesisOps if symbolic else ExplicitSynthesisOps
    represent = ops_class.represent
    installed = []

    def spy(self, protocol):
        installed.append(resilience.current_budget())
        return represent(self, protocol)

    monkeypatch.setattr(ops_class, "represent", spy)
    budget = Budget(wall_seconds=60)
    context = vs.symbolic_model() if symbolic else vs.context()
    enumerate_implementations(vs.PROGRAM_FAMILY["cyclic"][0](), context, budget=budget)
    # The first represent call builds the liberal-reachable universe.
    assert installed and installed[0] is budget


def test_ctlk_symbolic_cancellation():
    from repro.temporal import EF
    from repro.temporal.ctlk import CTLKModelChecker

    model = mc.symbolic_model(5)
    program = mc.program(5).check_against_context(model)
    system = construct_by_rounds(program, model).system
    checker = CTLKModelChecker(system)
    token = CancellationToken()
    token.cancel()
    with Budget(token=token):
        with pytest.raises(BudgetExceededError):
            checker.valid(EF(mc.said_prop(0)))


# -- the mitigation ladder ---------------------------------------------------------------


def _bt_under_absurd_node_ceiling(**budget_options):
    model = bt.symbolic_model()
    program = bt.program().check_against_context(model)
    budget = Budget(node_limit=4, node_slack=1.0, check_interval=1, **budget_options)
    return construct_by_rounds(program, model, budget=budget)


def _ladder_steps(sink):
    return [
        record["attrs"]["step"]
        for record in sink.records
        if record["name"] == "resilience.mitigate"
    ]


def test_mitigation_ladder_reorder_then_fallback():
    # The ceiling is absurd for any BDD, but the universe is enumerable:
    # the ladder ends in the explicit backend and the construction succeeds.
    # Under the "bdd" world-set backend the explicit evaluator builds BDD
    # managers of its own, which the abandoned node ceiling must not govern.
    for backend in (get_default_backend().name, "bdd"):
        sink = _record_events()
        try:
            with use_backend(backend):
                result = _bt_under_absurd_node_ceiling()
        finally:
            obs.remove_sink(sink)
        assert result.verified
        assert type(result.system).__name__ == "InterpretedSystem"
        steps = _ladder_steps(sink)
        assert "reorder" in steps
        assert steps[-1] == "fallback"


def test_fallback_keeps_the_iteration_ceiling():
    sink = _record_events()
    try:
        with pytest.raises(BudgetExceededError) as caught:
            _bt_under_absurd_node_ceiling(max_iterations=1)
    finally:
        obs.remove_sink(sink)
    assert caught.value.reason == "iterations"
    # The raise comes from the explicit re-run, after the fallback rung.
    assert caught.value.partial.kind == "construct_by_rounds"
    assert _ladder_steps(sink)[-1] == "fallback"


def test_mitigation_disabled_raises_immediately():
    model = bt.symbolic_model()
    program = bt.program().check_against_context(model)
    budget = Budget(node_limit=4, node_slack=1.0, check_interval=1, mitigate=False)
    with pytest.raises(BudgetExceededError) as caught:
        construct_by_rounds(program, model, budget=budget)
    assert caught.value.reason == "nodes"


def test_fallback_respects_max_states():
    # An enumerable universe that the caller's max_states forbids: the raise
    # must propagate instead of degrading.
    model = bt.symbolic_model()
    program = bt.program().check_against_context(model)
    budget = Budget(node_limit=4, node_slack=1.0, check_interval=1)
    with pytest.raises(BudgetExceededError):
        construct_by_rounds(program, model, budget=budget, max_states=1)


def test_rooted_reorder_declares_encoding_groups():
    model = mc.spec(4).symbolic_model(reorder=False)  # reordering off: no groups yet
    bdd = model.encoding.bdd
    assert bdd.variable_groups() is None
    resilience.rooted_reorder(
        bdd, model.reorder_roots(), model.encoding.reorder_groups()
    )
    groups = bdd.variable_groups()
    assert groups is not None
    # The current/primed pairs stayed adjacent units.
    assert all(len(group) == 2 for group in groups if len(group) > 1)
    # The model still constructs correctly after the mitigation reorder.
    program = mc.program(4).check_against_context(model)
    assert construct_by_rounds(program, model).verified


# -- acceptance: muddy children n=20 -----------------------------------------------------


def test_muddy_n20_node_ceiling_kill_then_resume_to_identical_fixed_point():
    model = mc.symbolic_model(20)
    program = mc.program(20).check_against_context(model)
    budget = Budget(
        node_limit=50_000, node_slack=1.0, check_interval=256, mitigate=False
    )
    with pytest.raises(BudgetExceededError) as caught:
        construct_by_rounds(program, model, budget=budget)
    error = caught.value
    assert error.reason == "nodes"
    assert error.diagnostics["live_nodes"] > 50_000
    partial = error.partial
    assert partial.kind == "construct_by_rounds_symbolic"
    assert partial.rounds >= 1  # completed rounds survive the kill

    resumed = construct_by_rounds(program, model, resume=partial)
    fresh = construct_by_rounds(program, model)
    assert resumed.verified and fresh.verified
    assert resumed.iterations == fresh.iterations == 22
    assert resumed.system.states_node == fresh.system.states_node
    assert resumed.system.state_count() == fresh.system.state_count()


# -- satellite: JsonlSink atexit flush ---------------------------------------------------


def test_jsonl_sink_flushes_at_interpreter_exit(tmp_path):
    trace = tmp_path / "trace.jsonl"
    code = textwrap.dedent(
        f"""
        from repro import obs
        from repro.obs.sinks import JsonlSink
        sink = JsonlSink({str(trace)!r})
        obs.add_sink(sink)
        obs.event("test.exit", value=1)
        # No close(), no remove_sink: atexit must flush and close the file.
        """
    )
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert result.returncode == 0, result.stderr
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert any(record["name"] == "test.exit" for record in lines)


# -- satellite: per-spec fuzz deadlines --------------------------------------------------


def test_fuzz_spec_deadline_counts_timeouts():
    from repro.spec.fuzz import run_fuzz

    # A deadline no check can meet: every spec times out, none raises out.
    summary = run_fuzz(count=3, seed=0, spec_deadline=1e-6)
    assert summary["timed_out"] == 3
    assert summary["checked"] == 3

    # A generous deadline changes nothing about the outcome counts.
    governed = run_fuzz(count=5, seed=1, spec_deadline=120.0)
    free = run_fuzz(count=5, seed=1)
    assert governed["timed_out"] == 0
    for key in ("converged", "failed_cleanly", "states_total"):
        assert governed[key] == free[key]


def test_fuzz_partial_round_trips_on_seeded_specs():
    import random

    from repro.spec.fuzz import random_spec

    rng = random.Random(7)
    exercised = 0
    for index in range(12):
        spec = random_spec(rng, name=f"resume-{index}")
        model = spec.symbolic_model()
        try:
            program = spec.program().check_against_context(model)
            fresh = construct_by_rounds(program, model)
        except Exception:
            continue  # non-constructible spec: nothing to resume
        if fresh.iterations < 2:
            continue
        with pytest.raises(BudgetExceededError) as caught:
            construct_by_rounds(program, model, budget=Budget(max_iterations=1))
        resumed = construct_by_rounds(program, model, resume=caught.value.partial)
        assert resumed.verified == fresh.verified
        assert resumed.iterations == fresh.iterations
        assert resumed.system.states_node == fresh.system.states_node
        exercised += 1
    assert exercised >= 3  # the seed must actually exercise the round trip
