"""Spec-level fuzzing: random well-formed :class:`ProtocolSpec`\\ s,
differential-tested across every lowering.

The generator (:func:`random_spec`) builds specs directly in the IR —
variables with mixed domains, a random observation structure, a write-set
partition that keeps agents' and the environment's effects disjoint (so the
validator's overlap check passes by construction), in-domain effects, a
witness-based satisfiable initial condition and knowledge guards local to
each agent's observables.  Guards are canonicalised through
``Expression.to_formula`` so the textual round trip is stable.

The checker (:func:`differential_check`) then pits the two lowerings
against each other on the *same* spec: initial sets, guard tables,
``derive_protocol`` and the round-by-round construction must agree between
the explicit ``variable_context`` path and the BDD-backed
``symbolic_model`` path — including which exception type they raise when
the construction legitimately fails — and the spec must survive
``to_kbp`` → ``parse_spec`` → ``equivalent``.  The definitional oracle
(:mod:`repro.oracle`) casts a third, engine-independent vote on the guard
values over the initial states, on the reachable set of the constructed
protocol and on whether that protocol implements the program.

``python -m repro.spec --fuzz N --seed S`` drives this from the command
line; ``tests/test_spec_fuzz.py`` pins a seeded run in tier-1.
"""

import random

from repro import obs as _obs
from repro import oracle
from repro import resilience as _res
from repro.logic.formula import Knows, Not
from repro.util.errors import BudgetExceededError, IterationLimitError
from repro.modeling.expressions import Comparison, Const, Ite, VarRef
from repro.modeling.state_space import Assignment
from repro.modeling.variables import boolean, ranged
from repro.programs import Clause
from repro.spec.ir import DEFAULT_PROGRAM, AgentClauses, ProtocolSpec
from repro.systems.actions import NOOP_NAME

__all__ = ["differential_check", "random_spec", "run_fuzz"]


# -- generation --------------------------------------------------------------------------


def _random_variables(rng):
    count = rng.randint(2, 4)
    variables = []
    for index in range(count):
        name = f"v{index}"
        if rng.random() < 0.5:
            variables.append(boolean(name))
        else:
            variables.append(ranged(name, 0, rng.randint(1, 3)))
    return variables


def _random_value(rng, variable):
    if variable.is_boolean:
        return rng.random() < 0.5
    return rng.choice(list(variable.domain))


def _random_condition(rng, variables):
    """A boolean expression over ``variables`` (guaranteed non-empty)."""
    conjuncts = []
    for variable in variables:
        if len(conjuncts) >= 2:
            break
        if rng.random() < 0.6:
            continue
        if variable.is_boolean and rng.random() < 0.5:
            atom = VarRef(variable)
        else:
            atom = Comparison("==", VarRef(variable), Const(_random_value(rng, variable)))
        if rng.random() < 0.3:
            atom = ~atom
        conjuncts.append(atom)
    if not conjuncts:
        variable = rng.choice(variables)
        return Comparison("==", VarRef(variable), Const(_random_value(rng, variable)))
    condition = conjuncts[0]
    for conjunct in conjuncts[1:]:
        condition = condition & conjunct if rng.random() < 0.5 else condition | conjunct
    return condition


def _random_effect(rng, target, readable):
    """An in-domain update expression for ``target`` reading ``readable``."""
    roll = rng.random()
    if roll < 0.4:
        return Const(_random_value(rng, target))
    if roll < 0.6:
        # A same-domain copy (possibly of the target itself: a frame axiom).
        # Same *type* too: True == 1 in Python, so a naive domain comparison
        # would conflate bool with 0..1 — the validator rejects such copies.
        peers = [
            v
            for v in readable
            if v.is_boolean == target.is_boolean
            and tuple(v.domain) == tuple(target.domain)
        ]
        return VarRef(rng.choice(peers)) if peers else Const(_random_value(rng, target))
    return Ite(
        _random_condition(rng, readable),
        Const(_random_value(rng, target)),
        VarRef(target),
    )


def random_spec(rng, name=None):
    """Generate a random well-formed :class:`ProtocolSpec`.

    ``rng`` is a :class:`random.Random`; equal seeds give equal specs.  The
    spec always validates, its state space stays small enough to enumerate
    (at most ``4^4`` states), and its initial condition is satisfiable by
    construction (a witness state is drawn first and the condition only
    pins variables to the witness's values).
    """
    variables = _random_variables(rng)
    agent_count = rng.randint(1, 3)
    agents = [f"a{i}" for i in range(agent_count)]

    observables = {}
    for agent in agents:
        observed = [v.name for v in variables if rng.random() < 0.6]
        if not observed:
            observed = [rng.choice(variables).name]
        observables[agent] = observed

    # Partition write access: every variable gets at most one writer, so
    # effects can never overlap between parties.
    owners = {}
    for variable in variables:
        owner = rng.choice(agents + ["env", None])
        if owner is not None:
            owners.setdefault(owner, []).append(variable)

    actions = {agent: {} for agent in agents}
    for agent in agents:
        owned = owners.get(agent, [])
        if not owned:
            continue
        for index in range(rng.randint(1, 2)):
            written = [v for v in owned if rng.random() < 0.8] or [rng.choice(owned)]
            updates = {v.name: _random_effect(rng, v, variables) for v in written}
            actions[agent][f"act{index}"] = Assignment(updates)

    env_effects = {}
    env_owned = owners.get("env", [])
    if env_owned:
        for index in range(rng.randint(1, 2)):
            written = [v for v in env_owned if rng.random() < 0.8] or [rng.choice(env_owned)]
            updates = {v.name: _random_effect(rng, v, variables) for v in written}
            env_effects[f"env{index}"] = Assignment(updates)

    witness = {v.name: _random_value(rng, v) for v in variables}
    initial = Const(True)
    pinned = [v for v in variables if rng.random() < 0.7]
    for variable in pinned:
        conjunct = Comparison("==", VarRef(variable), Const(witness[variable.name]))
        initial = conjunct if initial.equals(Const(True)) else initial & conjunct

    clauses = {}
    for agent in agents:
        available = sorted(actions[agent]) + [NOOP_NAME]
        agent_clauses = []
        for _ in range(rng.randint(1, 2)):
            observed = [v for v in variables if v.name in observables[agent]]
            # Mostly guards local to the agent's observables (constructions
            # converge); occasionally a guard over everything, which may be
            # non-local — both paths must then fail identically.
            basis = variables if rng.random() < 0.15 else observed
            guard = _random_condition(rng, basis).to_formula()
            if rng.random() < 0.6:
                guard = Knows(agent, guard)
                if rng.random() < 0.3:
                    guard = Not(guard)
            agent_clauses.append(Clause(guard, rng.choice(available)))
        fallback = rng.choice(available)
        clauses[agent] = AgentClauses(agent_clauses, fallback=fallback)

    spec = ProtocolSpec(
        name=name or "fuzzed-protocol",
        variables=variables,
        observables=observables,
        actions=actions,
        initial=initial,
        env_effects=env_effects,
        programs={DEFAULT_PROGRAM: clauses},
        source="<fuzz>",
    )
    return spec.validate()


# -- differential checking ---------------------------------------------------------------


def _construct(program, context_or_model):
    from repro.interpretation import construct_by_rounds

    try:
        checked = program.check_against_context(context_or_model)
        return construct_by_rounds(checked, context_or_model), None
    except IterationLimitError as error:
        # A loop-limit failure is a legitimate, deterministic outcome both
        # lowerings must agree on — and it now carries the partial progress.
        return None, type(error).__name__
    except BudgetExceededError:
        # A deadline/cancellation raise is *not* a property of the spec
        # (wall time is nondeterministic); let the fuzz driver count it.
        raise
    except Exception as error:  # the construction may legitimately fail
        return None, type(error).__name__


def differential_check(spec):
    """Differential-test one spec across its lowerings.

    Raises :class:`AssertionError` on the first divergence; returns a small
    stats dict (``states``, ``outcome``) when every comparison agrees.
    """
    from repro.interpretation import StateSetView, derive_protocol
    from repro.interpretation.functional import guard_table
    from repro.spec.parser import parse_spec

    context = spec.variable_context()
    model = spec.symbolic_model()
    program = spec.program()

    # Textual round trip.
    reparsed = parse_spec(spec.to_kbp(), source="<roundtrip>")
    assert spec.equivalent(reparsed), "to_kbp -> parse_spec changed the spec"

    # Initial sets.
    explicit_initial = set(context.initial_states)
    symbolic_initial = set(model.encoding.iter_states(model.initial))
    assert symbolic_initial == explicit_initial, "initial sets diverge"
    assert explicit_initial, "generated initial condition is unsatisfiable"

    # Guard tables over the initial states.
    states = sorted(explicit_initial, key=repr)
    explicit_view = StateSetView(context, states)
    symbolic_view = model.view(
        model.view(model.initial).structure.encoding.worlds_node(states)
    )
    explicit_table = guard_table(explicit_view, program)
    symbolic_table = guard_table(symbolic_view, program)
    for agent_program in program:
        agent = agent_program.agent
        for local_state in explicit_view.local_states(agent):
            for clause in agent_program.clauses:
                explicit_value = explicit_table.value(agent, local_state, clause.guard)
                symbolic_value = symbolic_table.value(agent, local_state, clause.guard)
                oracle_value = oracle.guard_value(
                    context, states, agent, local_state, clause.guard
                )
                assert symbolic_value == explicit_value == oracle_value, (
                    f"guard tables diverge for {agent} at {local_state}: "
                    f"symbolic {symbolic_value}, explicit {explicit_value}, "
                    f"oracle {oracle_value}"
                )

    # Protocol derivation over the initial view.
    explicit_derived = derive_protocol(program, explicit_view, require_local=False)
    symbolic_derived = derive_protocol(program, symbolic_view, require_local=False)
    for agent in context.agents:
        for local_state in context.local_states_of(agent, states):
            assert symbolic_derived.actions(agent, local_state) == explicit_derived.actions(
                agent, local_state
            ), f"derived protocols diverge for {agent} at {local_state}"

    # Round-by-round construction, including agreeing failures.
    explicit_result, explicit_outcome = _construct(program, context)
    symbolic_result, symbolic_outcome = _construct(program, model)
    assert symbolic_outcome == explicit_outcome, (
        f"construction outcomes diverge: {symbolic_outcome} != {explicit_outcome}"
    )
    if explicit_result is None:
        return {"states": None, "outcome": explicit_outcome}
    assert symbolic_result.iterations == explicit_result.iterations
    assert symbolic_result.verified == explicit_result.verified
    explicit_states = set(explicit_result.system.states)
    assert set(symbolic_result.system.iter_states()) == explicit_states, (
        "reachable sets diverge"
    )
    protocol = explicit_result.protocol.actions
    assert oracle.reachable(context, protocol) == explicit_states, (
        "the oracle's reachable set diverges"
    )
    assert oracle.implements(context, program, protocol) == explicit_result.verified, (
        "the oracle's implementation verdict diverges"
    )
    for agent in context.agents:
        for local_state in context.local_states_of(agent, explicit_states):
            assert symbolic_result.protocol.actions(
                agent, local_state
            ) == explicit_result.protocol.actions(agent, local_state), (
                f"implementations diverge for {agent} at {local_state}"
            )
    return {"states": len(explicit_states), "outcome": "converged"}


def _percentile(sorted_values, fraction):
    """Nearest-rank percentile of an ascending non-empty list."""
    rank = max(0, min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


def run_fuzz(count=50, seed=0, timings=False, spec_deadline=None):
    """Generate and differential-check ``count`` random specs.

    Returns a summary dict (``checked``, ``converged``, ``failed_cleanly``,
    ``timed_out``, ``states_total``); raises on the first divergence, with
    the failing seed offset in the message.

    With ``timings=True`` each differential check runs inside an
    observability span (``spec.fuzz.check``) and the summary gains a
    ``timing`` block with the per-spec wall-clock percentiles
    (``p50``/``p90``/``p99``/``max``, seconds) read back from the recorded
    spans.

    ``spec_deadline`` (seconds) installs a fresh wall-clock
    :class:`repro.resilience.Budget` around *each* spec's differential
    check, so one pathological generated spec cannot stall the whole
    campaign: a spec whose check exceeds the deadline is counted under
    ``timed_out`` and the run moves on.
    """
    rng = random.Random(seed)
    converged = failed_cleanly = timed_out = states_total = 0
    recorder = None
    if timings:
        from repro.obs.sinks import RecordingSink

        recorder = RecordingSink(kinds=("span",))
        _obs.add_sink(recorder)
    try:
        for index in range(count):
            spec = random_spec(rng, name=f"fuzz-{seed}-{index}")
            try:
                with _obs.span("spec.fuzz.check", index=index):
                    if spec_deadline:
                        with _res.Budget(wall_seconds=spec_deadline):
                            stats = differential_check(spec)
                    else:
                        stats = differential_check(spec)
            except AssertionError as error:
                raise AssertionError(
                    f"differential check failed on spec {index} (seed {seed}): {error}\n"
                    f"{spec.to_kbp()}"
                ) from error
            except IterationLimitError:
                raise  # a divergence-relevant loop limit escaping _construct
            except BudgetExceededError:
                timed_out += 1
                continue
            if stats["outcome"] == "converged":
                converged += 1
                states_total += stats["states"]
            else:
                failed_cleanly += 1
    finally:
        if recorder is not None:
            _obs.remove_sink(recorder)
    summary = {
        "checked": count,
        "converged": converged,
        "failed_cleanly": failed_cleanly,
        "timed_out": timed_out,
        "states_total": states_total,
    }
    if recorder is not None:
        durations = sorted(
            record["dur"]
            for record in recorder.records
            if record["name"] == "spec.fuzz.check"
        )
        if durations:
            summary["timing"] = {
                "p50": _percentile(durations, 0.50),
                "p90": _percentile(durations, 0.90),
                "p99": _percentile(durations, 0.99),
                "max": durations[-1],
            }
    return summary
