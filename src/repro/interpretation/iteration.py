"""The two fixed-point loops of knowledge-based program interpretation.

An implementation is a fixed point ``P = Pg^{I_rep(P)}``; the paper's
definition says nothing about how states are represented, and neither do
the two algorithms here that look for one:

``construct_by_rounds``
    The depth-stratified construction: reachable states are built round by
    round and every guard at a depth-``d`` state is evaluated over the states
    of depth at most ``d`` constructed so far.  For programs that provide
    epistemic witnesses (in particular, for synchronous programs) the guard
    values computed this way agree with their values in the final system, so
    the construction yields the unique implementation.  The result is
    verified a posteriori with the fixed-point test of
    :func:`repro.interpretation.synthesis.check_implementation`; for programs
    without witnesses the verification may fail, which the returned
    :class:`IterationResult` records.

``iterate_interpretation``
    Repeatedly applies the functional ``P_{k+1} = Pg^{I_rep(P_k, gamma)}``
    from a seed protocol until a fixed point is found or a cycle of protocols
    recurs.  Because the functional is not monotone the iteration need not
    converge; the paper's variable-setting example oscillates with period 2,
    which the procedure detects and reports.

Each loop is written once and owns its governance — budget ticks, obs
events, limit errors, partial results and resume.  The
representation is an *ops* object: :mod:`repro.interpretation.explicit`
enumerates states, :mod:`repro.interpretation.symbolic` keeps every set a
BDD of a :class:`repro.symbolic.model.SymbolicContextModel`; the loops
pick one by the context's ``is_symbolic_model`` marker.

Construction ops commit a round only when it ends, so whatever raises in
the middle of a round — a budget safe point, the kernel's node ceiling,
``max_states`` — leaves the last completed round in place, and the partial
result handed back with the raise is exactly that round.
"""

from repro import obs as _obs
from repro import resilience as _res
from repro.interpretation.explicit import ExplicitConstructionOps, ExplicitIterationOps
from repro.interpretation.functional import liberal_protocol, restrictive_protocol
from repro.interpretation.symbolic import SymbolicConstructionOps, SymbolicIterationOps
from repro.systems.protocols import JointProtocol
from repro.util.errors import BudgetExceededError, InterpretationError, IterationLimitError


class IterationResult:
    """Outcome of an iterative interpretation.

    Attributes
    ----------
    converged:
        ``True`` when a fixed point (an implementation) was found.
    protocol:
        The final joint protocol (the implementation when ``converged``).
    system:
        The interpreted system generated by the final protocol.
    iterations:
        Number of functional applications performed.
    cycle_length:
        When the iteration entered a cycle instead of converging, the length
        of that cycle; ``None`` otherwise.
    history:
        The protocol signature of every iterate (for inspection and tests).
    verified:
        For :func:`construct_by_rounds`: whether the a-posteriori
        implementation check succeeded.
    """

    def __init__(
        self,
        converged,
        protocol,
        system,
        iterations,
        cycle_length=None,
        history=None,
        verified=None,
    ):
        self.converged = converged
        self.protocol = protocol
        self.system = system
        self.iterations = iterations
        self.cycle_length = cycle_length
        self.history = history or []
        self.verified = verified

    def __repr__(self):
        status = "converged" if self.converged else "did not converge"
        cycle = f", cycle={self.cycle_length}" if self.cycle_length else ""
        return f"IterationResult({status} after {self.iterations} iterations{cycle})"


# ---------------------------------------------------------------------------
# the loops
# ---------------------------------------------------------------------------


def _seed_protocol(program, context, seed):
    if isinstance(seed, JointProtocol):
        return seed
    if seed == "liberal":
        return liberal_protocol(program, context)
    if seed == "restrictive":
        return restrictive_protocol(program, context)
    raise InterpretationError(f"unknown seed {seed!r}")


def _check_resume(resume, kind):
    if getattr(resume, "kind", None) != kind:
        raise InterpretationError(
            f"cannot resume {kind} from a {getattr(resume, 'kind', None)!r} partial"
        )


def _validate_agents(program):
    for agent in program.agents:
        program.program(agent)  # validate agents exist in the program


def iterate_interpretation(
    program,
    context,
    seed="liberal",
    max_iterations=100,
    require_local=True,
    max_states=100000,
    budget=None,
    resume=None,
):
    """Iterate ``P_{k+1} = Pg^{I_rep(P_k)}`` until fixed point or cycle.

    Parameters
    ----------
    seed:
        ``"liberal"`` (default), ``"restrictive"`` or an explicit
        :class:`JointProtocol` to start from (over a symbolic model: one
        carrying its behaviour as ``selection_nodes``, as the seeds above
        and every protocol the symbolic path materialises do).
    max_iterations:
        Hard bound; exceeding it raises :class:`IterationLimitError` (an
        :class:`InterpretationError` carrying the last iterate as a
        resumable partial).
    budget:
        An optional :class:`repro.resilience.Budget` installed for the
        call; its raises carry a :class:`~repro.resilience.PartialProgress`
        accepted back through ``resume=``.

    ``context`` may also be a
    :class:`repro.symbolic.model.SymbolicContextModel`, in which case the
    whole iteration runs on BDDs (:class:`SymbolicIterationOps`): protocol
    iterates are class-BDD selections, representation is a relational-image
    sweep, and fixed-point/cycle detection compares canonical node ids.
    ``max_states`` does not apply there — nothing materialises states.

    The next iterate is a function of the generated system only (it is
    derived from it), so a repeated system key means the iteration has
    entered a cycle.
    """
    _validate_agents(program)
    if getattr(context, "is_symbolic_model", False):
        ops = SymbolicIterationOps(program, context, require_local)
    else:
        ops = ExplicitIterationOps(program, context, require_local, max_states)
    if resume is not None:
        _check_resume(resume, ops.kind)
        iteration, current = resume.iteration, resume.current
        history, seen = list(resume.history), dict(resume.seen)
    else:
        iteration, current = 0, ops.seed(_seed_protocol(program, context, seed))
        history, seen = [], {}

    def partial():
        return _res.PartialProgress(
            ops.kind,
            iteration=iteration,
            current=current,
            history=list(history),
            seen=dict(seen),
        )

    def roots():
        return ops.reorder_roots(current, history)

    with _res.activate(budget) as bud:
        try:
            while iteration < max_iterations:
                if bud is not None:
                    bud.tick("fixpoint.iter", iterations=iteration, partial=partial,
                             manager=ops.manager, roots=roots, groups=ops.groups)
                ops.safe_point(roots)
                system, used = ops.represent(current)
                if _obs.ENABLED:
                    _obs.event(
                        "fixpoint.iter",
                        loop="iterate_interpretation",
                        backend=ops.backend,
                        iteration=iteration + 1,
                        states=len(system),
                    )
                signature = ops.signature(used, system)
                derived = ops.derive(system)
                if ops.signature(derived, system) == signature:
                    # The derived protocol agrees with the current one on
                    # every local state arising in the generated system, hence
                    # generates the same system: a fixed point.
                    cycle_length = None
                else:
                    key = ops.system_key(system)
                    if key not in seen:
                        history.append(signature)
                        seen[key] = iteration
                        current = derived
                        iteration += 1
                        continue
                    cycle_length = iteration - seen[key]
                    system, derived = ops.represent(derived)
                protocol, system = ops.result(derived, system)
                history.append(signature)
                iteration += 1
                if _obs.ENABLED:
                    _obs.counter("fixpoint.iterations", iteration)
                    _obs.event(
                        "fixpoint",
                        loop="iterate_interpretation",
                        backend=ops.backend,
                        iterations=iteration,
                        result="converged" if cycle_length is None else f"cycle:{cycle_length}",
                    )
                return IterationResult(
                    converged=cycle_length is None,
                    protocol=protocol,
                    system=system,
                    iterations=iteration,
                    cycle_length=cycle_length,
                    history=history,
                )
        except BudgetExceededError as error:
            raise error.attach_partial(partial())
    raise IterationLimitError(
        f"interpretation of {context.name!r} did not stabilise within {max_iterations} iterations",
        reason="iterations",
        site="fixpoint.iter",
        diagnostics={"max_iterations": max_iterations},
        partial=partial(),
    )


def construct_by_rounds(
    program,
    context,
    max_rounds=1000,
    require_local=True,
    max_states=100000,
    verify=True,
    budget=None,
    resume=None,
):
    """Depth-stratified construction of an implementation.

    States are explored breadth-first; the guards at the frontier states of
    depth ``d`` are evaluated over the epistemic structure of *all states of
    depth at most ``d`` discovered so far*.  This mirrors the paper's
    inductive construction for programs that provide epistemic witnesses: not
    knowing something always has a witness in the past, so guard values never
    change once deeper states appear.

    Returns an :class:`IterationResult` whose ``verified`` attribute records
    whether the constructed protocol is indeed an implementation (it always
    is for witness-providing programs; for others the construction is only a
    heuristic and verification may fail).

    ``context`` may also be a
    :class:`repro.symbolic.model.SymbolicContextModel`, in which case the
    construction runs entirely on BDDs (:class:`SymbolicConstructionOps`)
    and never enumerates the state space — the road to contexts the
    explicit path cannot even iterate.  ``max_states`` does not apply there:
    the symbolic representation never materialises states.

    Under a :class:`repro.resilience.Budget` whose node ceiling fires on the
    symbolic path, the final rung of the mitigation ladder runs here: when
    the model's universe is enumerable (``state_space.size() <= max_states``)
    the construction falls back to the explicit ops and re-runs under the
    budget's deadline, token and ``max_iterations`` (without its node
    ceiling) instead of propagating the raise.
    """
    _validate_agents(program)
    symbolic = getattr(context, "is_symbolic_model", False)
    if symbolic:
        ops = SymbolicConstructionOps(program, context, require_local)
    else:
        ops = ExplicitConstructionOps(program, context, require_local, max_states)
    try:
        return _construct(ops, max_rounds, verify, budget, resume)
    except BudgetExceededError as error:
        effective = budget if budget is not None else _res.current_budget()
        if (
            not symbolic
            or error.reason != "nodes"
            or effective is None
            or not effective.mitigate
            or context.state_space.size() > max_states
        ):
            raise
        # Final ladder rung: the symbolic diagram blew past its node ceiling
        # but the universe is small enough to enumerate — start over with
        # the explicit ops under the same deadline, token and iteration
        # ceiling.  The node ceiling is dropped: it would otherwise arm the
        # BDD managers the explicit evaluator builds under the "bdd"
        # world-set backend.
        if _obs.ENABLED:
            _obs.event(
                "resilience.mitigate",
                step="fallback",
                site="construct.round",
                backend="explicit",
                universe=context.state_space.size(),
            )
        ops = ExplicitConstructionOps(
            program, context.explicit_context(), require_local, max_states
        )
        return _construct(ops, max_rounds, verify, effective.without_node_limit(), None)


def _construct(ops, max_rounds, verify, budget, resume):
    if resume is not None:
        _check_resume(resume, ops.kind)
        ops.restore(resume)
        rounds = resume.rounds
    else:
        rounds = 0

    def partial():
        return _res.PartialProgress(ops.kind, rounds=rounds, **ops.snapshot())

    with _res.activate(budget) as bud:
        try:
            while ops.is_open() and rounds < max_rounds:
                if bud is not None:
                    bud.tick("construct.round", iterations=rounds, partial=partial,
                             manager=ops.manager, roots=ops.reorder_roots,
                             groups=ops.groups)
                if _obs.ENABLED:
                    _obs.event(
                        "construct.round",
                        round=rounds + 1,
                        backend=ops.backend,
                        **ops.round_stats(),
                    )
                ops.safe_point(ops.reorder_roots)
                ops.round()
                rounds += 1
            if not ops.is_open():
                if _obs.ENABLED:
                    _obs.event(
                        "fixpoint",
                        loop="construct_by_rounds",
                        backend=ops.backend,
                        iterations=rounds,
                        result=ops.round_stats()["states"],
                    )
                protocol, system = ops.result(rounds)
                verified = ops.verify(protocol) if verify else None
        except BudgetExceededError as error:
            # The loop state is the last committed round (or the closed
            # construction, when the raise came from verification).
            raise error.attach_partial(partial())
    if ops.is_open():
        raise IterationLimitError(
            f"round-by-round construction did not close within {max_rounds} rounds",
            reason="iterations",
            site="construct.round",
            diagnostics={"max_rounds": max_rounds},
            partial=partial(),
        )
    return IterationResult(
        converged=bool(verified) if verify else True,
        protocol=protocol,
        system=system,
        iterations=rounds,
        verified=verified,
    )
