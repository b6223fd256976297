"""Leader election on a synchronous unidirectional ring, knowledge-based.

Node ``i`` carries the static candidate flag ``cand{i}`` and the id
``i + 1``; ``seen{i}`` records the highest candidate id it has heard of
(0 = none), and each round every node forwards the maximum of its record
and its ring predecessor's.  The program is a single declarative clause::

    do  K_i leader_i  ->  led_i := true  []  otherwise  ->  forward  od

where ``leader_i`` abbreviates "``i`` is a candidate and no higher-id node
is".  The context is synchronous (every node observes the round counter),
so the implementation is unique and elects exactly the highest-id
candidate — the comparison protocol *emerges* from the knowledge guard.

The protocol is specified declaratively in
``repro/spec/specs/leader_election.kbp`` (parameters ``n`` and
``max_round``); this module wraps the spec on the zoo's shared
``context_parts()``/``symbolic_model()`` convention.  The ring is a
symbolic workload: the state space is ``4^n (n+1)^(n+1)``-ish (each node
contributes ``cand``, ``led`` and an ``(n+1)``-valued ``seen``), so beyond
``n ~ 5`` only the BDD-backed path is practical — see
:func:`solve_symbolic`.
"""

from repro.logic.formula import Implies, Not, Prop, conj
from repro.spec import load_spec

N_NODES = 4

SPEC_NAME = "leader_election"


def spec(n=N_NODES, max_round=None):
    """The parsed :class:`~repro.spec.ProtocolSpec` of the protocol."""
    if max_round is None:
        return load_spec(SPEC_NAME, n=n)
    return load_spec(SPEC_NAME, n=n, max_round=max_round)


def node(i):
    """The name of ring node ``i``."""
    return f"node{i}"


def leader_formula(i, n=N_NODES):
    """``leader_i``: node ``i`` is a candidate and no higher-id node is."""
    return conj(
        [Prop(f"cand{i}")] + [Not(Prop(f"cand{j}")) for j in range(i + 1, n)]
    )


def correctness_formula(n=N_NODES):
    """Safety of the election: a node announces only if it really is the
    highest-id candidate (``led{i} => leader_i`` for every ``i``)."""
    return conj(
        [Implies(Prop(f"led{i}"), leader_formula(i, n)) for i in range(n)]
    )


def context_parts(n=N_NODES):
    """The context ingredients, shared by the explicit and symbolic paths."""
    return spec(n).context_parts()


def context(n=N_NODES):
    """Build the leader-election context (explicit enumeration — only
    viable for small rings)."""
    return spec(n).variable_context()


def symbolic_model(n=N_NODES, **kwargs):
    """The enumeration-free compiled form of the same context."""
    return spec(n).symbolic_model(**kwargs)


def program(n=N_NODES):
    """The nodes' joint knowledge-based program."""
    return spec(n).program()


def solve(n=N_NODES, method="rounds"):
    """Interpret the program explicitly and return the
    :class:`repro.interpretation.iteration.IterationResult`.  The context
    is synchronous, so the default depth-stratified construction is sound
    and converges in one pass."""
    from repro.interpretation import construct_by_rounds, iterate_interpretation

    ctx = context(n)
    prog = program(n).check_against_context(ctx)
    if method == "rounds":
        return construct_by_rounds(prog, ctx)
    if method == "iterate":
        return iterate_interpretation(prog, ctx)
    raise ValueError(f"unknown method {method!r}")


def solve_symbolic(n=N_NODES, **kwargs):
    """Interpret the program on BDDs — the only practical path at ring
    sizes whose state space defeats enumeration."""
    from repro.interpretation import construct_by_rounds

    model = symbolic_model(n, **kwargs)
    return construct_by_rounds(program(n), model)


def election_is_correct(system, n=N_NODES):
    """Check election safety on a constructed system (explicit or
    symbolic): every announcement is by the true leader."""
    return system.holds_everywhere(correctness_formula(n))


def elected_leader(system, n=N_NODES):
    """The id of the node that eventually announces, or ``None`` when no
    node is a candidate anywhere (explicit systems only: inspects the
    materialised states)."""
    winners = set()
    for state in system.states:
        for i in range(n):
            if state[f"led{i}"]:
                winners.add(i)
    if not winners:
        return None
    return max(winners)
