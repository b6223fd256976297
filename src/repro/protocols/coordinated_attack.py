"""Coordinated attack over lossy messengers, as a knowledge-based program.

``n`` generals are camped along a chain; general ``i`` is privately ready
(or not) and relays "divisions 0..i are all ready" to general ``i+1`` via a
messenger that may be captured (the ``relay_fail`` actions share the
``relay_ok`` guards but have no effect).  Each general runs the declarative
clause::

    do  K_i all_ready  ->  attacked_i := true  od

The classical impossibility (Halpern–Moses) shows up epistemically in the
implementation: ``word{i} => ready0 & .. & ready{i-1}`` holds in every
reachable state, so only the *last* general in the chain can ever know
``all_ready`` — it attacks alone, and coordination (common knowledge of
``all_ready``) is unattainable over lossy channels.

The protocol is specified declaratively in
``repro/spec/specs/coordinated_attack.kbp`` (parameter ``n``); this module
wraps the spec on the zoo's shared ``context_parts()``/``symbolic_model()``
convention.  The chain is a symbolic workload: at ``n`` generals the state
space has ``2^(3n-1)`` states, so beyond ``n ~ 7`` only the BDD-backed path
is practical — see :func:`solve_symbolic`.
"""

from repro.logic.formula import Implies, Not, Prop, conj
from repro.spec import load_spec

N_GENERALS = 4

SPEC_NAME = "coordinated_attack"


def spec(n=N_GENERALS):
    """The parsed :class:`~repro.spec.ProtocolSpec` of the protocol."""
    return load_spec(SPEC_NAME, n=n)


def general(i):
    """The name of general ``i``."""
    return f"gen{i}"


def all_ready_formula(n=N_GENERALS):
    """``ready0 & ... & ready{n-1}``: every division is ready to attack."""
    return conj([Prop(f"ready{i}") for i in range(n)])


def word_invariant(n=N_GENERALS):
    """The chain invariant: ``word{i}`` implies divisions ``0..i-1`` are all
    ready (general ``i`` only hears the word after the chain before it
    relayed truthfully)."""
    return conj(
        [
            Implies(Prop(f"word{i}"), conj([Prop(f"ready{j}") for j in range(i)]))
            for i in range(1, n)
        ]
    )


def lone_attacker_formula(n=N_GENERALS):
    """Only the last general ever attacks: ``!attacked{i}`` for ``i < n-1``."""
    return conj([Not(Prop(f"attacked{i}")) for i in range(n - 1)])


def attack_requires_all_ready(n=N_GENERALS):
    """An attack happens only when everyone really is ready."""
    return Implies(Prop(f"attacked{n - 1}"), all_ready_formula(n))


def context_parts(n=N_GENERALS):
    """The context ingredients, shared by the explicit and symbolic paths."""
    return spec(n).context_parts()


def context(n=N_GENERALS):
    """Build the coordinated-attack context (explicit enumeration — only
    viable for small ``n``)."""
    return spec(n).variable_context()


def symbolic_model(n=N_GENERALS, **kwargs):
    """The enumeration-free compiled form of the same context."""
    return spec(n).symbolic_model(**kwargs)


def program(n=N_GENERALS):
    """The generals' joint knowledge-based program."""
    return spec(n).program()


def solve(n=N_GENERALS, method="iterate"):
    """Interpret the program explicitly and return the
    :class:`repro.interpretation.iteration.IterationResult`."""
    from repro.interpretation import construct_by_rounds, iterate_interpretation

    ctx = context(n)
    prog = program(n).check_against_context(ctx)
    if method == "iterate":
        return iterate_interpretation(prog, ctx)
    if method == "rounds":
        return construct_by_rounds(prog, ctx)
    raise ValueError(f"unknown method {method!r}")


def solve_symbolic(n=N_GENERALS, **kwargs):
    """Interpret the program on BDDs — the only practical path at chain
    lengths whose state space (``2^(3n-1)``) defeats enumeration."""
    from repro.interpretation import construct_by_rounds

    model = symbolic_model(n, **kwargs)
    return construct_by_rounds(program(n), model)


def impossibility_holds(system, n=N_GENERALS):
    """Check the impossibility reading on a constructed system (explicit or
    symbolic): the chain invariant holds everywhere, nobody but the last
    general ever attacks, and an attack implies everyone was ready."""
    return (
        system.holds_everywhere(word_invariant(n))
        and system.holds_everywhere(lone_attacker_formula(n))
        and system.holds_everywhere(attack_requires_all_ready(n))
    )
