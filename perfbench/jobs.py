"""The benchmark's job kinds and its three seeded job streams.

A *job* is one user-level request to the library: solve a protocol, check
a temporal-epistemic property battery, or search for the implementations
of a knowledge-based program.  Every job returns an *answer* that is
compared with an expected answer which does not come from the engine under
test: closed-form state counts, the classifications the paper states, or
(for random specs) a cross-check against the explicit lowering computed
before timing starts.

Each job kind is a function ``run(params, text) -> (answer, stats)``;
``stats`` carries the semantic counters the per-layer report needs
(``rounds``, ``candidates``, ``implementations``).  A workload is a fixed
mix of kinds and sizes; the seed fixes the order of the jobs and the
random specs of the synthesis stream, so different seeds measure the same
amount of work.
"""

import hashlib
import random

from repro.interpretation import construct_by_rounds, enumerate_implementations, liberal_protocol
from repro.logic.formula import And, CommonKnows, Implies, Knows, Not, Prop, disj
from repro.protocols import bit_transmission as bt
from repro.protocols import coordinated_attack as ca
from repro.protocols import dining_cryptographers as dc
from repro.protocols import leader_election as le
from repro.protocols import muddy_children as mc
from repro.protocols import sequence_transmission as st
from repro.protocols import unexpected_examination as ue
from repro.protocols import variable_setting as vs
from repro.spec import parse_spec
from repro.spec.fuzz import random_spec
from repro.systems import represent
from repro.temporal import AF, AG, EF, CTLKModelChecker, check_valid

class Job:
    """One request of a job stream: a kind, its parameters, the spec text
    handed to the program (synthesis jobs only) and the expected answer."""

    __slots__ = ("kind", "params", "text", "expected")

    def __init__(self, kind, params, text=None, expected=None):
        self.kind = kind
        self.params = params
        self.text = text
        self.expected = expected

    def run(self):
        return KINDS[self.kind](self.params, self.text)

    def check(self, answer):
        """Whether ``answer`` is the expected verdict."""
        if self.kind == "random_spec_search":
            return _check_random_search(answer, self.expected)
        return answer == self.expected

    def describe(self):
        return f"{self.kind}{self.params}"


def _stats(rounds=0, candidates=0, implementations=0):
    return {"rounds": rounds, "candidates": candidates, "implementations": implementations}


# -- closed-form answers ----------------------------------------------------------------


def muddy_states(n):
    """Reachable states of muddy children: each of the ``2^n - 1``
    announcement-compatible patterns runs deterministically through
    ``n + 2`` rounds, and states of distinct patterns never merge."""
    return (2**n - 1) * (n + 2)


def dining_states(n):
    """The ``n + 1`` payer choices times ``2^n`` coin patterns, before and
    after the simultaneous announcement round."""
    return 2 * (n + 1) * 2**n


def attack_states(n):
    """Coordinated attack: each run freezes the ready pattern and the word
    front advances along the chain of ``n`` generals."""
    return 2 ** (n + 1) - 1


def election_states(n):
    """Leader election: each of the ``2^n - 1`` non-empty candidate
    patterns runs deterministically through ``n + 1`` rounds."""
    return (n + 1) * (2**n - 1)


def sequence_states(length):
    """Sequence transmission (variable model): ``2^length`` static bit
    strings times the ``2 * length + 1`` reachable ``(nrcvd, sacked)``
    pairs (the sender only moves on to bit ``i`` once it knows bit
    ``i - 1`` arrived, so ``sacked <= nrcvd <= sacked + 1``)."""
    return (2 * length + 1) * 2**length


# -- zoo jobs on the default engine ------------------------------------------------------


def _muddy(params, _text):
    (n,) = params
    result = mc.solve(n)
    answer = (result.verified, result.iterations, len(result.system.states))
    return answer, _stats(rounds=result.iterations)


def _bit_transmission(params, _text):
    result = bt.solve()
    return (result.converged, len(result.system.states)), _stats(rounds=result.iterations)


def _sequence(params, _text):
    (length,) = params
    result = st.solve(length)
    return (result.converged, len(result.system.states)), _stats(rounds=result.iterations)


def _examination(params, _text):
    result = ue.solve()
    system = result.system
    answer = (
        result.converged,
        ue.surprise_holds_when_written(system),
        ue.exam_written_on_day(system, ue.NUM_DAYS - 1),
    )
    return answer, _stats(rounds=result.iterations)


def _attack(params, _text):
    (n,) = params
    result = ca.solve(n)
    return (result.converged, len(result.system.states)), _stats(rounds=result.iterations)


def _election(params, _text):
    (n,) = params
    result = le.solve(n)
    system = result.system
    answer = (
        result.verified,
        len(system.states),
        le.election_is_correct(system, n),
        le.elected_leader(system, n),
    )
    return answer, _stats(rounds=result.iterations)


def _classify_family(params, _text):
    """Classify every member of the variable-setting family; ``params`` is
    ``("explicit",)`` for the default engine or ``("symbolic",)``."""
    (representation,) = params
    answer = {}
    candidates = implementations = 0
    for name, (factory, _) in vs.PROGRAM_FAMILY.items():
        context = vs.symbolic_model() if representation == "symbolic" else vs.context()
        result = enumerate_implementations(factory(), context)
        answer[name] = result.classification
        candidates += result.candidates_checked
        implementations += len(result)
    return answer, _stats(candidates=candidates, implementations=implementations)


def _abp_ctlk(params, _text):
    (length,) = params
    system = st.abp_system(length)
    answer = (
        check_valid(system, AG(st.prefix_ok_formula())),
        check_valid(system, EF(Prop("all_received"))),
    )
    return answer, _stats()


def _dining_anonymity(params, _text):
    (n,) = params
    system = dc.system(n)
    return (len(system.states), dc.anonymity_holds(system, n)), _stats()


# -- symbolic construction + CTLK battery -----------------------------------------------


def _muddy_symbolic(params, _text):
    (n,) = params
    model = mc.symbolic_model(n)
    result = construct_by_rounds(mc.program(n).check_against_context(model), model)
    checker = CTLKModelChecker(result.system)
    group = tuple(mc.child(i) for i in range(n))
    said_any = disj([mc.said_prop(i) for i in range(n)])
    someone_muddy = disj([mc.muddy_prop(i) for i in range(n)])
    answer = (
        result.verified,
        result.iterations,
        result.system.state_count(),
        # Everyone eventually answers yes, on every path.
        checker.valid(AF(said_any)),
        # Answering yes means knowing one's own status.
        checker.valid(AG(Implies(mc.said_prop(0), mc.knows_own_status(0)))),
        # The father's announcement stays common knowledge forever.
        checker.valid(AG(CommonKnows(group, someone_muddy))),
    )
    return answer, _stats(rounds=result.iterations)


def _dining_symbolic(params, _text):
    """``params`` is ``(n, blocked)``: ``blocked`` compiles under the
    adversarial variable order with growth-triggered sifting armed."""
    n, blocked = params
    order = dc.blocked_variable_order(n) if blocked else None
    model = dc.symbolic_model(n, variable_order=order)
    if blocked:
        model.encoding.bdd.enable_reordering(
            groups=model.encoding.reorder_groups(), threshold=2048
        )
    result = construct_by_rounds(dc.program(n).check_against_context(model), model)
    checker = CTLKModelChecker(result.system)
    group = tuple(dc.crypto(i) for i in range(n))
    someone = dc.someone_paid_formula(n)
    done = Prop("done")
    answer = (
        result.verified,
        result.system.state_count(),
        # The announcement round always completes.
        checker.valid(AF(done)),
        # Afterwards, a paid dinner is common knowledge...
        checker.valid(AG(Implies(And((done, someone)), CommonKnows(group, someone)))),
        # ...yet the payer stays anonymous to every other cryptographer.
        checker.valid(
            AG(Implies(And((done, dc.paid_prop(0))), Not(Knows(dc.crypto(1), dc.paid_prop(0)))))
        ),
        # And paying is possible in the first place.
        checker.reachable(And((done, dc.paid_prop(0)))),
    )
    return answer, _stats(rounds=result.iterations)


def _attack_symbolic(params, _text):
    (n,) = params
    result = ca.solve_symbolic(n)
    system = result.system
    answer = (result.verified, system.state_count(), ca.impossibility_holds(system, n))
    return answer, _stats(rounds=result.iterations)


def _election_symbolic(params, _text):
    (n,) = params
    result = le.solve_symbolic(n)
    system = result.system
    answer = (result.verified, system.state_count(), le.election_is_correct(system, n))
    return answer, _stats(rounds=result.iterations)


# -- synthesis ---------------------------------------------------------------------------


def _bit_transmission_search(params, _text):
    (representation,) = params
    context = bt.symbolic_model() if representation == "symbolic" else bt.context()
    result = enumerate_implementations(bt.program(), context)
    systems = [system for _, system in result]
    answer = (result.classification, [len(system) for system in systems])
    return answer, _stats(candidates=result.candidates_checked, implementations=len(result))


def _random_spec_search(_params, text):
    """Parse a spec handed over as text and search its implementations
    symbolically over the liberal-reachable candidate universe."""
    spec = parse_spec(text, source="<perfbench>")
    model = spec.symbolic_model()
    program = spec.program().check_against_context(model)
    result = enumerate_implementations(program, model)
    reachable = [list(system.iter_states()) for _, system in result]
    answer = (result.classification, result.candidates_checked, reachable)
    return answer, _stats(candidates=result.candidates_checked, implementations=len(result))


def canonical(states):
    """A set of states as plain data: a frozenset of sorted
    ``(variable, value)`` tuples."""
    return frozenset(tuple(sorted(state.as_dict().items())) for state in states)


def _check_random_search(answer, expected):
    """Cross-check a random-spec search against the explicit lowering.

    ``expected`` is ``(free, constructed)``: the number of non-initial
    states the explicit liberal protocol reaches (the search must try all
    ``2^free`` subsets) and the reachable set (see :func:`canonical`) of
    the explicit ``construct_by_rounds`` when that construction verified,
    ``None`` otherwise.  A verified construction is an implementation, so
    the search must find it."""
    classification, candidates, reachable = answer
    free, constructed = expected
    if candidates != 2**free:
        return False
    if constructed is not None:
        return constructed in {canonical(states) for states in reachable}
    return classification in ("contradictory", "unique", "multiple")


KINDS = {
    "muddy": _muddy,
    "bit_transmission": _bit_transmission,
    "sequence": _sequence,
    "examination": _examination,
    "attack": _attack,
    "election": _election,
    "classify_family": _classify_family,
    "abp_ctlk": _abp_ctlk,
    "dining_anonymity": _dining_anonymity,
    "muddy_symbolic": _muddy_symbolic,
    "dining_symbolic": _dining_symbolic,
    "attack_symbolic": _attack_symbolic,
    "election_symbolic": _election_symbolic,
    "bit_transmission_search": _bit_transmission_search,
    "random_spec_search": _random_spec_search,
}

FAMILY_CLASSES = {name: expected for name, (_, expected) in vs.PROGRAM_FAMILY.items()}


def _expected(kind, params):
    """The closed-form answer of a zoo job."""
    if kind == "muddy":
        (n,) = params
        return (True, n + 2, muddy_states(n))
    if kind == "bit_transmission":
        return (True, 6)
    if kind == "sequence":
        return (True, sequence_states(params[0]))
    if kind == "examination":
        # Surprise is possible, and never on the last day.
        return (True, True, False)
    if kind == "attack":
        return (True, attack_states(params[0]))
    if kind == "election":
        (n,) = params
        return (True, election_states(n), True, n - 1)
    if kind == "classify_family":
        return FAMILY_CLASSES
    if kind == "abp_ctlk":
        return (True, True)
    if kind == "dining_anonymity":
        return (dining_states(params[0]), True)
    if kind == "muddy_symbolic":
        (n,) = params
        return (True, n + 2, muddy_states(n), True, True, True)
    if kind == "dining_symbolic":
        return (True, dining_states(params[0]), True, True, True, True)
    if kind == "attack_symbolic":
        return (True, attack_states(params[0]), True)
    if kind == "election_symbolic":
        return (True, election_states(params[0]), True)
    if kind == "bit_transmission_search":
        return ("unique", [6])
    raise KeyError(kind)


# -- the job streams ---------------------------------------------------------------------

#: ``workload -> [(kind, params, copies)]``: the fixed mix of one pass.
MIXES = {
    "zoo_small": [
        ("muddy", (3,), 20),
        ("muddy", (4,), 20),
        ("bit_transmission", (), 20),
        ("sequence", (2,), 20),
        ("examination", (), 20),
        ("attack", (2,), 20),
        ("election", (3,), 20),
        ("election", (4,), 20),
        ("classify_family", ("explicit",), 20),
        ("abp_ctlk", (3,), 20),
        ("dining_anonymity", (3,), 20),
    ],
    "symbolic_scale": [
        *[("muddy_symbolic", (n,), 3) for n in (7, 8, 9, 10)],
        *[("dining_symbolic", (n, False), 3) for n in (8, 9, 10)],
        ("dining_symbolic", (7, True), 3),
        *[("attack_symbolic", (n,), 3) for n in (10, 11, 12)],
        *[("election_symbolic", (n,), 3) for n in (5, 6)],
    ],
    # Plus the random specs of ``RANDOM_SPEC_STRATA``.  The sixteen symbolic
    # bit-transmission searches rank right below the explicit search, so
    # the tail percentile (the 11th slowest of 339 jobs) falls among the
    # copies of one repeated job.
    "synthesis": [
        ("classify_family", ("explicit",), 4),
        ("classify_family", ("symbolic",), 4),
        ("bit_transmission_search", ("symbolic",), 16),
        ("bit_transmission_search", ("explicit",), 1),
    ],
}

#: Random specs per pass of the synthesis stream, stratified by the size
#: ``free`` of their candidate universe (the search tries ``2^free``
#: candidates), so that every seed searches the same number of candidates.
#: Hundreds of small specs keep the median steady from seed to seed; larger
#: universes are left out because one spec's kernel tables would then set
#: the memory peak, which would change with the seed.
RANDOM_SPEC_STRATA = {0: 90, 1: 75, 2: 60, 3: 45, 4: 36, 6: 8}

#: Reduced mixes for the benchmark's self-test.
TINY_MIXES = {
    "zoo_small": [
        ("muddy", (3,), 1),
        ("bit_transmission", (), 1),
        ("classify_family", ("explicit",), 1),
        ("abp_ctlk", (2,), 1),
    ],
    "symbolic_scale": [
        ("muddy_symbolic", (3,), 1),
        ("dining_symbolic", (3, True), 1),
        ("attack_symbolic", (3,), 1),
        ("election_symbolic", (3,), 1),
    ],
    "synthesis": [
        ("classify_family", ("symbolic",), 1),
        ("bit_transmission_search", ("symbolic",), 1),
    ],
}
TINY_STRATA = {0: 1, 1: 1, 2: 1}

#: Give up drawing random specs after this many draws (a stratum that
#: cannot be filled is a generator change, not a seed to skip).
MAX_DRAWS = 20000


def _spec_rng(seed, index):
    """The random source of the ``index``-th spec draw of a seed: one
    generator per draw, so a spec can be regenerated from its index
    alone."""
    return random.Random(f"perfbench-spec-{seed}-{index}")


def draw_random_specs(seed, tiny=False):
    """Select the random specs of a synthesis pass and compute their
    cross-check answers on the explicit lowering.

    Draws specs in index order, keeps the first ones whose explicit
    liberal protocol reaches the wanted number of non-initial states, and
    returns ``{index: (free, constructed)}`` as :func:`_check_random_search`
    expects them.  The benchmark calls this in a child process, so the
    work stays out of the timed process's heap and out of ``setup_s``."""
    wanted = dict(TINY_STRATA if tiny else RANDOM_SPEC_STRATA)
    chosen = {}
    for index in range(MAX_DRAWS):
        if not any(wanted.values()):
            return chosen
        spec = random_spec(_spec_rng(seed, index), name=f"perfbench-{seed}-{index}")
        context = spec.variable_context()
        program = spec.program().check_against_context(context)
        liberal = represent(context, liberal_protocol(program, context))
        free = len(set(liberal.states) - set(context.initial_states))
        if not wanted.get(free):
            continue
        wanted[free] -= 1
        chosen[index] = (free, _construct_explicitly(spec.to_kbp()))
    raise RuntimeError(f"random-spec strata not filled after {MAX_DRAWS} draws: {wanted}")


def _construct_explicitly(text):
    """The reachable set (see :func:`canonical`) of the explicit round
    construction of a spec text, or ``None`` when it does not yield a
    verified implementation."""
    spec = parse_spec(text, source="<perfbench-oracle>")
    context = spec.variable_context()
    try:
        result = construct_by_rounds(spec.program().check_against_context(context), context)
    except Exception:  # a construction may legitimately fail (non-local guards)
        return None
    return canonical(result.system.states) if result.verified else None


def make_jobs(workload, seed, spec_indices=(), tiny=False):
    """Generate one pass of ``workload``: the fixed mix in a seeded order.

    For the synthesis stream, ``spec_indices`` names the random-spec draws
    to render (see :func:`draw_random_specs`); their expected answers are
    attached by the caller."""
    mix = (TINY_MIXES if tiny else MIXES)[workload]
    jobs = [
        Job(kind, params, expected=_expected(kind, params))
        for kind, params, copies in mix
        for _ in range(copies)
    ]
    for index in spec_indices:
        spec = random_spec(_spec_rng(seed, index), name=f"perfbench-{seed}-{index}")
        jobs.append(Job("random_spec_search", (index,), text=spec.to_kbp()))
    random.Random(f"perfbench-order-{workload}-{seed}").shuffle(jobs)
    return jobs


def for_pass(job_list, number):
    """The job list of pass ``number``: from the second pass on, every
    random spec is renamed, so no spec text repeats within a run and a
    cache keyed on the text cannot turn a search into a lookup."""
    if number == 0:
        return job_list
    renamed = []
    for job in job_list:
        if job.text is not None:
            header, body = job.text.split("\n", 1)
            job = Job(job.kind, job.params, f"{header}-pass{number}\n{body}", job.expected)
        renamed.append(job)
    return renamed


def digest(jobs):
    """A digest of a job list (kinds, sizes and spec texts, in order), so
    two runs can be shown to have used identical inputs."""
    sha = hashlib.sha256()
    for job in jobs:
        sha.update(f"{job.kind}|{job.params!r}|{job.text or ''}\n".encode())
    return sha.hexdigest()
